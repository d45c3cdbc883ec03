"""Recursive-descent frontend for the analyzed language subset.

The grammar covers what the classification consumes: class, trait and
object definitions (plus case variants), constructor parameters, extends
clauses, val/var members, abstract type members and nested templates.
Method bodies and initializer expressions are skipped, with one
exception: a ``new Parent { members }`` initializer synthesizes an
anonymous-class template.

Errors are collected as positioned diagnostics and parsing continues
wherever recovery is possible, so one run reports as much as it can.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .ir import (
    FieldDecl,
    INFERRED_HEAD,
    TemplateDef,
    TemplateGraph,
    TemplateKind,
    TypeRef,
    Visibility,
    build_graph,
)

__all__ = [
    "CorpusParse",
    "ParseDiagnostic",
    "ParseResult",
    "SourcePosition",
    "parse_corpus",
    "parse_source",
]


@dataclass(frozen=True)
class SourcePosition:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseDiagnostic:
    position: SourcePosition
    message: str

    def __str__(self) -> str:
        return f"{self.position}: {self.message}"


@dataclass(frozen=True)
class ParseResult:
    """Everything one file parses to.  ``positions`` maps each template
    name to where it was defined, for cross-file duplicate reporting."""

    templates: list[TemplateDef]
    diagnostics: list[ParseDiagnostic]
    positions: dict[str, SourcePosition]


@dataclass(frozen=True)
class CorpusParse:
    """Merged parse of a whole corpus.  ``graph`` is None exactly when
    diagnostics were emitted."""

    graph: TemplateGraph | None
    diagnostics: list[ParseDiagnostic]


# ---- lexer ----------------------------------------------------------------

_KEYWORDS = frozenset(
    {
        "case",
        "class",
        "trait",
        "object",
        "extends",
        "with",
        "val",
        "var",
        "def",
        "type",
        "private",
        "protected",
        "lazy",
        "new",
        "final",
        "sealed",
        "abstract",
        "implicit",
        "override",
    }
)

#: Modifier keywords that carry no meaning for the analysis and are
#: consumed silently wherever a member or template may start.
_SOFT_MODIFIERS = frozenset(
    {"lazy", "final", "sealed", "abstract", "implicit", "override"}
)

#: Keywords that can begin a member; expression skipping stops at these.
_MEMBER_START = frozenset(
    {
        "val",
        "var",
        "def",
        "type",
        "private",
        "protected",
        "case",
        "class",
        "trait",
        "object",
    }
    | _SOFT_MODIFIERS
)

#: One alternative per token class, each after a skipped run of whitespace
#: and line comments.  ``end`` lets trailing whitespace end the scan, and
#: ``bad`` takes any other character, so no text is skipped unseen.
_TOKEN = re.compile(
    r'''[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?:(?P<ident>(?:[^\W\d]|\$)[\w$]*)
      |(?P<punct>[(){}\[\],.;])
      |(?P<comment>/\*)
      |(?P<op>[-!#%&*+/:<=>?@\\^|~]+)
      |(?P<lit>\d[\w.]*)
      |(?P<string>"""(?:.*?(?P<closed3>""")|.*)
                 |"(?:[^"\n\\]|\\.?)*(?P<closed>")?)
      |(?P<char>'\\.'|'.'|'[\w$]*)
      |(?P<end>\Z)
      |(?P<bad>.))''',
    re.DOTALL | re.VERBOSE,
)
_COMMENT_MARK = re.compile(r"/\*|\*/")
_LITERAL = re.compile(r"\w[\w.]*")


class _Token(NamedTuple):
    kind: str  # "ident" | "kw" | "punct" | "op" | "lit" | "eof"
    text: str
    offset: int


def _locator(file: str, text: str) -> Callable[[int], SourcePosition]:
    """Return the one map from an offset in ``text`` to its position: the
    line by bisection over the newline offsets, the column in characters."""
    breaks = [-1, *(m.start() for m in re.finditer("\n", text))]

    def locate(offset: int) -> SourcePosition:
        line = bisect_left(breaks, offset)
        return SourcePosition(file, line, offset - breaks[line - 1])

    return locate


def _lex(
    text: str, locate: Callable[[int], SourcePosition]
) -> tuple[list[_Token], list[ParseDiagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[ParseDiagnostic] = []

    def error(offset: int, message: str) -> None:
        diagnostics.append(ParseDiagnostic(locate(offset), message))

    pos = 0
    while True:  # a block comment or a numeral that is not a letter restarts
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastgroup
            start = m.start(kind)
            word = m.group(kind)
            if kind == "ident":
                if word in _KEYWORDS:
                    kind = "kw"
                elif not (word[0].isalpha() or word[0] in "_$"):
                    # \w also admits numerals that are not letters.  A digit
                    # such as ² starts a literal; any other, such as Ⅻ, is
                    # an unexpected character, and so is each one after it.
                    if word[0].isdigit():
                        pos = _LITERAL.match(text, start).end()
                        tokens.append(_Token("lit", text[start:pos], start))
                    else:
                        pos = start
                        for c in word:
                            if c.isalpha() or c in "_$" or c.isdigit():
                                break
                            error(pos, f"unexpected character {c!r}")
                            pos += 1
                    break
            elif kind == "string":
                if m.group("closed") is None and m.group("closed3") is None:
                    error(start, "unterminated string literal")
                kind, word = "lit", '"..."'
            elif kind == "char":
                kind, word = "lit", "'...'"
            elif kind == "comment":
                depth = 0
                for mark in _COMMENT_MARK.finditer(text, start):
                    depth += 1 if mark.group() == "/*" else -1
                    if depth == 0:
                        pos = mark.end()
                        break
                else:
                    error(start, "unterminated comment")
                    pos = len(text)
                break
            elif kind == "bad":
                error(start, f"unexpected character {word!r}")
                continue
            elif kind == "end":
                tokens.append(_Token("eof", "", start))
                return tokens, diagnostics
            tokens.append(_Token(kind, word, start))


# ---- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, file: str, text: str) -> None:
        self._locate = _locator(file, text)
        self.tokens, self.diagnostics = _lex(text, self._locate)
        self.pos = 0
        self.templates: list[TemplateDef | None] = []
        self.positions: dict[str, SourcePosition] = {}
        self._anon_counters: dict[str, int] = {}

    # -- token plumbing --

    def _peek(self, ahead: int = 0) -> _Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def _at_kw(self, *words: str) -> bool:
        tok = self._peek()
        return tok.kind == "kw" and tok.text in words

    def _at_punct(self, char: str) -> bool:
        tok = self._peek()
        return tok.kind == "punct" and tok.text == char

    def _at_op(self, text: str) -> bool:
        tok = self._peek()
        return tok.kind == "op" and tok.text == text

    def _position(self, tok: _Token) -> SourcePosition:
        return self._locate(tok.offset)

    def _error(self, tok: _Token, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(self._position(tok), message))

    def _describe(self, tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def _expect_ident(self) -> _Token | None:
        tok = self._peek()
        if tok.kind == "ident":
            return self._advance()
        self._error(tok, f"expected identifier, got {self._describe(tok)}")
        return None

    def _expect_punct(self, char: str) -> bool:
        tok = self._peek()
        if tok.kind == "punct" and tok.text == char:
            self._advance()
            return True
        self._error(tok, f"expected {char!r}, got {self._describe(tok)}")
        return False

    # -- recovery --

    def _skip_group(self, open_char: str) -> None:
        """Consume a balanced (), [] or {} group, open token included."""
        close_char = {"(": ")", "[": "]", "{": "}"}[open_char]
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                self._error(tok, f"unexpected end of input, expected {close_char!r}")
                return
            if tok.kind == "punct":
                if tok.text == open_char:
                    depth += 1
                elif tok.text == close_char:
                    depth -= 1
                    if depth == 0:
                        self._advance()
                        return
            self._advance()

    def _skip_member_tail(self) -> None:
        """Skip an opaque expression or definition tail.

        Stops before a token that can begin the next member, before an
        unbalanced closing bracket, or after a semicolon, tracking nesting
        so braces and keywords inside the expression do not end the skip.
        """
        parens = brackets = braces = 0
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if parens == 0 and brackets == 0 and braces == 0:
                if tok.kind == "kw" and tok.text in _MEMBER_START:
                    return
                if tok.kind == "punct" and tok.text == ";":
                    self._advance()
                    return
                if tok.kind == "punct" and tok.text in ")]}":
                    return
            if tok.kind == "punct":
                if tok.text == "(":
                    parens += 1
                elif tok.text == ")":
                    if parens == 0:
                        return
                    parens -= 1
                elif tok.text == "[":
                    brackets += 1
                elif tok.text == "]":
                    if brackets == 0:
                        return
                    brackets -= 1
                elif tok.text == "{":
                    braces += 1
                elif tok.text == "}":
                    if braces == 0:
                        return
                    braces -= 1
            self._advance()

    def _skip_to_template_start(self) -> None:
        """Top-level recovery: advance to the next plausible definition."""
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if tok.kind == "kw" and (
                tok.text in ("case", "class", "trait", "object")
                or tok.text in _SOFT_MODIFIERS
            ):
                return
            self._advance()

    # -- grammar --

    def parse_file(self) -> None:
        while True:
            while self._at_punct(";"):
                self._advance()
            tok = self._peek()
            if tok.kind == "eof":
                return
            self._consume_soft_modifiers()
            if self._at_kw("case", "class", "trait", "object"):
                self.parse_template(None)
            else:
                tok = self._peek()
                self._error(
                    tok,
                    f"expected a class, trait or object definition, got "
                    f"{self._describe(tok)}",
                )
                self._advance()
                self._skip_to_template_start()

    def _consume_soft_modifiers(self) -> None:
        while self._peek().kind == "kw" and self._peek().text in _SOFT_MODIFIERS:
            self._advance()

    def parse_template(self, enclosing: str | None) -> None:
        is_case = False
        if self._at_kw("case"):
            case_tok = self._advance()
            is_case = True
            if not self._at_kw("class", "object"):
                self._error(
                    case_tok, "'case' must be followed by 'class' or 'object'"
                )
                self._skip_member_tail()
                return
        keyword = self._advance().text  # class | trait | object
        name_tok = self._expect_ident()
        if name_tok is None:
            if enclosing is None:
                self._skip_to_template_start()
            else:
                self._skip_member_tail()
            return

        if keyword == "class":
            kind = TemplateKind.CASE_CLASS if is_case else TemplateKind.CLASS
        elif keyword == "object":
            kind = TemplateKind.CASE_OBJECT if is_case else TemplateKind.OBJECT
        else:
            kind = TemplateKind.TRAIT

        name = f"{enclosing}.{name_tok.text}" if enclosing else name_tok.text
        slot = len(self.templates)
        self.templates.append(None)
        if name not in self.positions:
            self.positions[name] = self._position(name_tok)

        type_params: tuple[str, ...] = ()
        if self._at_punct("["):
            if kind in (TemplateKind.OBJECT, TemplateKind.CASE_OBJECT):
                self._error(
                    self._peek(), f"an {keyword} cannot have type parameters"
                )
                self._skip_group("[")
            else:
                type_params = self._parse_type_params()

        fields: list[FieldDecl] = []
        first_list = True
        while self._at_punct("("):
            if kind in (
                TemplateKind.TRAIT,
                TemplateKind.OBJECT,
                TemplateKind.CASE_OBJECT,
            ):
                self._error(
                    self._peek(),
                    f"a {keyword} cannot have constructor parameters",
                )
                self._skip_group("(")
            else:
                self._parse_ctor_params(kind, fields if first_list else None)
            first_list = False

        parents: list[TypeRef] = []
        if self._at_kw("extends"):
            self._advance()
            parent = self._parse_parent_ref()
            if parent is not None:
                parents.append(parent)
            while self._at_kw("with"):
                self._advance()
                parent = self._parse_parent_ref()
                if parent is not None:
                    parents.append(parent)

        abstract_members: set[str] = set()
        if self._at_punct("{"):
            self._parse_body(name, fields, abstract_members)

        try:
            template = TemplateDef(
                name=name,
                kind=kind,
                type_params=type_params,
                abstract_type_members=frozenset(abstract_members),
                parents=tuple(parents),
                fields=tuple(fields),
            )
        except ValueError as exc:
            self._error(name_tok, str(exc))
            del self.templates[slot]
            return
        self.templates[slot] = template

    def _parse_type_params(self) -> tuple[str, ...]:
        self._advance()  # [
        names: list[str] = []
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                self._error(tok, "unexpected end of input, expected ']'")
                break
            if self._at_punct("]"):
                self._advance()
                break
            if self._at_op("+") or self._at_op("-"):
                self._advance()
            name_tok = self._expect_ident()
            if name_tok is not None:
                names.append(name_tok.text)
            # Bounds, context annotations and higher-kinded shapes are
            # skipped up to the next comma or the closing bracket.
            self._skip_type_arg_tail()
            if self._at_punct(","):
                self._advance()
        return tuple(names)

    def _parse_ctor_params(
        self, kind: TemplateKind, fields: list[FieldDecl] | None
    ) -> None:
        self._advance()  # (
        if self._at_punct(")"):
            self._advance()
            return
        while True:
            visibility = self._parse_modifiers()
            explicit_val = False
            explicit_var = False
            if self._at_kw("val"):
                self._advance()
                explicit_val = True
            elif self._at_kw("var"):
                self._advance()
                explicit_var = True

            name_tok = self._expect_ident()
            declared: TypeRef | None = None
            if name_tok is not None:
                if self._at_op(":"):
                    self._advance()
                    declared = self._parse_typeref()
                else:
                    tok = self._peek()
                    self._error(
                        tok, f"expected ':' after parameter name, got "
                        f"{self._describe(tok)}"
                    )
            if declared is None:
                self._skip_param_tail()
            elif self._at_op("="):
                self._advance()
                self._skip_param_tail()

            if fields is not None and name_tok is not None:
                is_field = explicit_val or explicit_var
                if kind is TemplateKind.CASE_CLASS:
                    is_field = True
                if is_field:
                    fields.append(
                        FieldDecl(
                            name=name_tok.text,
                            reassignable=explicit_var,
                            visibility=visibility,
                            declared_type=declared
                            if declared is not None
                            else TypeRef(INFERRED_HEAD),
                        )
                    )

            if self._at_punct(","):
                self._advance()
                continue
            if self._at_punct(")"):
                self._advance()
                return
            tok = self._peek()
            if tok.kind == "eof":
                self._error(tok, "unexpected end of input, expected ')'")
                return
            self._error(
                tok, f"expected ',' or ')', got {self._describe(tok)}"
            )
            self._skip_param_tail()
            if self._at_punct(","):
                self._advance()
                continue
            if self._at_punct(")"):
                self._advance()
            return

    def _parse_modifiers(self) -> Visibility:
        """Consume access and soft modifiers; return the visibility they
        give.  Qualified ``private[p]`` and ``protected`` stay public."""
        visibility = Visibility.PUBLIC
        while True:
            if self._at_kw("private", "protected"):
                private = self._advance().text == "private"
                if self._at_punct("["):
                    self._skip_group("[")
                elif private:
                    visibility = Visibility.PRIVATE
            elif self._peek().kind == "kw" and self._peek().text in _SOFT_MODIFIERS:
                self._advance()
            else:
                return visibility

    def _skip_param_tail(self) -> None:
        """Skip to the next comma or closing paren of a parameter list."""
        parens = brackets = braces = 0
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct":
                if tok.text == "," and parens == brackets == braces == 0:
                    return
                if tok.text == "(":
                    parens += 1
                elif tok.text == ")":
                    if parens == 0:
                        return
                    parens -= 1
                elif tok.text == "[":
                    brackets += 1
                elif tok.text == "]":
                    if brackets == 0:
                        return
                    brackets -= 1
                elif tok.text == "{":
                    braces += 1
                elif tok.text == "}":
                    if braces == 0:
                        return
                    braces -= 1
            self._advance()

    def _parse_typeref(self) -> TypeRef | None:
        name_tok = self._peek()
        if name_tok.kind != "ident":
            self._error(
                name_tok, f"expected a type, got {self._describe(name_tok)}"
            )
            return None
        self._advance()
        parts = [name_tok.text]
        while self._at_punct(".") and self._peek(1).kind == "ident":
            self._advance()
            parts.append(self._advance().text)
        head = ".".join(parts)
        args: list[TypeRef] = []
        if self._at_punct("["):
            self._advance()
            while True:
                arg = self._parse_typeref()
                if arg is not None:
                    args.append(arg)
                else:
                    self._skip_type_arg_tail()
                if self._at_punct(","):
                    self._advance()
                    continue
                if self._at_punct("]"):
                    self._advance()
                    break
                tok = self._peek()
                self._error(
                    tok, f"expected ',' or ']', got {self._describe(tok)}"
                )
                if tok.kind == "eof":
                    break
                self._skip_type_arg_tail()
                if self._at_punct(","):
                    self._advance()
                    continue
                if self._at_punct("]"):
                    self._advance()
                break
        return TypeRef(head, tuple(args))

    def _skip_type_arg_tail(self) -> None:
        depth = 0
        while True:
            tok = self._peek()
            if tok.kind == "eof":
                return
            if tok.kind == "punct":
                if tok.text == "[":
                    depth += 1
                elif tok.text == "]":
                    if depth == 0:
                        return
                    depth -= 1
                elif tok.text == "," and depth == 0:
                    return
            self._advance()

    def _parse_parent_ref(self) -> TypeRef | None:
        ref = self._parse_typeref()
        if ref is None:
            self._skip_member_tail()
            return None
        while self._at_punct("("):
            self._skip_group("(")  # superclass constructor arguments
        return ref

    def _parse_body(
        self, owner: str, fields: list[FieldDecl], abstract_members: set[str]
    ) -> None:
        self._advance()  # {
        while True:
            while self._at_punct(";"):
                self._advance()
            tok = self._peek()
            if tok.kind == "eof":
                self._error(tok, "unexpected end of input, expected '}'")
                return
            if self._at_punct("}"):
                self._advance()
                return

            visibility = self._parse_modifiers()
            if self._at_kw("val", "var"):
                self._parse_field_member(owner, visibility, fields)
            elif self._at_kw("def"):
                self._advance()
                self._skip_member_tail()
            elif self._at_kw("type"):
                self._parse_type_member(abstract_members)
            elif self._at_kw("case", "class", "trait", "object"):
                self.parse_template(owner)
            else:
                tok = self._peek()
                self._error(
                    tok, f"expected a member, got {self._describe(tok)}"
                )
                self._advance()
                self._skip_member_tail()

    def _parse_field_member(
        self, owner: str, visibility: Visibility, fields: list[FieldDecl]
    ) -> None:
        reassignable = self._advance().text == "var"
        name_tok = self._expect_ident()
        if name_tok is None:
            self._skip_member_tail()
            return
        declared: TypeRef | None = None
        if self._at_op(":"):
            self._advance()
            declared = self._parse_typeref()
            if declared is None:
                self._skip_member_tail()
        anon_type: TypeRef | None = None
        if self._at_op("="):
            self._advance()
            if self._at_kw("new"):
                anon_type = self._parse_new_initializer(owner)
            self._skip_member_tail()

        if declared is not None:
            declared_type = declared
        elif anon_type is not None:
            declared_type = anon_type
        else:
            declared_type = TypeRef(INFERRED_HEAD)
        fields.append(
            FieldDecl(
                name=name_tok.text,
                reassignable=reassignable,
                visibility=visibility,
                declared_type=declared_type,
            )
        )

    def _parse_new_initializer(self, owner: str) -> TypeRef | None:
        """Parse ``new T`` at the head of an initializer.  Returns the
        synthesized template's type when a body follows, else None."""
        new_tok = self._advance()  # new
        parent = self._parse_typeref()
        if parent is None:
            return None
        while self._at_punct("("):
            self._skip_group("(")  # constructor arguments
        if not self._at_punct("{"):
            return None

        count = self._anon_counters.get(owner, 0) + 1
        self._anon_counters[owner] = count
        anon_name = f"{owner}$anon${count}"
        slot = len(self.templates)
        self.templates.append(None)
        if anon_name not in self.positions:
            self.positions[anon_name] = self._position(new_tok)

        anon_fields: list[FieldDecl] = []
        anon_abstract: set[str] = set()
        self._parse_body(anon_name, anon_fields, anon_abstract)
        if anon_abstract:
            self._error(
                new_tok,
                f"anonymous class {anon_name!r} cannot declare abstract "
                "type members",
            )
            del self.templates[slot]
            return None
        try:
            template = TemplateDef(
                name=anon_name,
                kind=TemplateKind.ANON_CLASS,
                parents=(parent,),
                fields=tuple(anon_fields),
            )
        except ValueError as exc:
            self._error(new_tok, str(exc))
            del self.templates[slot]
            return None
        self.templates[slot] = template
        return TypeRef(anon_name)

    def _parse_type_member(self, abstract_members: set[str]) -> None:
        self._advance()  # type
        name_tok = self._expect_ident()
        if name_tok is None:
            self._skip_member_tail()
            return
        while self._at_op("<:") or self._at_op(">:"):
            self._advance()
            if self._parse_typeref() is None:
                self._skip_member_tail()
                return
        if self._at_op("="):
            self._error(
                self._peek(),
                f"type aliases are not supported; "
                f"'type {name_tok.text}' must stay abstract",
            )
            self._advance()
            self._skip_member_tail()
            return
        abstract_members.add(name_tok.text)


def parse_source(file: str, text: str) -> ParseResult:
    """Parse one file into template definitions plus diagnostics.

    Recovery keeps going after errors, so both lists can be non-empty;
    the parse succeeded only when diagnostics is empty.
    """
    parser = _Parser(file, text)
    parser.parse_file()
    templates = [t for t in parser.templates if t is not None]
    return ParseResult(templates, parser.diagnostics, parser.positions)


def parse_corpus(files: Iterable[tuple[str, str]]) -> CorpusParse:
    """Parse and merge a corpus in the given file order.

    Duplicate template names across (or within) files are reported at the
    second definition, naming the first.  A graph is built only when no
    diagnostics were produced.
    """
    templates: list[TemplateDef] = []
    diagnostics: list[ParseDiagnostic] = []
    first_seen: dict[str, SourcePosition] = {}
    for path, text in files:
        result = parse_source(path, text)
        diagnostics.extend(result.diagnostics)
        for template in result.templates:
            position = result.positions.get(
                template.name, SourcePosition(path, 1, 1)
            )
            previous = first_seen.get(template.name)
            if previous is not None:
                diagnostics.append(
                    ParseDiagnostic(
                        position,
                        f"duplicate template name {template.name!r} "
                        f"(first defined at {previous})",
                    )
                )
                continue
            first_seen[template.name] = position
            templates.append(template)
    if diagnostics:
        return CorpusParse(None, diagnostics)
    return CorpusParse(build_graph(templates), [])
