"""Recursive-descent frontend for the analyzed language subset.

The grammar covers what the classification consumes: class, trait and
object definitions (plus case variants), constructor parameters, extends
clauses, val/var members, abstract type members and nested templates.
Method bodies and initializer expressions are skipped, with one
exception: a ``new Parent { members }`` initializer synthesizes an
anonymous-class template.

Errors are collected as positioned diagnostics and parsing continues
wherever recovery is possible, so one run reports as much as it can.
One gate keeps the first diagnostic reported at a position and drops any
later one there: at most one per position, listed in source order.
Skips match brackets on one stack and report a closer that does not
match, so a clean parse has brackets that nest outside literals and comments.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Generator, Iterable, NamedTuple

from .ir import (
    FieldDecl,
    INFERRED_HEAD,
    MAX_TEMPLATE_NESTING,
    MAX_TYPE_DEPTH,
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


class SourcePosition(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseDiagnostic(NamedTuple):
    position: SourcePosition
    message: str

    def __str__(self) -> str:
        return f"{self.position}: {self.message}"


class ParseResult(NamedTuple):
    """Everything one file parses to.  ``positions[i]`` is where
    ``templates[i]`` was defined, for duplicate-name reporting."""

    templates: list[TemplateDef]
    diagnostics: list[ParseDiagnostic]
    positions: list[SourcePosition]


class CorpusParse(NamedTuple):
    """Merged parse of a whole corpus.  ``graph`` is None exactly when
    diagnostics were emitted."""

    graph: TemplateGraph | None
    diagnostics: list[ParseDiagnostic]


# ---- lexer ----------------------------------------------------------------

#: Keywords that begin a template definition.
_TEMPLATE_START = frozenset({"case", "class", "trait", "object"})

#: Modifier keywords that carry no meaning for the analysis and are
#: consumed silently wherever a member or template may start.
_SOFT_MODIFIERS = frozenset(
    {"lazy", "final", "sealed", "abstract", "implicit", "override"}
)

#: Keywords that can begin a member; expression skipping stops at these.
_MEMBER_START = _TEMPLATE_START | _SOFT_MODIFIERS | {
    "val", "var", "def", "type", "private", "protected"
}
_KEYWORDS = _MEMBER_START | {"extends", "with", "new"}

#: Where top-level recovery stops.
_DEFINITION_START = _TEMPLATE_START | _SOFT_MODIFIERS

#: What ends a skipped tail at bracket depth 0: an opaque member tail
#: (the semicolon is consumed too), and a parameter's type or default or
#: a type argument.
_MEMBER_TAIL_STOPS = _MEMBER_START | {";"}
_PARAM_TAIL_STOPS = frozenset({","})

_OPENER = {")": "(", "]": "[", "}": "{"}
_CLOSER = {"(": ")", "[": "]", "{": "}"}

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

#: What the structural skip steps over in one match: runs of plain ASCII
#: word, whitespace and ,.; characters, whole operator runs and line comments.
#: Each alternative starts where a token starts and runs are maximal, so a
#: slash opens a comment here exactly where it does in ``_TOKEN``.  It can
#: match empty and nothing follows it, so greedy matching never backtracks.
_PLAIN = re.compile(
    r"(?:[\w$ \t\r\n,.;]+"
    r"|(?:[-!#%&*+:<=>?@\\^|~]|/(?![/*]))[-!#%&*+/:<=>?@\\^|~]*"
    r"|//[^\n]*)*",
    re.ASCII,
)


#: ``(kind, text, offset)``.  The kind of a keyword, punctuation mark or
#: operator is its text; any other kind is ident, lit or eof.  A plain
#: tuple: the cyclic collector untracks it, never a NamedTuple instance.
_Token = tuple[str, str, int]


def _locator(file: str, text: str) -> Callable[[int], SourcePosition]:
    """Return the one map from an offset in ``text`` to its position: the
    line by bisection over the newline offsets, the column in characters."""
    breaks = [-1, *(m.start() for m in re.finditer("\n", text))]

    def locate(offset: int) -> SourcePosition:
        line = bisect_left(breaks, offset)
        return SourcePosition(file, line, offset - breaks[line - 1])

    return locate


def _comment_end(text: str, start: int) -> int | None:
    """Return the offset past the block comment opening at ``start``
    (comments nest), or None when it is not closed."""
    depth = 0
    for mark in _COMMENT_MARK.finditer(text, start):
        depth += 1 if mark.group() == "/*" else -1
        if depth == 0:
            return mark.end()
    return None


def _tokens(
    text: str, report: Callable[[int, str], object]
) -> Generator[_Token, int | None, None]:
    """Lex ``text`` one token per ``next``, calling ``report(offset,
    message)`` on each lexical error; after the end of input, eof repeats.
    ``send(offset)`` lexes on from ``offset``, where a token must start."""
    pos = 0
    while True:  # restart at pos after a block comment, a numeral or a send
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastgroup
            start = m.start(kind)
            word = m.group(kind)
            if kind == "ident":
                if word in _KEYWORDS:
                    kind = word
                elif not (word[0].isalpha() or word[0] in "_$"):
                    # \w also admits numerals that are not letters.  A digit
                    # such as ² starts a literal; any other, such as Ⅻ, is
                    # an unexpected character, and so is each one after it.
                    if word[0].isdigit():
                        pos = _LITERAL.match(text, start).end()
                        sent = yield ("lit", text[start:pos], start)
                        pos = pos if sent is None else sent
                    else:
                        pos = start
                        for c in word:
                            if c.isalpha() or c in "_$" or c.isdigit():
                                break
                            report(pos, f"unexpected character {c!r}")
                            pos += 1
                    break
            elif kind == "punct" or kind == "op":
                kind = word
            elif kind == "string":
                if m.group("closed") is None and m.group("closed3") is None:
                    report(start, "unterminated string literal")
                kind, word = "lit", '"..."'
            elif kind == "char":
                kind, word = "lit", "'...'"
            elif kind == "comment":
                pos = _comment_end(text, start)
                if pos is None:
                    report(start, "unterminated comment")
                    pos = len(text)
                break
            elif kind == "bad":
                report(start, f"unexpected character {word!r}")
                continue
            elif kind == "end":
                kind, pos = "eof", start
            sent = yield (kind, word, start)
            if sent is not None:
                pos = sent
                break


def _group_end(text: str, start: int, unclosed: set[int]) -> int | None:
    """Return the offset past the closer of the group opening at ``start``,
    found by one scan that builds no tokens.

    Return None, and add to ``unclosed`` each opener still open where the
    scan stopped (a scan from any of them stops there too), when lexing
    the group could report an error or a closer does not match: at a
    non-ASCII character outside a literal, a character ``_TOKEN`` calls
    bad, an unterminated string or comment, or the end of input.
    """
    stack = [start]
    pos = start + 1
    plain = _PLAIN.match
    while True:
        pos = plain(text, pos).end()
        c = text[pos : pos + 1]
        if c in _CLOSER:
            stack.append(pos)
        elif c in _OPENER:
            if text[stack[-1]] != _OPENER[c]:
                break
            stack.pop()
            if not stack:
                return pos + 1
        elif c == '"' or c == "'":
            m = _TOKEN.match(text, pos)
            if c == '"' and not (m.group("closed") or m.group("closed3")):
                break
            pos = m.end()
            continue
        elif c == "/":  # _PLAIN stops at a slash only where /* starts
            end = _comment_end(text, pos)
            if end is None:
                break
            pos = end
            continue
        else:
            break
        pos += 1
    unclosed.update(stack)
    return None


# ---- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, file: str, text: str) -> None:
        self._text = text
        self._locate = _locator(file, text)
        # Offset to message, filled only by setdefault: the one gate that
        # keeps the first diagnostic at an offset and drops later ones.
        self.reported: dict[int, str] = {}
        # The lexer holds no reference to the parser, so no cycle forms.
        self._lexer = _tokens(text, self.reported.setdefault)
        self._next = self._lexer.__next__
        self.tok: _Token = self._next()  # the current token
        self._unclosed: set[int] = set()  # openers _group_end gave up on
        # One slot per template in source order, None until it parses
        # (and for good if it does not); ``positions`` runs in parallel.
        self.templates: list[TemplateDef | None] = []
        self.positions: list[SourcePosition] = []
        self._anon_counters: dict[str, int] = {}
        self._nesting = 0  # template bodies open around the current token

    # -- token plumbing --

    def _advance(self) -> _Token:
        tok = self.tok
        self.tok = self._next()
        return tok

    def _error(self, tok: _Token, message: str) -> None:
        self.reported.setdefault(tok[2], message)

    def _describe(self, tok: _Token) -> str:
        return "end of input" if tok[0] == "eof" else repr(tok[1])

    def _expect_ident(self) -> _Token | None:
        tok = self.tok
        if tok[0] == "ident":
            return self._advance()
        self._error(tok, f"expected identifier, got {self._describe(tok)}")
        return None

    def _reserve(self, tok: _Token) -> int:
        """Append an empty template slot positioned at ``tok``; return it."""
        self.templates.append(None)
        self.positions.append(self._locate(tok[2]))
        return len(self.templates) - 1

    def _define(self, slot: int, tok: _Token, *fields: object) -> bool:
        """Fill ``slot`` with ``TemplateDef(*fields)`` or report at ``tok``."""
        try:
            self.templates[slot] = TemplateDef(*fields)
        except ValueError as exc:
            self._error(tok, str(exc))
        return self.templates[slot] is not None

    # -- recovery --

    def _pass_group(self) -> bool:
        """Pass the group the current opener starts in one structural scan,
        unless lexing it token by token could report an error.  A group
        that closes at once, such as ``()``, is cheaper to lex."""
        start, text = self.tok[2], self._text
        if start in self._unclosed or text[start + 1 : start + 2] in _OPENER:
            return False
        end = _group_end(text, start, self._unclosed)
        if end is None:
            return False
        self.tok = self._lexer.send(end)
        return True

    def _skip_group(self) -> None:
        """Consume the group the current opener starts.  A closer that does
        not match it is reported and left, as is the end of input."""
        if self._pass_group():
            return
        close_char = _CLOSER[self._advance()[0]]
        self._skip_until(frozenset())
        tok = self.tok
        if tok[0] == close_char:
            self._advance()
        elif tok[0] == "eof":
            self._error(tok, f"unexpected end of input, expected {close_char!r}")
        else:
            self._error(tok, f"expected {close_char!r}, got {tok[1]!r}")

    def _skip_until(self, stops: frozenset[str]) -> None:
        """Skip tokens up to a keyword or punctuation mark in ``stops`` with
        no bracket open, a closer that matches no open bracket, or eof.

        One stack holds the open brackets, so a clean parse nests.  A closer
        that does not match the innermost is reported and closes down to
        its match, found innermost first to keep the skip linear.  A group
        the structural scan passes nests, so one step passes it.
        """
        opened: list[str] = []  # the closers awaited, innermost last
        tok, pull = self.tok, self._next
        while True:
            kind = tok[0]
            if kind == "eof" or (kind in stops and not opened):
                return
            if kind in _CLOSER:
                if self._pass_group():
                    tok = self.tok
                    continue
                opened.append(_CLOSER[kind])
            elif kind in _OPENER:
                if opened and opened[-1] != kind:
                    self._error(tok, f"expected {opened[-1]!r}, got {kind!r}")
                i = len(opened)
                while i and opened[i - 1] != kind:
                    i -= 1
                if not i:
                    return
                del opened[i - 1 :]
            tok = self.tok = pull()

    def _skip_member_tail(self) -> None:
        """Skip an opaque expression or definition tail.

        Stops before a token that can begin the next member or before an
        unbalanced closing bracket, or after a semicolon.
        """
        self._skip_until(_MEMBER_TAIL_STOPS)
        if self.tok[0] == ";":
            self._advance()

    def _skip_to_template_start(self) -> None:
        """Top-level recovery: advance to the next plausible definition."""
        while self.tok[0] != "eof" and self.tok[0] not in _DEFINITION_START:
            self._advance()

    # -- grammar --

    def parse_file(self) -> None:
        while True:
            while self.tok[0] == ";":
                self._advance()
            if self.tok[0] == "eof":
                return
            self._consume_soft_modifiers()
            if self.tok[0] in _TEMPLATE_START:
                self.parse_template(None)
            else:
                tok = self.tok
                self._error(
                    tok,
                    f"expected a class, trait or object definition, got "
                    f"{self._describe(tok)}",
                )
                self._advance()
                self._skip_to_template_start()

    def _consume_soft_modifiers(self) -> None:
        while self.tok[0] in _SOFT_MODIFIERS:
            self._advance()

    def parse_template(self, enclosing: str | None) -> None:
        is_case = False
        if self.tok[0] == "case":
            case_tok = self._advance()
            is_case = True
            if self.tok[0] not in ("class", "object"):
                self._error(
                    case_tok, "'case' must be followed by 'class' or 'object'"
                )
                self._skip_member_tail()
                return
        keyword = self._advance()[1]  # class | trait | object
        name_tok = self._expect_ident()
        if name_tok is None:
            if enclosing is None:
                self._skip_to_template_start()
            else:
                self._skip_member_tail()
            return

        kind = TemplateKind(f"case_{keyword}" if is_case else keyword)
        name = f"{enclosing}.{name_tok[1]}" if enclosing else name_tok[1]
        slot = self._reserve(name_tok)

        type_params: tuple[str, ...] = ()
        if self.tok[0] == "[":
            if keyword == "object":
                self._error(
                    self.tok, f"an {keyword} cannot have type parameters"
                )
                self._skip_group()
            else:
                type_params = self._parse_type_params()

        fields: list[FieldDecl] = []
        first_list = True
        while self.tok[0] == "(":
            if keyword != "class":
                self._error(
                    self.tok, f"a {keyword} cannot have constructor parameters"
                )
                self._skip_group()
            else:
                self._parse_ctor_params(kind, fields, first_list)
            first_list = False

        parents: list[TypeRef] = []
        if self.tok[0] == "extends":
            self._advance()
            parent = self._parse_parent_ref()
            if parent is not None:
                parents.append(parent)
            while self.tok[0] == "with":
                self._advance()
                parent = self._parse_parent_ref()
                if parent is not None:
                    parents.append(parent)

        abstract_members: set[str] = set()
        if self.tok[0] == "{":
            self._parse_body(name, fields, abstract_members)

        self._define(
            slot, name_tok, name, kind, type_params,
            frozenset(abstract_members), tuple(parents), tuple(fields),
        )

    def _parse_type_params(self) -> tuple[str, ...]:
        self._advance()  # [
        names: list[str] = []
        while True:
            tok = self.tok
            if tok[0] == "eof":
                self._error(tok, "unexpected end of input, expected ']'")
                break
            if tok[0] == "]":
                self._advance()
                break
            if tok[0] in ("+", "-"):
                self._advance()
            name_tok = self._expect_ident()
            if name_tok is not None:
                names.append(name_tok[1])
            # Bounds, context annotations and higher-kinded shapes are
            # skipped up to the next comma or the closing bracket, nested
            # brackets matched; a stray ) or } is reported and ends the list.
            self._skip_until(_PARAM_TAIL_STOPS)
            tok = self.tok
            if tok[0] == ",":
                self._advance()
            elif tok[0] in (")", "}"):
                self._error(tok, f"expected ',' or ']', got {tok[1]!r}")
                break
        return tuple(names)

    def _parse_ctor_params(
        self, kind: TemplateKind, fields: list[FieldDecl], first_list: bool
    ) -> None:
        self._advance()  # (
        # A val or var parameter is a field in any list, a bare case-class
        # parameter only in the first.
        bare_is_field = first_list and kind is TemplateKind.CASE_CLASS
        if self.tok[0] == ")":
            self._advance()
            return
        while True:
            visibility = self._parse_modifiers()
            binder = self.tok[0] if self.tok[0] in ("val", "var") else None
            if binder is not None:
                self._advance()

            name_tok = self._expect_ident()
            declared: TypeRef | None = None
            if name_tok is not None:
                if self.tok[0] == ":":
                    self._advance()
                    declared = self._parse_typeref()
                else:
                    tok = self.tok
                    self._error(
                        tok, f"expected ':' after parameter name, got "
                        f"{self._describe(tok)}"
                    )
            if declared is None:
                self._skip_until(_PARAM_TAIL_STOPS)
            elif self.tok[0] == "=":
                self._advance()
                self._skip_until(_PARAM_TAIL_STOPS)

            if name_tok is not None and (binder is not None or bare_is_field):
                fields.append(
                    FieldDecl(
                        name=name_tok[1],
                        reassignable=binder == "var",
                        visibility=visibility,
                        declared_type=declared
                        if declared is not None
                        else TypeRef(INFERRED_HEAD),
                    )
                )

            tok = self.tok
            if tok[0] not in (",", ")"):
                if tok[0] == "eof":
                    self._error(tok, "unexpected end of input, expected ')'")
                    return
                self._error(
                    tok, f"expected ',' or ')', got {self._describe(tok)}"
                )
                self._skip_until(_PARAM_TAIL_STOPS)
            if self.tok[0] == ",":
                self._advance()
                continue
            if self.tok[0] == ")":
                self._advance()
            return

    def _parse_modifiers(self) -> Visibility:
        """Consume access and soft modifiers; return the visibility they
        give.  Qualified ``private[p]`` and ``protected`` stay public."""
        visibility = Visibility.PUBLIC
        while True:
            if self.tok[0] in ("private", "protected"):
                private = self._advance()[1] == "private"
                if self.tok[0] == "[":
                    self._skip_group()
                elif private:
                    visibility = Visibility.PRIVATE
            elif self.tok[0] in _SOFT_MODIFIERS:
                self._advance()
            else:
                return visibility

    def _parse_typeref(self, depth: int = 1) -> TypeRef | None:
        name_tok = self.tok
        if depth > MAX_TYPE_DEPTH:
            self._error(name_tok, f"nesting too deep: over {MAX_TYPE_DEPTH} type levels")
            return None
        if name_tok[0] != "ident":
            self._error(
                name_tok, f"expected a type, got {self._describe(name_tok)}"
            )
            return None
        self._advance()
        parts = [name_tok[1]]
        while self.tok[0] == ".":
            dot = self._advance()
            if self.tok[0] != "ident":  # not a qualified head: back to the dot
                self.tok = self._lexer.send(dot[2])
                break
            parts.append(self._advance()[1])
        head = ".".join(parts)
        args: list[TypeRef] = []
        if self.tok[0] == "[":
            self._advance()
            while True:
                arg = self._parse_typeref(depth + 1)
                if arg is not None:
                    args.append(arg)
                else:
                    self._skip_until(_PARAM_TAIL_STOPS)
                tok = self.tok
                if tok[0] not in (",", "]"):
                    self._error(
                        tok, f"expected ',' or ']', got {self._describe(tok)}"
                    )
                    self._skip_until(_PARAM_TAIL_STOPS)
                if self.tok[0] == ",":
                    self._advance()
                    continue
                if self.tok[0] == "]":
                    self._advance()
                break
        return TypeRef(head, tuple(args))

    def _parse_parent_ref(self) -> TypeRef | None:
        ref = self._parse_typeref()
        if ref is None:
            self._skip_member_tail()
            return None
        while self.tok[0] == "(":
            self._skip_group()  # superclass constructor arguments
        return ref

    def _parse_body(
        self, owner: str, fields: list[FieldDecl], abstract_members: set[str]
    ) -> None:
        if self._nesting == MAX_TEMPLATE_NESTING:
            limit = f"over {MAX_TEMPLATE_NESTING} template bodies"
            self._error(self.tok, f"nesting too deep: {limit}")
            self._skip_group()
            return
        self._nesting += 1
        self._advance()  # {
        while True:
            while self.tok[0] == ";":
                self._advance()
            tok = self.tok
            if tok[0] == "eof":
                self._error(tok, "unexpected end of input, expected '}'")
                break
            if tok[0] == "}":
                self._advance()
                break

            visibility = self._parse_modifiers()
            if self.tok[0] in ("val", "var"):
                self._parse_field_member(owner, visibility, fields)
            elif self.tok[0] == "def":
                self._advance()
                self._skip_member_tail()
            elif self.tok[0] == "type":
                self._parse_type_member(abstract_members)
            elif self.tok[0] in _TEMPLATE_START:
                self.parse_template(owner)
            else:
                tok = self.tok
                self._error(
                    tok, f"expected a member, got {self._describe(tok)}"
                )
                self._advance()
                self._skip_member_tail()
        self._nesting -= 1

    def _parse_field_member(
        self, owner: str, visibility: Visibility, fields: list[FieldDecl]
    ) -> None:
        reassignable = self._advance()[1] == "var"
        name_tok = self._expect_ident()
        if name_tok is None:
            self._skip_member_tail()
            return
        declared: TypeRef | None = None
        if self.tok[0] == ":":
            self._advance()
            declared = self._parse_typeref()
            if declared is None:
                self._skip_member_tail()
        anon_type: TypeRef | None = None
        if self.tok[0] == "=":
            self._advance()
            if self.tok[0] == "new":
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
                name=name_tok[1],
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
        while self.tok[0] == "(":
            self._skip_group()  # constructor arguments
        if self.tok[0] != "{":
            return None

        count = self._anon_counters.get(owner, 0) + 1
        self._anon_counters[owner] = count
        anon_name = f"{owner}$anon${count}"
        slot = self._reserve(new_tok)

        anon_fields: list[FieldDecl] = []
        anon_abstract: set[str] = set()
        self._parse_body(anon_name, anon_fields, anon_abstract)
        if anon_abstract:
            self._error(
                new_tok,
                f"anonymous class {anon_name!r} cannot declare abstract "
                "type members",
            )
            return None
        defined = self._define(
            slot, new_tok, anon_name, TemplateKind.ANON_CLASS, (), frozenset(),
            (parent,), tuple(anon_fields),
        )
        return TypeRef(anon_name) if defined else None

    def _parse_type_member(self, abstract_members: set[str]) -> None:
        self._advance()  # type
        name_tok = self._expect_ident()
        if name_tok is None:
            self._skip_member_tail()
            return
        while self.tok[0] in ("<:", ">:"):
            self._advance()
            if self._parse_typeref() is None:
                self._skip_member_tail()
                return
        if self.tok[0] == "=":
            self._error(
                self.tok,
                f"type aliases are not supported; "
                f"'type {name_tok[1]}' must stay abstract",
            )
            self._advance()
            self._skip_member_tail()
            return
        if name_tok[1] in abstract_members:
            self._error(name_tok, f"duplicate abstract type {name_tok[1]!r}")
        abstract_members.add(name_tok[1])


def parse_source(file: str, text: str) -> ParseResult:
    """Parse one file into template definitions plus diagnostics.

    Recovery keeps going after errors, so both lists can be non-empty;
    the parse succeeded only when diagnostics is empty.  There is at most
    one diagnostic per position, the first reported there, and they are
    listed in source order, lexical and grammar ones interleaved.
    """
    parser = _Parser(file, text)
    parser.parse_file()
    parsed = [
        (template, position)
        for template, position in zip(parser.templates, parser.positions)
        if template is not None
    ]
    diagnostics = [
        ParseDiagnostic(parser._locate(offset), message)
        for offset, message in sorted(parser.reported.items())
    ]
    return ParseResult(
        [template for template, _ in parsed],
        diagnostics,
        [position for _, position in parsed],
    )


def parse_corpus(files: Iterable[tuple[str, str]]) -> CorpusParse:
    """Parse and merge a corpus in the given file order.

    Duplicate template names across (or within) files are reported at the
    second definition, naming the first, in source order among the file's
    other diagnostics.  A graph is built only when no diagnostics were
    produced.
    """
    templates: list[TemplateDef] = []
    diagnostics: list[ParseDiagnostic] = []
    first_seen: dict[str, SourcePosition] = {}
    for path, text in files:
        result = parse_source(path, text)
        found = result.diagnostics
        for template, position in zip(result.templates, result.positions):
            previous = first_seen.get(template.name)
            if previous is not None:
                found.append(
                    ParseDiagnostic(
                        position,
                        f"duplicate template name {template.name!r} "
                        f"(first defined at {previous})",
                    )
                )
                continue
            first_seen[template.name] = position
            templates.append(template)
        diagnostics += sorted(found)  # one file: by line, then column
    if diagnostics:
        return CorpusParse(None, diagnostics)
    return CorpusParse(build_graph(templates), [])
