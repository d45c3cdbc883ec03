"""Frontend parsing: lexing, grammar, desugaring, synthesis, recovery."""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalimm.classify import classify_corpus
from scalimm.ir import (
    INFERRED_HEAD,
    TemplateKind,
    TypeRef,
    Visibility,
    build_graph,
    load_ir,
    serialize_ir,
)
from scalimm.parser import (
    _MEMBER_TAIL_STOPS,
    _PARAM_TAIL_STOPS,
    _Parser,
    _group_end,
    _tokens,
    parse_corpus,
    parse_source,
)


def parse_ok(text):
    result = parse_source("test.scala", text)
    assert result.diagnostics == [], [str(d) for d in result.diagnostics]
    return result.templates


def by_name(templates):
    return {t.name: t for t in templates}


# ---- basic templates ------------------------------------------------------


def test_class_with_val_constructor_parameter():
    (c,) = parse_ok("class C(val x: Int)")
    assert c.name == "C"
    assert c.kind is TemplateKind.CLASS
    (x,) = c.fields
    assert x.name == "x"
    assert not x.reassignable
    assert x.visibility is Visibility.PUBLIC
    assert x.declared_type == TypeRef("Int")


def test_case_class_desugars_plain_parameters_to_public_vals():
    (p,) = parse_ok("case class P[T](v: T)")
    assert p.kind is TemplateKind.CASE_CLASS
    assert p.type_params == ("T",)
    (v,) = p.fields
    assert (v.name, v.reassignable, v.visibility) == ("v", False, Visibility.PUBLIC)
    assert v.declared_type == TypeRef("T")


def test_case_class_keeps_var_and_explicit_private():
    (p,) = parse_ok("case class P(var a: Int, private val b: Str, c: Bool)")
    fields = {f.name: f for f in p.fields}
    assert fields["a"].reassignable
    assert fields["a"].visibility is Visibility.PUBLIC
    assert not fields["b"].reassignable
    assert fields["b"].visibility is Visibility.PRIVATE
    assert fields["c"].visibility is Visibility.PUBLIC
    assert len(p.fields) == 3


def test_plain_class_drops_bare_constructor_parameters():
    (c,) = parse_ok("class C(x: Int, val y: Str, private var z: Bool)")
    assert [f.name for f in c.fields] == ["y", "z"]
    assert c.fields[1].visibility is Visibility.PRIVATE
    assert c.fields[1].reassignable


def test_every_kind_is_constructible_from_surface_syntax():
    templates = parse_ok(
        "class A\n"
        "case class B(x: Int)\n"
        "trait T\n"
        "object O\n"
        "case object K\n"
        "class W { val h = new A { } }\n"
    )
    kinds = {t.name: t.kind for t in templates}
    assert kinds == {
        "A": TemplateKind.CLASS,
        "B": TemplateKind.CASE_CLASS,
        "T": TemplateKind.TRAIT,
        "O": TemplateKind.OBJECT,
        "K": TemplateKind.CASE_OBJECT,
        "W": TemplateKind.CLASS,
        "W$anon$1": TemplateKind.ANON_CLASS,
    }


def test_extends_with_chain_and_constructor_arguments():
    (c,) = parse_ok("class C extends Base(1, two) with Mix[Int] with Other")
    assert c.parents == (
        TypeRef("Base"),
        TypeRef("Mix", (TypeRef("Int"),)),
        TypeRef("Other"),
    )


def test_variance_and_bounds_are_parsed_and_ignored():
    (f,) = parse_ok("class F[+A <: Ord[A], -B >: Low, C]")
    assert f.type_params == ("A", "B", "C")


@pytest.mark.parametrize(
    "text, params",
    [
        ("class A[T <: (Int, Int)](val x: Int)", ("T",)),
        ("class B[F <: (Int, Int) => Int, G]", ("F", "G")),
        ("class C[T <: { def f(a: Int, b: Int): Int }, U]", ("T", "U")),
    ],
)
def test_a_comma_inside_a_bound_adds_no_type_parameter(text, params):
    (t,) = parse_ok(text)
    assert t.type_params == params


def test_a_stray_closer_in_a_type_parameter_list_is_reported():
    result = parse_source("f", "class D[T), U}, V]")
    assert [str(d) for d in result.diagnostics] == [
        "f:1:10: expected ',' or ']', got ')'"
    ]
    (t,) = result.templates
    assert t.type_params == ("T",)


def test_qualified_heads_and_nested_type_arguments():
    (c,) = parse_ok("class C { val m: col.Map[Key, col.List[Val]] }")
    assert c.fields[0].declared_type == TypeRef(
        "col.Map", (TypeRef("Key"), TypeRef("col.List", (TypeRef("Val"),)))
    )


# ---- members --------------------------------------------------------------


def test_member_vals_vars_and_visibility():
    (c,) = parse_ok(
        "class C {\n"
        "  val a: Int = 1\n"
        "  private var b: Str = noise(1, 2)\n"
        "  protected val c: Bool = true\n"
        "  private[pkg] var d: Int = 0\n"
        "  lazy val e: Int = compute()\n"
        "}"
    )
    fields = {f.name: f for f in c.fields}
    assert not fields["a"].reassignable
    assert fields["b"].visibility is Visibility.PRIVATE
    assert fields["b"].reassignable
    assert fields["c"].visibility is Visibility.PUBLIC
    assert fields["d"].visibility is Visibility.PUBLIC
    assert not fields["e"].reassignable


def test_untyped_member_with_opaque_initializer_gets_inferred_head():
    (c,) = parse_ok("class C { val h = compute(1).map(f) }")
    assert c.fields[0].declared_type == TypeRef(INFERRED_HEAD)


def test_plain_new_without_body_is_opaque():
    templates = parse_ok("class C { val h = new P }")
    assert len(templates) == 1
    assert templates[0].fields[0].declared_type == TypeRef(INFERRED_HEAD)


def test_annotated_member_keeps_annotation_over_initializer():
    (c, anon) = parse_ok("class C { val h: Iface = new Impl { var x: Int = 0 } }")
    assert c.fields[0].declared_type == TypeRef("Iface")
    assert anon.name == "C$anon$1"
    assert anon.parents == (TypeRef("Impl"),)


def test_defs_are_skipped_entirely():
    (c,) = parse_ok(
        "class C {\n"
        "  def f(x: Int): Int = x match { case 1 => 2 }\n"
        "  def g = new P { }\n"
        "  def h { update(); rebuild() }\n"
        "  val keeper: Int = 1\n"
        "}"
    )
    assert [f.name for f in c.fields] == ["keeper"]


def test_abstract_type_members_are_collected():
    (t,) = parse_ok("trait T { type State; type Ord <: Ordering[State] }")
    assert t.abstract_type_members == {"State", "Ord"}
    assert t.has_abstract_types


def test_type_alias_is_a_diagnostic():
    result = parse_source("a.scala", "trait T { type Alias = Other }")
    assert any("alias" in d.message for d in result.diagnostics)


def test_comments_strings_and_semicolons():
    (c,) = parse_ok(
        "// header\n"
        "/* block /* nested */ still comment */\n"
        'class C { val s: Str = "a { not a brace"; var t: Int = 0 }\n'
    )
    assert [f.name for f in c.fields] == ["s", "t"]
    assert c.fields[1].reassignable


# ---- anonymous classes ----------------------------------------------------


def test_anonymous_class_synthesis_from_initializer():
    templates = parse_ok("class W { val h = new P { var y: Int = 0 } }")
    w, anon = by_name(templates)["W"], by_name(templates)["W$anon$1"]
    assert w.fields[0].declared_type == TypeRef("W$anon$1")
    assert anon.kind is TemplateKind.ANON_CLASS
    assert anon.parents == (TypeRef("P"),)
    (y,) = anon.fields
    assert y.name == "y" and y.reassignable and y.visibility is Visibility.PUBLIC


def test_anonymous_names_number_per_enclosing_template():
    templates = parse_ok(
        "class W {\n"
        "  val a = new P { }\n"
        "  val b = new Q(1) { var z: Int = 0 }\n"
        "}\n"
        "class V { val c = new P { } }\n"
    )
    names = [t.name for t in templates]
    assert names == ["W", "W$anon$1", "W$anon$2", "V", "V$anon$1"]
    assert by_name(templates)["W$anon$2"].parents == (TypeRef("Q"),)


def test_anonymous_class_with_generic_parent():
    templates = parse_ok("class W { val h = new P[Int] { } }")
    anon = by_name(templates)["W$anon$1"]
    assert anon.parents == (TypeRef("P", (TypeRef("Int"),)),)


def test_nested_anonymous_classes():
    templates = parse_ok("class W { val a = new P { val b = new Q { } } }")
    names = [t.name for t in templates]
    assert names == ["W", "W$anon$1", "W$anon$1$anon$1"]


# ---- nested templates -----------------------------------------------------


def test_nested_templates_get_dotted_names():
    templates = parse_ok(
        "class Outer {\n"
        "  val x: Int = 1\n"
        "  class Inner { val y: Int = 2 }\n"
        "  object Companion\n"
        "}"
    )
    names = [t.name for t in templates]
    assert names == ["Outer", "Outer.Inner", "Outer.Companion"]
    assert by_name(templates)["Outer.Inner"].fields[0].name == "y"


def test_parse_is_deterministic():
    text = "class A { val x = new B { } }\ncase class B(v: Int)\n"
    first = parse_source("f.scala", text)
    second = parse_source("f.scala", text)
    assert first.templates == second.templates
    assert first.positions == second.positions


# ---- diagnostics and recovery ---------------------------------------------


def test_missing_name_reports_expected_identifier():
    result = parse_source("bad.scala", "class {")
    assert result.templates == []
    (diagnostic,) = [
        d for d in result.diagnostics if "expected identifier" in d.message
    ]
    assert diagnostic.position.line == 1
    assert diagnostic.position.column == 7
    assert str(diagnostic).startswith("bad.scala:1:7:")


def test_object_type_parameters_are_a_diagnostic():
    result = parse_source("a.scala", "object O[T] { val x: Int = 1 }")
    assert any("type parameters" in d.message for d in result.diagnostics)


def test_trait_constructor_parameters_are_a_diagnostic():
    result = parse_source("a.scala", "trait T(x: Int)")
    assert any("constructor parameters" in d.message for d in result.diagnostics)


def test_recovery_collects_multiple_diagnostics():
    result = parse_source(
        "multi.scala",
        "class (oops)\n"
        "class Ok { val x: Int = 1 }\n"
        "object O[T]\n",
    )
    assert len(result.diagnostics) >= 2
    # Recovery still parsed the healthy definition in between.
    names = [t.name for t in result.templates]
    assert "Ok" in names


def test_duplicate_fields_in_source_become_a_diagnostic():
    result = parse_source("dup.scala", "class C(val x: Int) { val x: Str = s }")
    assert any("duplicate field" in d.message for d in result.diagnostics)


def test_repeated_type_parameter_is_reported_at_the_template_name():
    result = parse_source("f", "class A[T, T] { val x: T }")
    assert [str(d) for d in result.diagnostics] == [
        "f:1:7: template 'A': duplicate type parameter 'T'"
    ]
    assert result.templates == []


def test_unbalanced_body_reports_missing_brace():
    result = parse_source("open.scala", "class C { val x: Int = 1")
    assert any("expected '}'" in d.message for d in result.diagnostics)


#: Source text, its exact diagnostics, and the templates that survive
#: recovery with their field names: one case per grammar branch that skips
#: a modifier, an empty or defaulted parameter list, or bad input.
RECOVERY_CASES = {
    "modifier": ("final class A", [], {"A": []}),
    "empty-parameters": ("class A()", [], {"A": []}),
    "default-argument": ("class A(val x: Int = 1)", [], {"A": ["x"]}),
    "parameter-separator": (
        "class A(val x: Int; val y: Int)",
        ["f:1:19: expected ',' or ')', got ';'"],
        {"A": ["x"]},
    ),
    "parameters-unclosed": (
        "class A(val x: Int",
        ["f:1:19: unexpected end of input, expected ')'"],
        {"A": ["x"]},
    ),
    "type-argument-separator": (
        "class A { val x: P[Int Int] }",
        ["f:1:24: expected ',' or ']', got 'Int'"],
        {"A": ["x"]},
    ),
    "type-argument-not-a-type": (
        "class A { val x: P[(A, B)] }",
        ["f:1:20: expected a type, got '('"],
        {"A": ["x"]},
    ),
    # A bad argument that is an unbalanced closer or end of input is
    # reported once, not again as a missing separator.
    "type-argument-unbalanced-paren": (
        "class C(a: P[) val]) extends D",
        [
            "f:1:14: expected a type, got ')'",
            "f:1:16: expected a class, trait or object definition, got 'val'",
        ],
        {"C": []},
    ),
    "type-argument-unbalanced-brace": (
        "class C { val x: P[}", ["f:1:20: expected a type, got '}'"], {"C": ["x"]}
    ),
    "type-argument-after-comma-unbalanced": (
        "class C { val x: P[A, )",
        [
            "f:1:23: expected a type, got ')'",
            "f:1:24: unexpected end of input, expected '}'",
        ],
        {"C": ["x"]},
    ),
    "type-argument-at-end-of-input": (
        "class C { val x: P[A,",
        ["f:1:22: expected a type, got end of input"],
        {"C": ["x"]},
    ),
    "type-arguments-unclosed": (
        "class C { val x: P[A",
        ["f:1:21: expected ',' or ']', got end of input"],
        {"C": ["x"]},
    ),
    # Only the first diagnostic at a position is kept: a bad argument
    # nested a level down, a lexical error at a token the grammar rejects,
    # a closer that ends a list and then starts no definition, and nested
    # bodies that the end of input leaves open.
    "type-argument-nested-unbalanced": (
        "class C { val x: P[Q[) }",
        ["f:1:22: expected a type, got ')'"],
        {"C": ["x"]},
    ),
    "parameter-type-unbalanced-brace": (
        "class C(a: } ) extends D",
        ["f:1:12: expected a type, got '}'"],
        {"C": []},
    ),
    "unterminated-string-at-top-level": (
        '"abc\nclass A', ["f:1:1: unterminated string literal"], {"A": []}
    ),
    "parameters-unclosed-before-brace": (
        "class A(x: Int\n}", ["f:2:1: expected ',' or ')', got '}'"], {"A": []}
    ),
    "nested-bodies-unclosed": (
        "class A { class B { val x: Int",
        ["f:1:31: unexpected end of input, expected '}'"],
        {"A": [], "A.B": ["x"]},
    ),
    # A closer that does not match the innermost open bracket of a skip
    # is reported, so no member after it is lost in silence.
    "method-body-unmatched-paren": (
        "class A { def f = { ( }; var y: Int }",
        ["f:1:23: expected ')', got '}'"],
        {"A": ["y"]},
    ),
    "method-body-unmatched-paren-in-brackets": (
        "class A { def f = [ ( ] ; var y: Int }",
        ["f:1:23: expected ')', got ']'"],
        {"A": ["y"]},
    ),
    "initializer-unclosed-before-brace": (
        "class A { val s: Int = load(\n  var y: Int\n}",
        ["f:3:1: expected ')', got '}'"],
        {"A": ["s"]},
    ),
    "superclass-arguments-unmatched": (
        "class A extends B(]) { var y: Int }",
        ["f:1:19: expected ')', got ']'"],
        {"A": []},
    ),
    "qualifier-unmatched": (
        "class A { private[p ) var y: Int }",
        ["f:1:21: expected ']', got ')'"],
        {"A": ["y"]},
    ),
    "type-parameters-unclosed": (
        "class A[T",
        ["f:1:10: unexpected end of input, expected ']'"],
        {"A": []},
    ),
    "nested-template-unnamed": (
        "class A { class }", ["f:1:17: expected identifier, got '}'"], {"A": []}
    ),
    "parent-not-a-type": (
        "class A extends 1", ["f:1:17: expected a type, got '1'"], {"A": []}
    ),
    "new-not-a-type": (
        "class A { val x = new 1 }", ["f:1:23: expected a type, got '1'"], {"A": ["x"]}
    ),
    "anonymous-type-member": (
        "class A { val x = new B { type X } }",
        ["f:1:19: anonymous class 'A$anon$1' cannot declare abstract type members"],
        {"A": ["x"]},
    ),
    "anonymous-duplicate-field": (
        "class A { val x = new B { val y: Int; val y: Int } }",
        ["f:1:19: template 'A$anon$1': duplicate field name 'y'"],
        {"A": ["x"]},
    ),
    "type-bound-not-a-type": (
        "class A { type X <: 1 }", ["f:1:21: expected a type, got '1'"], {"A": []}
    ),
    "type-alias": (
        "class A { type X = Int }",
        ["f:1:18: type aliases are not supported; 'type X' must stay abstract"],
        {"A": []},
    ),
    "repeated-type-member": (
        "class A { type M; type M }",
        ["f:1:24: duplicate abstract type 'M'"],
        {"A": []},
    ),
}


@pytest.mark.parametrize(
    "text, diagnostics, templates", RECOVERY_CASES.values(), ids=RECOVERY_CASES.keys()
)
def test_recovery_branches(text, diagnostics, templates):
    result = parse_source("f", text)
    assert [str(d) for d in result.diagnostics] == diagnostics
    assert {t.name: [f.name for f in t.fields] for t in result.templates} == templates


def test_bad_type_bound_drops_the_member_and_parsing_goes_on():
    result = parse_source("f", "class A { type M <: 1; val x: Int }")
    assert [str(d) for d in result.diagnostics] == ["f:1:21: expected a type, got '1'"]
    [template] = result.templates
    assert [(f.name, f.declared_type) for f in template.fields] == [
        ("x", TypeRef("Int"))
    ]
    assert template.abstract_type_members == frozenset()


# ---- lexical diagnostics ---------------------------------------------------

#: Source text and the exact diagnostics it gives, one case per lexical
#: rule whose position or message the recursive descent cannot hide.
#: Lexical diagnostics come first, then the grammar's.
LEXICAL_CASES = {
    "unterminated comment": (
        "class A /* open",
        ["f:1:9: unterminated comment"],
    ),
    "nested comment open at end of input": (
        "class A { /* /* */ val x: Int }",
        [
            "f:1:11: unterminated comment",
            "f:1:32: unexpected end of input, expected '}'",
        ],
    ),
    "string open at end of line": (
        'class A { val s = "abc\n}',
        ["f:1:19: unterminated string literal"],
    ),
    "string open at end of input": (
        'class A { val s = "abc',
        [
            "f:1:19: unterminated string literal",
            "f:1:23: unexpected end of input, expected '}'",
        ],
    ),
    "triple-quoted string open at end of input": (
        'class A { val s = """abc\n" "" }',
        [
            "f:1:19: unterminated string literal",
            "f:2:7: unexpected end of input, expected '}'",
        ],
    ),
    "nul character": (
        "class A\x00 { }",
        ["f:1:8: unexpected character '\\x00'"],
    ),
    "numeral that is not a letter or a digit": (
        "class A { val Ⅻ = 1; val y: Ⅻb; val z: ⅫⅫ²Ⅻ.x }",
        [
            "f:1:15: unexpected character 'Ⅻ'",
            "f:1:17: expected identifier, got '='",
            "f:1:29: unexpected character 'Ⅻ'",
            "f:1:40: unexpected character 'Ⅻ'",
            "f:1:41: unexpected character 'Ⅻ'",
            "f:1:42: expected a type, got '²Ⅻ.x'",
        ],
    ),
    "columns after tabs": (
        "class A {\n\tval x = 1\n\t} }",
        ["f:3:4: expected a class, trait or object definition, got '}'"],
    ),
    "columns after CRLF line ends": (
        "class A {\r\n  val x: Int\r\n  ? }\r\n",
        ["f:3:3: expected a member, got '?'"],
    ),
    "backslash-newline inside a string": (
        'class A\n"a\\\nb"class B ?',
        [
            "f:2:1: expected a class, trait or object definition, got '\"...\"'",
            "f:3:11: expected a class, trait or object definition, got '?'",
        ],
    ),
    "char literals and a symbol": (
        "class A '\\''class B 'a'class C 'sym class D",
        [
            "f:1:9: expected a class, trait or object definition, got \"'...'\"",
            "f:1:21: expected a class, trait or object definition, got \"'...'\"",
            "f:1:32: expected a class, trait or object definition, got \"'...'\"",
        ],
    ),
    "superscript digit starts a literal": (
        "class A { val y: ²1.x$ }",
        ["f:1:18: expected a type, got '²1.x'"],
    ),
    "line comment and whitespace at end of input": (
        "class A { // done  \n  \t",
        ["f:2:4: unexpected end of input, expected '}'"],
    ),
}


@pytest.mark.parametrize(
    "text, expected", LEXICAL_CASES.values(), ids=LEXICAL_CASES.keys()
)
def test_lexical_diagnostics(text, expected):
    result = parse_source("f", text)
    assert [str(d) for d in result.diagnostics] == expected


def test_end_of_input_after_trailing_backslash_stays_inside_the_file():
    text = 'class A { val s = "abc\\'
    assert len(text) == 23
    result = parse_source("f", text)
    assert [str(d) for d in result.diagnostics] == [
        "f:1:19: unterminated string literal",
        "f:1:24: unexpected end of input, expected '}'",
    ]


SOUP_FRAGMENTS = [
    "class", "trait", "object", "case", "val", "var", "def", "type",
    "extends", "with", "new", "private", "lazy", "A", "b", "Int", "1",
    "[", "]", "(", ")", "{", "}", ",", ".", ";", ":", "=", "<:", "+",
    '"', '"""', "'", "/*", "*/", "//", "\\", " ", "\t", "\n", "\r\n",
    "²", "Ⅻ", "\x00",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SOUP_FRAGMENTS), max_size=100).map("".join))
@example('class A { val s = "abc\\')
def test_token_soup_never_raises_and_positions_lie_inside_the_file(text):
    result = parse_source("soup.scala", text)
    lines = text.split("\n")
    for diagnostic in result.diagnostics:
        position = diagnostic.position
        assert 1 <= position.line <= len(lines), str(diagnostic)
        assert 1 <= position.column <= len(lines[position.line - 1]) + 1, str(
            diagnostic
        )


# ---- token storage and the structural skip --------------------------------


def _lex_all(text):
    """Every token of ``text`` up to eof, and the offsets of the errors
    lexing reports."""
    tokens, errors = [], []
    for token in _tokens(text, lambda offset, message: errors.append(offset)):
        tokens.append(token)
        if token[0] == "eof":
            return tokens, errors


def _big_source():
    """About 0.5 MB: 7,000 one-line classes, each with a method body."""
    text = "\n".join(
        f'class C{i}(val a: Int) {{ def m(x: Int): Int = {{ f(x, "s") /* {i} */ }} }}'
        for i in range(7000)
    )
    assert 400_000 < len(text.encode()) < 600_000
    return text


def test_lexed_tokens_are_untracked_by_the_cycle_collector():
    # The collector untracks an exact tuple of strings and ints when it
    # first examines it; an instance of a tuple subclass stays tracked.
    tokens = _lex_all(_big_source())[0]
    assert {type(token) for token in tokens} == {tuple}
    gc.collect()
    assert [token for token in tokens if gc.is_tracked(token)] == []


def test_parse_peak_memory_is_at_most_twice_what_the_result_keeps():
    text = _big_source()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = parse_source("big.scala", text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.templates) == 7000 and result.diagnostics == []
    assert peak - base <= 2 * (kept - base), (peak - base, kept - base)


def test_a_finished_parse_is_freed_without_the_cycle_collector():
    # The lexer holds no reference back to the parser, so no cycle keeps
    # a parse's state alive until the next full collection.
    parser = _Parser("f", 'class A { def f = { "s" }; val x: A.B = 1 }')
    parser.parse_file()
    gone = weakref.ref(parser)
    gc.disable()
    try:
        del parser
        assert gone() is None
    finally:
        gc.enable()


_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}


def _reference_skip(tokens, pos, stops):
    """Token-by-token skip over one stack of open brackets: the index it
    stops at, and the offsets of the closers it reports because they do
    not match the innermost open bracket."""
    stack, mismatches = [], []
    while tokens[pos][0] != "eof":
        kind, _, offset = tokens[pos]
        if kind in stops and not stack:
            break
        if kind in _CLOSER_OF:
            stack.append(_CLOSER_OF[kind])
        elif kind in _CLOSER_OF.values():
            if stack and stack[-1] != kind:
                mismatches.append(offset)
            if kind not in stack:
                break
            del stack[len(stack) - 1 - stack[::-1].index(kind) :]
        pos += 1
    return pos, mismatches


def _nests(tokens):
    """Whether the brackets among ``tokens`` nest, each closer matching
    the innermost open bracket and none left open."""
    stack = []
    for kind, _, _ in tokens:
        if kind in _CLOSER_OF:
            stack.append(_CLOSER_OF[kind])
        elif kind in _CLOSER_OF.values() and (not stack or stack.pop() != kind):
            return False
    return not stack


def _parser_at(text, index):
    """A parser whose current token is the ``index``-th of ``text``."""
    parser = _Parser("soup.scala", text)
    for _ in range(index):
        parser._advance()
    return parser


SKIP_WORDS = ["(", ")", "[", "]", "{", "}"] * 3 + [
    ";", ",", "val", "def", "class", "x", "y",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SKIP_WORDS), max_size=60), st.integers(min_value=0))
@example("( ] )".split(), 0)
@example("{ ( } )".split(), 0)
@example("{ ( ) [ ] val x".split(), 0)
@example("val x = { ( ] ) } ; val y".split(), 3)
@example("( [ ( ] ] )".split(), 0)
def test_bracket_jumps_stop_where_token_by_token_counting_stops(words, start):
    text = " ".join(words)
    tokens = _lex_all(text)[0]
    start %= len(tokens)
    for stops in (_MEMBER_TAIL_STOPS, _PARAM_TAIL_STOPS):
        parser = _parser_at(text, start)
        parser._skip_until(stops)
        end, mismatches = _reference_skip(tokens, start, stops)
        assert (parser.tok, list(parser.reported)) == (tokens[end], mismatches)
    if tokens[start][0] in _CLOSER_OF:
        parser = _parser_at(text, start)
        parser._skip_group()
        end, mismatches = _reference_skip(tokens, start + 1, ())
        if tokens[end][0] == _CLOSER_OF[tokens[start][0]]:
            end += 1
        elif tokens[end][2] not in mismatches:  # a closer or eof, reported
            mismatches.append(tokens[end][2])
        assert (parser.tok, list(parser.reported)) == (tokens[end], mismatches)


#: Where a bracket soup is skipped: a method body, a parameter default, a
#: type-parameter bound and superclass arguments.
SKIP_PLACES = [
    "class A {{ def f = {} ; var y: Int }}",
    "class A(x: Int = {}, y: Int)",
    "class A[T <: {}, U]",
    "class A extends B({}) {{ var y: Int }}",
]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SKIP_PLACES),
    st.lists(st.sampled_from(SKIP_WORDS), max_size=30).map(" ".join),
)
@example(SKIP_PLACES[0], "{ ( }")
@example(SKIP_PLACES[1], "( ]")
@example(SKIP_PLACES[2], "( } )")
@example(SKIP_PLACES[3], "] [")
def test_a_parse_without_diagnostics_has_brackets_that_nest(place, soup):
    text = place.format(soup)
    if not parse_source("f", text).diagnostics:
        assert _nests(_lex_all(text)[0]), text


def test_a_deep_run_of_mismatches_is_reported_closer_by_closer():
    # Each ] closes the { just inside it: found innermost first, past none
    # of the 20,000 open (, which keeps the skip linear.
    text = "class A { def f = " + "(" * 20_000 + "[{]" * 20_000 + "}"
    diagnostics = parse_source("f", text).diagnostics
    assert len(diagnostics) == 20_001
    assert str(diagnostics[0]) == "f:1:20021: expected '}', got ']'"
    assert str(diagnostics[-1]) == "f:1:80019: expected ')', got '}'"


GROUP_FRAGMENTS = [
    "(", ")", "[", "]", "{", "}", " ", "\n", "\t", "\f", "x", "Int", "1.5", ",",
    ";", ".", "=", '"', '"""', '"a(', "\\", "'", "'\\''", "'a", "'('", "/*",
    "*/", "//", "+/*", "*/", "/", "²", "Ⅻ", "é", "\x00", "`",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(GROUP_FRAGMENTS), max_size=60).map("".join))
@example("{ '(' /* } */ \"}\" ) }")
@example("( ] ) (")
@example("{ x +/* } */ }")
@example("[ (²) ]")
@example('{ "open\n}')
@example('( """ ) """ )')
@example("( \f )")
@example("[ /* ] */ /* ]")
@example("( é )")
def test_structural_skip_ends_where_counting_ends_or_declines(text):
    tokens, errors = _lex_all(text)
    for i, (kind, _, offset) in enumerate(tokens):
        if kind not in ("(", "[", "{"):
            continue
        unclosed = set()
        end = _group_end(text, offset, unclosed)
        if end is None:
            # Every opener left open where the scan stopped declines too.
            assert offset in unclosed
            assert all(_group_end(text, o, set()) is None for o in unclosed)
            continue
        assert unclosed == set()
        # The group is one step: the stack skip from inside it reaches its
        # closer and reports nothing on the way.
        j, mismatches = _reference_skip(tokens, i + 1, ())
        assert (tokens[j][0], tokens[j][2] + 1) == (_CLOSER_OF[kind], end)
        assert mismatches == []
        assert [e for e in errors if offset <= e < end] == []


def test_a_declined_opener_is_never_scanned_again(monkeypatch):
    # Every ( below is open at the end of input, so the first scan declines
    # for all of them; scanning again at each would make the parse quadratic.
    scans = []

    def counting(text, start, unclosed):
        scans.append(start)
        return _group_end(text, start, unclosed)

    monkeypatch.setattr("scalimm.parser._group_end", counting)
    result = parse_source("f", "class A { def f = " + "(x, " * 2000)
    assert [str(d) for d in result.diagnostics] == ["f:1:8019: unexpected end of input, expected '}'"]
    assert len(scans) == 1


# Well-formed building blocks for whole templates, so that a good share of
# generated files parse cleanly; a soup fragment is sometimes spliced in
# between templates to push some of them onto the recovery paths.
_HEADS = ["T0", "T1", "T2", "T3", "X", "ext.Int", "lib.Box", "lib.Cell"]


@st.composite
def _type_text(draw, depth=0):
    head = draw(st.sampled_from(_HEADS))
    if depth < 2 and draw(st.booleans()):
        args = draw(st.lists(_type_text(depth + 1), min_size=1, max_size=2))
        return f"{head}[{', '.join(args)}]"
    return head


@st.composite
def _member_text(draw, index):
    kind = draw(st.sampled_from(["val", "val", "private val", "var", "private var"]))
    shape = draw(st.sampled_from(["typed", "inferred", "anon"]))
    if shape == "typed":
        return f"{kind} m{index}: {draw(_type_text())} = f()"
    if shape == "inferred":
        return f"{kind} m{index} = f()"
    inner = draw(_type_text())
    return f"{kind} m{index} = new {draw(_type_text())} {{ val q: {inner} = g() }}"


@st.composite
def _template_text(draw, index):
    keyword = draw(
        st.sampled_from(["class", "case class", "trait", "object", "case object"])
    )
    text = f"{keyword} T{index}"
    if keyword in ("class", "case class", "trait") and draw(st.booleans()):
        text += "[X]"
    if keyword in ("class", "case class") and draw(st.booleans()):
        binder = draw(st.sampled_from(["val", "val", "var"]))
        text += f"({binder} p: {draw(_type_text())})"
    parents = draw(st.lists(_type_text(), max_size=2))
    if parents:
        text += " extends " + " with ".join(parents)
    members = [draw(_member_text(i)) for i in range(draw(st.integers(0, 3)))]
    if members or draw(st.booleans()):
        text += " { " + "; ".join(members) + " }"
    return text


@st.composite
def _fragment_file(draw):
    pieces = []
    for index in range(draw(st.integers(0, 4))):
        pieces.append(draw(_template_text(index)))
        if draw(st.integers(0, 9)) == 0:
            pieces.append(draw(st.sampled_from(SOUP_FRAGMENTS)))
    return "\n".join(pieces)


@settings(max_examples=200, deadline=None)
@given(_fragment_file())
@example("class T0[X](val p: X) extends T1 { var m0: T2 = f() }\ntrait T1\nclass T2")
def test_serialized_parse_classifies_like_the_parse(text):
    result = parse_source("gen.scala", text)
    if result.diagnostics:
        return
    graph = build_graph(result.templates)
    loaded = load_ir(serialize_ir(graph))
    assert classify_corpus(loaded) == classify_corpus(graph)


# ---- corpus merging -------------------------------------------------------


def test_corpus_merges_distinct_files():
    corpus = parse_corpus(
        [("a.scala", "class A"), ("b.scala", "class B extends A")]
    )
    assert corpus.diagnostics == []
    assert set(corpus.graph.templates) == {"A", "B"}


def test_corpus_duplicate_names_report_both_positions():
    corpus = parse_corpus(
        [("a.scala", "class A"), ("b.scala", "\nclass A")]
    )
    assert corpus.graph is None
    (diagnostic,) = corpus.diagnostics
    assert diagnostic.position.file == "b.scala"
    assert diagnostic.position.line == 2
    assert "a.scala:1:7" in diagnostic.message
    assert "duplicate template name 'A'" in diagnostic.message


def test_duplicate_name_within_one_file_is_reported_at_the_second_definition():
    corpus = parse_corpus([("f.scala", "class A\nclass A\n")])
    assert [str(d) for d in corpus.diagnostics] == [
        "f.scala:2:7: duplicate template name 'A' (first defined at f.scala:1:7)"
    ]


def test_duplicate_name_is_listed_in_source_order_among_parse_diagnostics():
    corpus = parse_corpus([("b", "class A\nclass A { val z: P[) }")])
    assert [str(d) for d in corpus.diagnostics] == [
        "b:2:7: duplicate template name 'A' (first defined at b:1:7)",
        "b:2:20: expected a type, got ')'",
    ]


def test_corpus_empty_input_builds_empty_graph():
    corpus = parse_corpus([])
    assert corpus.diagnostics == []
    assert corpus.graph.templates == {}
