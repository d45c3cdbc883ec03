"""Frontend parsing: lexing, grammar, desugaring, synthesis, recovery."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalimm.ir import INFERRED_HEAD, TemplateKind, TypeRef, Visibility
from scalimm.parser import parse_corpus, parse_source


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


def test_unbalanced_body_reports_missing_brace():
    result = parse_source("open.scala", "class C { val x: Int = 1")
    assert any("expected '}'" in d.message for d in result.diagnostics)


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
            "f:1:29: unexpected character 'Ⅻ'",
            "f:1:40: unexpected character 'Ⅻ'",
            "f:1:41: unexpected character 'Ⅻ'",
            "f:1:17: expected identifier, got '='",
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


def test_corpus_empty_input_builds_empty_graph():
    corpus = parse_corpus([])
    assert corpus.diagnostics == []
    assert corpus.graph.templates == {}
