"""Transfer function, field-type evaluation and corpus classification."""

import random

import pytest

from graphgen import make_generic_graph, make_graph, monomorphize
from scalimm.classify import (
    AttributeKey,
    FieldTypeKind,
    MUTABLE_ATTRIBUTES,
    ParentCause,
    SHALLOW_ATTRIBUTES,
    classify_corpus,
    evaluate_field_type,
    make_transfer,
    parse_assumptions,
    transfer,
)
from scalimm.ir import (
    INFERRED_HEAD,
    FieldDecl,
    TemplateDef,
    TemplateGraph,
    TemplateKind,
    TypeRef,
    UNPARAMETERIZED_KINDS,
    Visibility,
    build_graph,
)
from scalimm.lattice import Verdict

A = AttributeKey


def mk(name, *, kind=TemplateKind.CLASS, params=(), members=(), parents=(), fields=()):
    return TemplateDef(
        name=name,
        kind=kind,
        type_params=tuple(params),
        abstract_type_members=frozenset(members),
        parents=tuple(TypeRef(p) if isinstance(p, str) else p for p in parents),
        fields=tuple(fields),
    )


def val(name, ref, *, private=False):
    return FieldDecl(
        name,
        False,
        Visibility.PRIVATE if private else Visibility.PUBLIC,
        TypeRef(ref) if isinstance(ref, str) else ref,
    )


def var(name, ref, *, private=False):
    return FieldDecl(
        name,
        True,
        Visibility.PRIVATE if private else Visibility.PUBLIC,
        TypeRef(ref) if isinstance(ref, str) else ref,
    )


def letters(result):
    """The attribute letters of a transfer result's evidence records."""
    return {record.attribute for record in result.evidence}


def run_one(template, *others, assumptions=None):
    graph = build_graph([template, *others])
    assignment = {
        n: classify_corpus(graph, assumptions).verdicts[n] for n in graph.templates
    }
    return transfer(template, assignment, graph, assumptions)


# ---- transfer: declared fields --------------------------------------------


def test_private_var_makes_mutable_with_d():
    result = run_one(mk("C", fields=[var("n", "scala.Int", private=True)]))
    assert result.verdict is Verdict.MUTABLE
    assert letters(result) == {A.PRIVATE_VAR}
    assert result.evidence[0].cause == var("n", "scala.Int", private=True)


def test_public_var_makes_mutable_with_c():
    result = run_one(mk("C", fields=[var("n", "scala.Int")]))
    assert result.verdict is Verdict.MUTABLE
    assert letters(result) == {A.PUBLIC_VAR}


def test_generic_case_class_with_param_field_is_conditionally_deep():
    result = run_one(
        mk("P", kind=TemplateKind.CASE_CLASS, params=["T"], fields=[val("v", "T")])
    )
    assert result.verdict is Verdict.CONDITIONALLY_DEEP
    assert letters(result) == frozenset()
    assert result.evidence == ()


def test_unresolved_field_type_gives_shallow_g():
    result = run_one(mk("G", fields=[val("m", "Ext")]))
    assert result.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(result) == {A.FIELD_TYPE_UNKNOWN}


def test_assumed_mutable_field_type_gives_shallow_i():
    result = run_one(
        mk("H", fields=[val("m", "Buf")]),
        assumptions={"Buf": Verdict.MUTABLE},
    )
    assert result.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(result) == {A.FIELD_TYPE_ASSUMED_MUTABLE}


def test_internal_mutable_field_type_gives_shallow_h():
    result = run_one(
        mk("W", fields=[val("m", "M")]),
        mk("M", fields=[var("x", "scala.Int")]),
    )
    assert result.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(result) == {A.FIELD_TYPE_MUTABLE}


def test_shallow_field_type_gives_shallow_j():
    result = run_one(
        mk("N", fields=[val("s", "S")]),
        mk("S", fields=[val("u", "Ext")]),
    )
    assert result.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(result) == {A.FIELD_TYPE_SHALLOW}


def test_conditionally_deep_instantiated_with_deep_stays_deep():
    result = run_one(
        mk(
            "O",
            kind=TemplateKind.OBJECT,
            fields=[val("p", TypeRef("P", (TypeRef("C"),)))],
        ),
        mk("P", params=["T"], fields=[val("v", "T")]),
        mk("C"),
    )
    assert result.verdict is Verdict.DEEP_IMMUTABLE
    assert letters(result) == frozenset()


# ---- transfer: parents ----------------------------------------------------


def test_unknown_parent_gives_mutable_e():
    result = run_one(mk("D", parents=["ext.Gone"]))
    assert result.verdict is Verdict.MUTABLE
    assert letters(result) == {A.PARENT_UNKNOWN}
    assert result.evidence[0].cause == ParentCause(TypeRef("ext.Gone"))


def test_assumed_mutable_parent_gives_mutable_a():
    result = run_one(
        mk("S", parents=["lib.Actor"]),
        assumptions={"lib.Actor": Verdict.MUTABLE},
    )
    assert result.verdict is Verdict.MUTABLE
    assert letters(result) == {A.PARENT_ASSUMED_MUTABLE}


def test_internal_mutable_parent_gives_mutable_b():
    result = run_one(
        mk("D", parents=["C"]),
        mk("C", fields=[var("x", "scala.Int")]),
    )
    assert result.verdict is Verdict.MUTABLE
    assert letters(result) == {A.PARENT_MUTABLE}


def test_shallow_parents_give_f_for_internal_and_assumed():
    internal = run_one(
        mk("D", parents=["S"]),
        mk("S", fields=[val("u", "Ext")]),
    )
    assert internal.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(internal) == {A.PARENT_SHALLOW}

    assumed = run_one(
        mk("D", parents=["lib.S"]),
        assumptions={"lib.S": Verdict.SHALLOW_IMMUTABLE},
    )
    assert assumed.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(assumed) == {A.PARENT_SHALLOW}


def test_deep_parents_have_no_effect():
    result = run_one(
        mk("D", parents=["C", "lib.D"]),
        mk("C"),
        assumptions={"lib.D": Verdict.DEEP_IMMUTABLE},
    )
    assert result.verdict is Verdict.DEEP_IMMUTABLE
    assert letters(result) == frozenset()


def test_conditionally_deep_parent_folds_each_argument():
    # One mutable argument and one unknown argument: both shallow causes
    # are reported, each naming its own argument.
    result = run_one(
        mk(
            "D",
            parents=[TypeRef("P", (TypeRef("M"), TypeRef("Ext")))],
        ),
        mk("P", params=["X", "Y"], fields=[val("x", "X"), val("y", "Y")]),
        mk("M", fields=[var("n", "scala.Int")]),
    )
    assert result.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(result) == {A.FIELD_TYPE_MUTABLE, A.FIELD_TYPE_UNKNOWN}
    causes = {record.attribute: record.cause for record in result.evidence}
    parent_ref = TypeRef("P", (TypeRef("M"), TypeRef("Ext")))
    assert causes[A.FIELD_TYPE_MUTABLE] == ParentCause(parent_ref, TypeRef("M"))
    assert causes[A.FIELD_TYPE_UNKNOWN] == ParentCause(parent_ref, TypeRef("Ext"))


def test_conditionally_deep_parent_with_abstract_argument_stays_conditional():
    result = run_one(
        mk(
            "D",
            params=["Z"],
            parents=[TypeRef("P", (TypeRef("Z"),))],
        ),
        mk("P", params=["X"], fields=[val("x", "X")]),
    )
    assert result.verdict is Verdict.CONDITIONALLY_DEEP
    assert letters(result) == frozenset()


def test_conditionally_deep_parent_with_deep_argument_is_deep():
    result = run_one(
        mk("D", parents=[TypeRef("P", (TypeRef("C"),))]),
        mk("P", params=["X"], fields=[val("x", "X")]),
        mk("C"),
    )
    assert result.verdict is Verdict.DEEP_IMMUTABLE


def test_bare_conditionally_deep_parent_depends_on_scope_abstractness():
    concrete = run_one(
        mk("D", parents=["P"]),
        mk("P", params=["X"], fields=[val("x", "X")]),
    )
    assert concrete.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(concrete) == {A.FIELD_TYPE_UNKNOWN}
    assert concrete.evidence[0].cause == ParentCause(TypeRef("P"))

    generic = run_one(
        mk("E", params=["Q"], parents=["P"]),
        mk("P", params=["X"], fields=[val("x", "X")]),
    )
    assert generic.verdict is Verdict.CONDITIONALLY_DEEP


def test_assumed_conditionally_deep_parent_folds_like_internal():
    deep_arg = run_one(
        mk("D", parents=[TypeRef("lib.Box", (TypeRef("C"),))]),
        mk("C"),
        assumptions={"lib.Box": Verdict.CONDITIONALLY_DEEP},
    )
    assert deep_arg.verdict is Verdict.DEEP_IMMUTABLE

    bare = run_one(
        mk("D", parents=["lib.Box"]),
        assumptions={"lib.Box": Verdict.CONDITIONALLY_DEEP},
    )
    assert bare.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(bare) == {A.FIELD_TYPE_UNKNOWN}


def test_parent_resolving_abstract_in_scope_is_an_error():
    with pytest.raises(ValueError, match="'D'"):
        mk("D", params=["T"], parents=["T"])


def test_kind_collapse_turns_abstract_outcomes_into_unknown():
    # An object holding a bare conditionally deep type cannot defer to an
    # instantiation site; the outcome degrades to unknown.
    for kind in (TemplateKind.OBJECT, TemplateKind.CASE_OBJECT):
        result = run_one(
            mk("O", kind=kind, fields=[val("p", "P")]),
            mk("P", params=["X"], fields=[val("x", "X")]),
        )
        assert result.verdict is Verdict.SHALLOW_IMMUTABLE
        assert letters(result) == {A.FIELD_TYPE_UNKNOWN}

    anon = run_one(
        mk("W$anon$1", kind=TemplateKind.ANON_CLASS, parents=["C"], fields=[val("p", "P")]),
        mk("C"),
        mk("P", params=["X"], fields=[val("x", "X")]),
    )
    assert anon.verdict is Verdict.SHALLOW_IMMUTABLE
    assert letters(anon) == {A.FIELD_TYPE_UNKNOWN}


def test_mixed_var_and_mutable_val_reports_only_mutable_attributes():
    graph = build_graph(
        [
            mk("Both", fields=[var("a", "scala.Int"), val("b", "M")]),
            mk("M", fields=[var("x", "scala.Int")]),
        ]
    )
    raw = transfer(
        graph.templates["Both"],
        {"Both": Verdict.MUTABLE, "M": Verdict.MUTABLE},
        graph,
    )
    # The raw transfer reports causes from both attribute groups.
    assert letters(raw) == {A.PUBLIC_VAR, A.FIELD_TYPE_MUTABLE}
    # Packaging filters to the verdict's own group.
    result = classify_corpus(graph)
    assert result.verdicts["Both"] is Verdict.MUTABLE
    assert result.attributes["Both"] == {A.PUBLIC_VAR}
    assert all(
        record.attribute in MUTABLE_ATTRIBUTES
        for record in result.evidence["Both"]
    )


# ---- evaluate_field_type --------------------------------------------------


def eval_in(scope_template, ref, *others, assumptions=None):
    graph = build_graph([scope_template, *others])
    assignment = classify_corpus(graph, assumptions).verdicts
    return evaluate_field_type(
        TypeRef(ref) if isinstance(ref, str) else ref,
        scope_template,
        assignment,
        graph,
        assumptions,
    )


def test_type_parameter_evaluates_abstract():
    scope = mk("P", params=["T"], fields=[val("v", "T")])
    assert eval_in(scope, "T") == FieldTypeKind.ABSTRACT


def test_internal_mutable_evaluates_mutable_not_assumed():
    scope = mk("C")
    outcome = eval_in(scope, "X", mk("X", fields=[var("n", "scala.Int")]))
    assert outcome == FieldTypeKind.MUTABLE


def test_conditional_head_with_abstract_argument_evaluates_abstract():
    scope = mk("Q", params=["T"], fields=[val("p", TypeRef("P", (TypeRef("T"),)))])
    p = mk("P", params=["X"], fields=[val("x", "X")])
    outcome = eval_in(scope, TypeRef("P", (TypeRef("T"),)), p)
    assert outcome == FieldTypeKind.ABSTRACT
    graph = build_graph([scope, p])
    assert classify_corpus(graph).verdicts["Q"] is Verdict.CONDITIONALLY_DEEP


def test_conditional_head_with_mutable_argument_evaluates_mutable():
    scope = mk("C")
    outcome = eval_in(
        scope,
        TypeRef("P", (TypeRef("M"),)),
        mk("P", params=["X"], fields=[val("x", "X")]),
        mk("M", fields=[var("n", "scala.Int")]),
    )
    assert outcome == FieldTypeKind.MUTABLE


def test_fold_takes_weakest_argument_by_severity():
    p = mk("P", params=["X", "Y"], fields=[val("x", "X"), val("y", "Y")])
    m = mk("M", fields=[var("n", "scala.Int")])
    s = mk("S", fields=[val("u", "Ext")])
    scope = mk("C")
    # Mutable beats unknown beats shallow beats deep.
    assert eval_in(
        scope, TypeRef("P", (TypeRef("M"), TypeRef("Ext"))), p, m
    ) is FieldTypeKind.MUTABLE
    assert eval_in(
        scope, TypeRef("P", (TypeRef("Ext"), TypeRef("S"))), p, s
    ) is FieldTypeKind.UNKNOWN
    assert eval_in(
        scope, TypeRef("P", (TypeRef("S"), TypeRef("D"))), p, s, mk("D")
    ) is FieldTypeKind.SHALLOW
    assert eval_in(
        scope, TypeRef("P", (TypeRef("D"), TypeRef("D"))), p, mk("D")
    ) is FieldTypeKind.DEEP


def test_fold_keeps_the_first_of_equally_weak_arguments():
    # An assumed-mutable and a mutable argument are equally weak; the one
    # written first decides between attribute I and attribute H.
    p = mk("P", params=["X", "Y"], fields=[val("x", "X"), val("y", "Y")])
    m = mk("M", fields=[var("n", "scala.Int")])
    buf_first = TypeRef("P", (TypeRef("lib.Buf"), TypeRef("M")))
    m_first = TypeRef("P", (TypeRef("M"), TypeRef("lib.Buf")))
    assumptions = {"lib.Buf": Verdict.MUTABLE}

    fields = run_one(
        mk("C", fields=[val("a", buf_first), val("b", m_first)]),
        p,
        m,
        assumptions=assumptions,
    )
    assert [(r.attribute, r.cause.name) for r in fields.evidence] == [
        (A.FIELD_TYPE_ASSUMED_MUTABLE, "a"),
        (A.FIELD_TYPE_MUTABLE, "b"),
    ]

    parent = TypeRef("P", (buf_first, m_first))
    parents = run_one(mk("D", parents=[parent]), p, m, assumptions=assumptions)
    assert [(r.attribute, r.cause) for r in parents.evidence] == [
        (A.FIELD_TYPE_ASSUMED_MUTABLE, ParentCause(parent, buf_first)),
        (A.FIELD_TYPE_MUTABLE, ParentCause(parent, m_first)),
    ]


def test_non_conditional_base_ignores_arguments():
    # A shallow head with a mutable argument stays shallow: the head's own
    # verdict is not conditional, so arguments are not consulted.
    outcome = eval_in(
        mk("C"),
        TypeRef("S", (TypeRef("M"),)),
        mk("S", fields=[val("u", "Ext")]),
        mk("M", fields=[var("n", "scala.Int")]),
    )
    assert outcome is FieldTypeKind.SHALLOW


def test_assumed_mutable_sets_assumed_flag():
    outcome = eval_in(
        mk("C"), "lib.Buf", assumptions={"lib.Buf": Verdict.MUTABLE}
    )
    assert outcome == FieldTypeKind.ASSUMED_MUTABLE


def test_severity_order_is_mutable_unknown_shallow_abstract_deep():
    assert (
        FieldTypeKind.ASSUMED_MUTABLE
        < FieldTypeKind.MUTABLE
        < FieldTypeKind.UNKNOWN
        < FieldTypeKind.SHALLOW
        < FieldTypeKind.ABSTRACT
        < FieldTypeKind.DEEP
    )


# ---- classify_corpus ------------------------------------------------------


def test_empty_graph_classifies_to_empty_result():
    result = classify_corpus(build_graph([]))
    assert result.verdicts == {}
    assert result.attributes == {}
    assert result.evidence == {}


def test_single_case_object_is_deep():
    result = classify_corpus(
        build_graph([mk("K", kind=TemplateKind.CASE_OBJECT)])
    )
    assert result.verdicts == {"K": Verdict.DEEP_IMMUTABLE}
    assert result.attributes["K"] == frozenset()


def test_classify_corpus_names_template_on_ill_formed_parent():
    # An abstract type member is as abstract in its own scope as a type
    # parameter, so it cannot be extended either.
    with pytest.raises(ValueError, match="template 'D': parent M is abstract"):
        mk("D", members=["M"], parents=["M"])


def _declarative_verdict_check(graph, result, assumptions):
    """Independent restatement of all four verdicts at the final assignment.

    A head reads the graph first, then the assumptions, and is unresolved
    when neither names it.  A template is mutable when it declares a var
    field or has a parent head that is mutable or unresolved; else shallow
    when a parent head is shallow, or a parent whose head is conditionally
    deep, or a value field's type, evaluates below abstract; else
    conditionally deep when one of those evaluates abstract; else deep.
    """
    assumptions = assumptions or {}
    levels = {
        Verdict.MUTABLE: FieldTypeKind.MUTABLE,
        Verdict.SHALLOW_IMMUTABLE: FieldTypeKind.SHALLOW,
        Verdict.DEEP_IMMUTABLE: FieldTypeKind.DEEP,
    }

    def head_verdict(head):
        if head in graph.templates:
            return result.verdicts[head]
        return assumptions.get(head)

    def evaluate(scope, ref):
        own_abstract = set(scope.type_params) | scope.abstract_type_members
        if ref.head == INFERRED_HEAD:
            return FieldTypeKind.UNKNOWN
        if "." not in ref.head and ref.head in own_abstract:
            return FieldTypeKind.ABSTRACT
        verdict = head_verdict(ref.head)
        if verdict is None:
            return FieldTypeKind.UNKNOWN
        if verdict is not Verdict.CONDITIONALLY_DEEP:
            return levels[verdict]
        if ref.args:
            return min(evaluate(scope, arg) for arg in ref.args)
        return FieldTypeKind.ABSTRACT if own_abstract else FieldTypeKind.UNKNOWN

    for name, template in graph.templates.items():
        heads = [head_verdict(p.head) for p in template.parents]
        types = [
            evaluate(template, p)
            for p, head in zip(template.parents, heads)
            if head is Verdict.CONDITIONALLY_DEEP
        ] + [
            evaluate(template, f.declared_type)
            for f in template.fields
            if not f.reassignable
        ]
        if any(f.reassignable for f in template.fields) or any(
            head is None or head is Verdict.MUTABLE for head in heads
        ):
            expected = Verdict.MUTABLE
        elif Verdict.SHALLOW_IMMUTABLE in heads or any(
            kind < FieldTypeKind.ABSTRACT for kind in types
        ):
            expected = Verdict.SHALLOW_IMMUTABLE
        elif FieldTypeKind.ABSTRACT in types:
            expected = Verdict.CONDITIONALLY_DEEP
        else:
            expected = Verdict.DEEP_IMMUTABLE
        assert result.verdicts[name] is expected, name


def test_structural_properties_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(150):
        graph, assumptions = make_graph(rng)
        result = classify_corpus(graph, assumptions)
        for name, template in graph.templates.items():
            verdict = result.verdicts[name]
            attrs = result.attributes[name]
            # Kind exclusion.
            if template.kind in UNPARAMETERIZED_KINDS:
                assert verdict is not Verdict.CONDITIONALLY_DEEP
            # Reassignable-field dominance.
            if any(f.reassignable for f in template.fields):
                assert verdict is Verdict.MUTABLE
            # Attribute/verdict coherence.
            if verdict is Verdict.MUTABLE:
                assert attrs and attrs <= MUTABLE_ATTRIBUTES
            elif verdict is Verdict.SHALLOW_IMMUTABLE:
                assert attrs and attrs <= SHALLOW_ATTRIBUTES
            else:
                assert attrs == frozenset()
            assert {r.attribute for r in result.evidence[name]} == attrs
        _declarative_verdict_check(graph, result, assumptions)
        # A graph template's own verdict wins over an assumption for its
        # name, so dropping such assumptions changes nothing.
        unshadowed = {n: v for n, v in assumptions.items() if n not in graph.templates}
        assert classify_corpus(graph, unshadowed) == result


# ---- monomorphization equivalence ----------------------------------------


def _verdicts_of_concrete(graph: TemplateGraph, assumptions) -> dict:
    result = classify_corpus(graph, assumptions)
    return {
        name: result.verdicts[name]
        for name, t in graph.templates.items()
        if not t.type_params
    }


def test_substitution_matches_monomorphized_chain():
    box = mk("Box", params=["T"], fields=[val("v", "T")])
    wrap = mk(
        "Wrap",
        params=["S"],
        fields=[val("s", "S"), val("b", TypeRef("Box", (TypeRef("S"),)))],
    )
    deep = mk("DeepLeaf")
    mut = mk("MutLeaf", fields=[var("n", "scala.Int")])
    user = mk(
        "User",
        fields=[
            val("w1", TypeRef("Wrap", (TypeRef("DeepLeaf"),))),
            val("w2", TypeRef("Wrap", (TypeRef("MutLeaf"),))),
        ],
    )
    graph = build_graph([box, wrap, deep, mut, user])
    mono = monomorphize(graph)
    assert "Wrap[DeepLeaf]" in mono.templates
    assert "Box[MutLeaf]" in mono.templates
    direct = _verdicts_of_concrete(graph, None)
    monoed = classify_corpus(mono).verdicts
    for name, verdict in direct.items():
        assert monoed[name] == verdict, name
    assert direct["User"] is Verdict.SHALLOW_IMMUTABLE


def test_substitution_matches_monomorphization_on_random_graphs():
    rng = random.Random(5150)
    for _ in range(100):
        graph, assumptions = make_generic_graph(rng)
        mono = monomorphize(graph)
        direct = _verdicts_of_concrete(graph, assumptions)
        monoed = classify_corpus(mono, assumptions).verdicts
        for name, verdict in direct.items():
            assert monoed[name] == verdict, name


# ---- assumption files -----------------------------------------------------


def test_parse_assumptions_happy_path():
    text = (
        "# built-ins\n"
        "scala.Int deep\n"
        "\n"
        "lib.Buf mutable  # vendor buffer\n"
        "lib.Cache shallow\n"
        "lib.Opt conditionally_deep\n"
        "lib.Buf mutable\n"
    )
    assert parse_assumptions(text) == {
        "scala.Int": Verdict.DEEP_IMMUTABLE,
        "lib.Buf": Verdict.MUTABLE,
        "lib.Cache": Verdict.SHALLOW_IMMUTABLE,
        "lib.Opt": Verdict.CONDITIONALLY_DEEP,
    }


def test_parse_assumptions_later_entries_win():
    assert parse_assumptions("a mutable\na deep\n") == {
        "a": Verdict.DEEP_IMMUTABLE
    }


def test_parse_assumptions_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 2"):
        parse_assumptions("a deep\nb\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_assumptions("a b c\n")
    with pytest.raises(ValueError, match="immutable"):
        parse_assumptions("a immutable\n")


def test_empty_assumptions_file():
    assert parse_assumptions("") == {}
    assert parse_assumptions("# only comments\n\n") == {}
