"""IR construction, resolution, serialization and their invariants."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalimm.ir import (
    AbstractInScope,
    Assumed,
    FieldDecl,
    INFERRED_HEAD,
    IRError,
    Internal,
    TemplateDef,
    TemplateKind,
    TypeRef,
    Unknown,
    Visibility,
    build_graph,
    load_ir,
    resolve_type_ref,
    serialize_ir,
    template_dependencies,
)
from scalimm.lattice import Verdict


def val(name, head, *args):
    return FieldDecl(name, False, Visibility.PUBLIC, TypeRef(head, args))


# ---- type refs ------------------------------------------------------------


def test_typeref_renders_like_source():
    assert str(TypeRef("P")) == "P"
    assert str(TypeRef("P", (TypeRef("A"), TypeRef("B")))) == "P[A, B]"
    nested = TypeRef("Map", (TypeRef("K"), TypeRef("List", (TypeRef("V"),))))
    assert str(nested) == "Map[K, List[V]]"


# ---- template invariants --------------------------------------------------


def test_object_like_kinds_reject_type_parameters():
    for kind in (
        TemplateKind.OBJECT,
        TemplateKind.CASE_OBJECT,
        TemplateKind.ANON_CLASS,
    ):
        with pytest.raises(ValueError):
            TemplateDef(
                name="O",
                kind=kind,
                type_params=("T",),
                parents=(TypeRef("P"),),
            )
        with pytest.raises(ValueError):
            TemplateDef(
                name="O",
                kind=kind,
                abstract_type_members=frozenset({"M"}),
                parents=(TypeRef("P"),),
            )


def test_anonymous_class_requires_exactly_one_parent():
    with pytest.raises(ValueError):
        TemplateDef(name="A$anon$1", kind=TemplateKind.ANON_CLASS)
    with pytest.raises(ValueError):
        TemplateDef(
            name="A$anon$1",
            kind=TemplateKind.ANON_CLASS,
            parents=(TypeRef("P"), TypeRef("Q")),
        )
    ok = TemplateDef(
        name="A$anon$1", kind=TemplateKind.ANON_CLASS, parents=(TypeRef("P"),)
    )
    assert ok.parents == (TypeRef("P"),)


def test_type_params_and_abstract_members_must_be_disjoint():
    with pytest.raises(ValueError, match="both"):
        TemplateDef(
            name="T",
            kind=TemplateKind.TRAIT,
            type_params=("X",),
            abstract_type_members=frozenset({"X"}),
        )


def test_duplicate_field_names_rejected():
    with pytest.raises(ValueError, match="duplicate field"):
        TemplateDef(
            name="C",
            kind=TemplateKind.CLASS,
            fields=(val("x", "A"), val("x", "B")),
        )


def test_has_abstract_types():
    plain = TemplateDef(name="C", kind=TemplateKind.CLASS)
    generic = TemplateDef(name="G", kind=TemplateKind.CLASS, type_params=("T",))
    membered = TemplateDef(
        name="M",
        kind=TemplateKind.TRAIT,
        abstract_type_members=frozenset({"X"}),
    )
    assert not plain.has_abstract_types
    assert generic.has_abstract_types
    assert membered.has_abstract_types


# ---- resolution -----------------------------------------------------------


@pytest.fixture
def little_graph():
    return build_graph(
        [
            TemplateDef(name="P", kind=TemplateKind.CLASS, type_params=("T",)),
            TemplateDef(name="Q", kind=TemplateKind.CLASS),
        ]
    )


def test_resolution_order(little_graph):
    scope = little_graph.templates["P"]
    assumptions = {"lib.Buf": Verdict.MUTABLE}

    assert resolve_type_ref(little_graph, scope, TypeRef("T")) == AbstractInScope("T")
    assert resolve_type_ref(little_graph, scope, TypeRef("Q")) == Internal("Q")
    assert resolve_type_ref(
        little_graph, scope, TypeRef("lib.Buf"), assumptions
    ) == Assumed(Verdict.MUTABLE)
    assert resolve_type_ref(little_graph, scope, TypeRef("x.y.Z")) == Unknown()


def test_abstract_in_scope_shadows_graph_templates():
    graph = build_graph(
        [
            TemplateDef(name="T", kind=TemplateKind.CLASS),
            TemplateDef(name="S", kind=TemplateKind.CLASS, type_params=("T",)),
        ]
    )
    scope = graph.templates["S"]
    assert resolve_type_ref(graph, scope, TypeRef("T")) == AbstractInScope("T")
    other = graph.templates["T"]
    assert resolve_type_ref(graph, other, TypeRef("T")) == Internal("T")


def test_inferred_head_always_resolves_unknown(little_graph):
    scope = little_graph.templates["Q"]
    assumptions = {INFERRED_HEAD: Verdict.DEEP_IMMUTABLE}
    assert (
        resolve_type_ref(little_graph, scope, TypeRef(INFERRED_HEAD), assumptions)
        == Unknown()
    )


def test_abstractness_is_scope_relative(little_graph):
    # T is a type parameter of P, but inside Q it resolves to nothing.
    scope = little_graph.templates["Q"]
    assert resolve_type_ref(little_graph, scope, TypeRef("T")) == Unknown()


@given(st.text(alphabet="ABC.xyz", min_size=1, max_size=8))
def test_resolution_is_total(head):
    graph = build_graph([TemplateDef(name="A", kind=TemplateKind.CLASS)])
    scope = graph.templates["A"]
    resolution = resolve_type_ref(graph, scope, TypeRef(head))
    assert isinstance(resolution, (Internal, AbstractInScope, Unknown))


# ---- dependencies and externals -------------------------------------------


def test_template_dependencies_walk_nested_args():
    graph = build_graph(
        [
            TemplateDef(
                name="A",
                kind=TemplateKind.CLASS,
                fields=(val("x", "P", TypeRef("B", (TypeRef("C"),))),),
            ),
            TemplateDef(name="B", kind=TemplateKind.CLASS, type_params=("X",)),
            TemplateDef(name="C", kind=TemplateKind.CLASS),
            TemplateDef(name="P", kind=TemplateKind.CLASS, type_params=("X",)),
        ]
    )
    deps = template_dependencies(graph, graph.templates["A"])
    assert deps == {"P", "B", "C"}
    assert graph.dependencies == {"A": ("P", "B", "C"), "B": (), "C": (), "P": ()}


def test_dependencies_keep_first_mention_order_without_repeats():
    graph = build_graph(
        [
            TemplateDef(
                name="A",
                kind=TemplateKind.CLASS,
                fields=(
                    val("x", "B", TypeRef("A"), TypeRef("C")),
                    val("y", "Ext", TypeRef("B")),
                    val("z", "C"),
                ),
            ),
            TemplateDef(name="B", kind=TemplateKind.CLASS, type_params=("X", "Y")),
            TemplateDef(name="C", kind=TemplateKind.TRAIT),
        ]
    )
    assert graph.dependencies["A"] == ("B", "A", "C")
    assert graph.externals == {"Ext"}


def test_template_dependencies_skip_shadowed_heads():
    graph = build_graph(
        [
            TemplateDef(name="T", kind=TemplateKind.CLASS),
            TemplateDef(
                name="S",
                kind=TemplateKind.CLASS,
                type_params=("T",),
                fields=(val("x", "T"),),
            ),
        ]
    )
    assert template_dependencies(graph, graph.templates["S"]) == frozenset()
    assert graph.dependencies["S"] == ()
    graph2 = build_graph(
        [
            TemplateDef(name="T", kind=TemplateKind.CLASS),
            TemplateDef(
                name="S", kind=TemplateKind.CLASS, fields=(val("x", "T"),)
            ),
        ]
    )
    assert template_dependencies(graph2, graph2.templates["S"]) == {"T"}


def test_externals_exclude_defined_shadowed_and_inferred():
    graph = build_graph(
        [
            TemplateDef(
                name="C",
                kind=TemplateKind.CLASS,
                type_params=("T",),
                fields=(
                    val("a", "Ext"),
                    val("b", "T"),
                    val("c", "C"),
                    val("d", INFERRED_HEAD),
                ),
            )
        ]
    )
    assert graph.externals == {"Ext"}


def test_externals_empty_for_self_contained_object():
    graph = build_graph([TemplateDef(name="O", kind=TemplateKind.OBJECT)])
    assert len(graph.templates) == 1
    assert graph.externals == frozenset()


def test_build_graph_rejects_duplicates():
    with pytest.raises(IRError, match="duplicate"):
        build_graph(
            [
                TemplateDef(name="A", kind=TemplateKind.CLASS),
                TemplateDef(name="A", kind=TemplateKind.TRAIT),
            ]
        )


# ---- serialized form ------------------------------------------------------


def doc(templates):
    return json.dumps({"templates": templates}).encode()


def test_load_minimal_document():
    graph = load_ir(doc([{"name": "O", "kind": "object"}]))
    assert list(graph.templates) == ["O"]
    assert graph.templates["O"].kind is TemplateKind.OBJECT
    assert graph.externals == frozenset()


def test_load_computes_externals():
    graph = load_ir(
        doc(
            [
                {
                    "name": "C",
                    "kind": "class",
                    "fields": [
                        {
                            "name": "x",
                            "var": False,
                            "private": False,
                            "type": {"head": "Ext"},
                        }
                    ],
                }
            ]
        )
    )
    assert graph.externals == {"Ext"}


def test_load_rejects_duplicate_names_with_path():
    with pytest.raises(IRError) as info:
        load_ir(doc([{"name": "A", "kind": "class"}, {"name": "A", "kind": "trait"}]))
    assert "templates[1].name" in str(info.value)
    assert "templates[0]" in str(info.value)


def test_load_rejects_unknown_kind_with_path():
    with pytest.raises(IRError) as info:
        load_ir(doc([{"name": "A", "kind": "struct"}]))
    assert info.value.path == "templates[0].kind"


def test_load_rejects_object_with_type_params():
    with pytest.raises(IRError) as info:
        load_ir(doc([{"name": "A", "kind": "object", "type_params": ["T"]}]))
    assert info.value.path == "templates[0]"


def test_load_rejects_malformed_nodes_with_paths():
    with pytest.raises(IRError):
        load_ir(b"{")
    with pytest.raises(IRError) as info:
        load_ir(b'{"templates": [{"name": "A", "kind": "class", "fields": [{}]}]}')
    assert "templates[0].fields[0]" in str(info.value)
    with pytest.raises(IRError) as info:
        load_ir(
            doc(
                [
                    {
                        "name": "A",
                        "kind": "class",
                        "parents": [{"head": ""}],
                    }
                ]
            )
        )
    assert info.value.path == "templates[0].parents[0].head"


def test_round_trip_is_structure_preserving_and_byte_stable():
    graph = build_graph(
        [
            TemplateDef(
                name="P",
                kind=TemplateKind.CASE_CLASS,
                type_params=("T", "U"),
                parents=(TypeRef("Base", (TypeRef("T"),)),),
                fields=(
                    FieldDecl("v", False, Visibility.PUBLIC, TypeRef("T")),
                    FieldDecl("w", True, Visibility.PRIVATE, TypeRef("U")),
                ),
            ),
            TemplateDef(
                name="Base",
                kind=TemplateKind.TRAIT,
                type_params=("X",),
                abstract_type_members=frozenset({"B", "A"}),
            ),
        ]
    )
    first = serialize_ir(graph)
    loaded = load_ir(first)
    assert loaded.templates == graph.templates
    assert loaded.externals == graph.externals
    assert serialize_ir(loaded) == first
    # Abstract members serialize sorted regardless of set iteration order.
    node = json.loads(first)["templates"][1]
    assert node["abstract_types"] == ["A", "B"]


def test_empty_graph_serializes_to_empty_list():
    data = serialize_ir(build_graph([]))
    assert json.loads(data) == {"templates": []}
    assert load_ir(data).templates == {}
