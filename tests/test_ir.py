"""IR construction, resolution, serialization and their invariants."""

import json
import random

import pytest
from graphgen import make_generic_graph, make_graph
from hypothesis import given
from hypothesis import strategies as st

from scalimm.classify import (
    AttributeKey,
    FieldTypeKind,
    evaluate_field_type,
    transfer,
)
from scalimm.ir import (
    FieldDecl,
    INFERRED_HEAD,
    IRError,
    MAX_TYPE_DEPTH,
    TemplateDef,
    TemplateKind,
    TypeRef,
    Visibility,
    build_graph,
    load_ir,
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


#: The fields of one template per invariant TemplateDef rejects.
INVALID_TEMPLATES = {
    "object-type-parameter": dict(name="O", kind=TemplateKind.OBJECT, type_params=("T",)),
    "repeated-type-parameter": dict(name="C", kind=TemplateKind.CLASS, type_params=("T", "T")),
    "parameter-and-member": dict(
        name="T", kind=TemplateKind.TRAIT, type_params=("X",),
        abstract_type_members=frozenset({"X"}),
    ),
    "anonymous-without-parent": dict(name="A$anon$1", kind=TemplateKind.ANON_CLASS),
    "duplicate-field": dict(
        name="C", kind=TemplateKind.CLASS, fields=(val("x", "A"), val("x", "B"))
    ),
    "parent-is-own-parameter": dict(
        name="S", kind=TemplateKind.CLASS, type_params=("T",), parents=(TypeRef("T"),)
    ),
}


@pytest.mark.parametrize("fields", INVALID_TEMPLATES.values(), ids=INVALID_TEMPLATES.keys())
def test_no_way_of_building_a_template_skips_its_invariants(fields):
    defaults = TemplateDef._field_defaults
    positional = [fields.get(n, defaults.get(n)) for n in TemplateDef._fields]
    valid = TemplateDef("Valid", TemplateKind.CLASS)
    for build in (
        lambda: TemplateDef(*positional),
        lambda: TemplateDef(**fields),
        lambda: TemplateDef._make(positional),
        lambda: valid._replace(**fields),
    ):
        with pytest.raises(ValueError):
            build()


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


# ---- head resolution ------------------------------------------------------
#
# A head is resolved where it is evaluated: evaluate_field_type for field
# types and type arguments, transfer for parents.  The scope rule itself is
# TemplateDef.declares_abstract.

ABSTRACT = FieldTypeKind.ABSTRACT
UNKNOWN = FieldTypeKind.UNKNOWN
DEEP = FieldTypeKind.DEEP
MUTABLE = FieldTypeKind.MUTABLE
ASSUMED_MUTABLE = FieldTypeKind.ASSUMED_MUTABLE


@pytest.fixture
def little_graph():
    return build_graph(
        [
            TemplateDef(name="P", kind=TemplateKind.CLASS, type_params=("T",)),
            TemplateDef(name="Q", kind=TemplateKind.CLASS),
        ]
    )


def evaluate(graph, scope_name, head, assignment=None, assumptions=None):
    if assignment is None:
        assignment = {name: Verdict.DEEP_IMMUTABLE for name in graph.templates}
    return evaluate_field_type(
        TypeRef(head), graph.templates[scope_name], assignment, graph, assumptions
    )


def test_resolution_order(little_graph):
    # Abstract in scope, then graph template, then assumption, then unknown.
    # Q is mutable here so that the graph verdict is told apart from the
    # deep assumption that loses to it.
    assignment = {"P": Verdict.DEEP_IMMUTABLE, "Q": Verdict.MUTABLE}
    assumptions = {
        "T": Verdict.DEEP_IMMUTABLE,
        "Q": Verdict.DEEP_IMMUTABLE,
        "lib.Buf": Verdict.MUTABLE,
    }

    def head(name):
        return evaluate(little_graph, "P", name, assignment, assumptions)

    assert head("T") == ABSTRACT
    assert head("Q") == MUTABLE
    assert head("lib.Buf") == ASSUMED_MUTABLE
    assert head("x.y.Z") == UNKNOWN

    # The same order for parents: internal mutable is B, assumed mutable A,
    # unresolved E.
    child = TemplateDef(
        name="R",
        kind=TemplateKind.CLASS,
        parents=(TypeRef("Q"), TypeRef("lib.Buf"), TypeRef("x.y.Z")),
    )
    result = transfer(child, assignment, little_graph, assumptions)
    assert result.verdict is Verdict.MUTABLE
    assert [record.attribute for record in result.evidence] == [
        AttributeKey.PARENT_MUTABLE,
        AttributeKey.PARENT_ASSUMED_MUTABLE,
        AttributeKey.PARENT_UNKNOWN,
    ]


def test_abstract_in_scope_shadows_graph_templates():
    graph = build_graph(
        [
            TemplateDef(name="T", kind=TemplateKind.CLASS),
            TemplateDef(name="S", kind=TemplateKind.CLASS, type_params=("T",)),
        ]
    )
    assignment = {"T": Verdict.MUTABLE, "S": Verdict.DEEP_IMMUTABLE}
    assert evaluate(graph, "S", "T", assignment) == ABSTRACT
    assert evaluate(graph, "T", "T", assignment) == MUTABLE
    # As a parent, the shadowed head is the template's own type parameter,
    # which the template rejects when it is built; a dotted head is not.
    with pytest.raises(ValueError, match="abstract in its own scope"):
        TemplateDef(
            name="S", kind=TemplateKind.CLASS, type_params=("T",), parents=(TypeRef("T"),)
        )
    TemplateDef(
        name="S", kind=TemplateKind.CLASS, type_params=("T",), parents=(TypeRef("T.U"),)
    )


def test_inferred_head_always_resolves_unknown(little_graph):
    assumptions = {INFERRED_HEAD: Verdict.DEEP_IMMUTABLE}
    assert evaluate(little_graph, "Q", INFERRED_HEAD, assumptions=assumptions) == UNKNOWN


def test_abstractness_is_scope_relative(little_graph):
    # T is a type parameter of P, but inside Q it resolves to nothing.
    assert evaluate(little_graph, "P", "T") == ABSTRACT
    assert evaluate(little_graph, "Q", "T") == UNKNOWN


def test_declares_abstract_never_matches_a_dotted_head():
    scope = TemplateDef(
        name="S",
        kind=TemplateKind.TRAIT,
        type_params=("T", "a.B"),
        abstract_type_members=frozenset({"M", "x.Y"}),
    )
    assert scope.declares_abstract("T")
    assert scope.declares_abstract("M")
    assert not scope.declares_abstract("a.B")
    assert not scope.declares_abstract("x.Y")
    assert not scope.declares_abstract("S")
    assert not scope.declares_abstract("U")


@given(st.text(alphabet="ABC.xyz", min_size=1, max_size=8))
def test_resolution_is_total(head):
    graph = build_graph(
        [
            TemplateDef(name="A", kind=TemplateKind.CLASS, type_params=("B",)),
            TemplateDef(name="C", kind=TemplateKind.CLASS),
        ]
    )
    if head == "B":
        expected = ABSTRACT
    elif head in graph.templates:
        expected = DEEP
    else:
        expected = UNKNOWN
    assert evaluate(graph, "A", head) == expected


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


def valid_document():
    """A document that loads, with one node of every sort to corrupt.
    ``templates[1].fields[0].type`` is ``Map[K, Box[scala.Int]]``."""
    return {
        "templates": [
            {
                "name": "Box",
                "kind": "class",
                "type_params": ["T"],
                "abstract_types": [],
                "parents": [],
                "fields": [
                    {"name": "v", "var": False, "private": False, "type": {"head": "T"}}
                ],
            },
            {
                "name": "A",
                "kind": "class",
                "type_params": [],
                "abstract_types": ["M"],
                "parents": [{"head": "Box", "args": [{"head": "M"}]}],
                "fields": [
                    {
                        "name": "x",
                        "var": False,
                        "private": True,
                        "type": {
                            "head": "Map",
                            "args": [
                                {"head": "K"},
                                {"head": "Box", "args": [{"head": "scala.Int", "args": []}]},
                            ],
                        },
                    }
                ],
            },
        ]
    }


def templates(d):
    return d["templates"]


def template(d):
    return templates(d)[1]


def fields(d):
    return template(d)["fields"]


def field(d):
    return fields(d)[0]


def field_type(d):
    return field(d)["type"]


def inner_args(d):
    return field_type(d)["args"][1]["args"]


def inner_type(d):
    return inner_args(d)[0]


def setting(node, key, value):
    def edit(d):
        node(d)[key] = value
    return edit


def deleting(node, key):
    def edit(d):
        del node(d)[key]
    return edit


T = "templates[1]"
F = f"{T}.fields[0]"
TY = f"{F}.type"
INNER = f"{TY}.args[1].args[0]"

#: One corrupted node per case: the edit, then the exact path and message.
LOADER_DIAGNOSTICS = [
    # top level
    ("not-utf8", b"\xff", None,
     "document is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    ("bad-json", b"{", None,
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("root-list", b"[]", "$", "expected a top-level object"),
    ("root-no-templates", b"{}", "$", "missing key 'templates'"),
    ("templates-object", b'{"templates": {}}', "$.templates", "templates must be a list"),
    ("duplicate-name", setting(template, "name", "Box"), f"{T}.name",
     "duplicate template name 'Box' (first defined at templates[0])"),
    # template
    ("template-list", setting(templates, 1, []), T, "expected an object"),
    ("name-missing", deleting(template, "name"), f"{T}.name", "name must be a non-empty string"),
    ("name-empty", setting(template, "name", ""), f"{T}.name", "name must be a non-empty string"),
    ("name-int", setting(template, "name", 3), f"{T}.name", "name must be a non-empty string"),
    ("kind-missing", deleting(template, "kind"), f"{T}.kind", "kind must be a string"),
    ("kind-int", setting(template, "kind", 3), f"{T}.kind", "kind must be a string"),
    ("kind-unknown", setting(template, "kind", "struct"), f"{T}.kind", "unknown kind 'struct'"),
    ("type-params-str", setting(template, "type_params", "T"), f"{T}.type_params",
     "type_params must be a list of strings"),
    ("type-params-int", setting(template, "type_params", [1]), f"{T}.type_params",
     "type_params must be a list of strings"),
    ("abstract-types-object", setting(template, "abstract_types", {}), f"{T}.abstract_types",
     "abstract_types must be a list of strings"),
    ("abstract-types-null", setting(template, "abstract_types", [None]), f"{T}.abstract_types",
     "abstract_types must be a list of strings"),
    ("abstract-types-repeated", setting(template, "abstract_types", ["M", "N", "M"]),
     f"{T}.abstract_types", "duplicate abstract type 'M'"),
    ("parents-object", setting(template, "parents", {}), f"{T}.parents",
     "parents must be a list"),
    ("fields-str", setting(template, "fields", "x"), f"{T}.fields", "fields must be a list"),
    # template kind invariants
    ("object-with-members", setting(template, "kind", "object"), T,
     "object template 'A' cannot have type parameters or abstract type members"),
    ("param-and-member", setting(template, "type_params", ["M"]), T,
     "template 'A': ['M'] declared both as type parameter and abstract type member"),
    ("type-params-repeated", setting(template, "type_params", ["T", "U", "T"]), T,
     "template 'A': duplicate type parameter 'T'"),
    ("anon-without-parent",
     lambda d: template(d).update(kind="anon_class", abstract_types=[], parents=[]), T,
     "anonymous class 'A' must have exactly one parent, got 0"),
    ("duplicate-field", lambda d: fields(d).append(dict(field(d))), T,
     "template 'A': duplicate field name 'x'"),
    # field
    ("field-int", setting(fields, 0, 5), F, "expected an object"),
    ("field-name-missing", deleting(field, "name"), F, "missing key 'name'"),
    ("field-name-int", setting(field, "name", 1), f"{F}.name", "name must be a non-empty string"),
    ("field-name-empty", setting(field, "name", ""), f"{F}.name",
     "name must be a non-empty string"),
    ("field-var-missing", deleting(field, "var"), F, "missing key 'var'"),
    ("field-var-str", setting(field, "var", "no"), f"{F}.var", "var must be bool"),
    ("field-var-int", setting(field, "var", 0), f"{F}.var", "var must be bool"),
    ("field-private-missing", deleting(field, "private"), F, "missing key 'private'"),
    ("field-private-null", setting(field, "private", None), f"{F}.private",
     "private must be bool"),
    ("field-type-missing", deleting(field, "type"), F, "missing key 'type'"),
    ("field-type-str", setting(field, "type", "Int"), TY, "expected an object"),
    # type node
    ("type-unexpected-key", setting(field_type, "arity", 2), TY, "unexpected keys ['arity']"),
    ("type-unexpected-keys", lambda d: field_type(d).update(b=1, a=2), TY,
     "unexpected keys ['a', 'b']"),
    ("head-missing", deleting(field_type, "head"), f"{TY}.head",
     "head must be a non-empty string"),
    ("head-empty", setting(field_type, "head", ""), f"{TY}.head",
     "head must be a non-empty string"),
    ("head-int", setting(field_type, "head", 7), f"{TY}.head",
     "head must be a non-empty string"),
    ("args-object", setting(field_type, "args", {}), f"{TY}.args", "args must be a list"),
    ("args-null", setting(field_type, "args", None), f"{TY}.args", "args must be a list"),
    ("inner-str", setting(inner_args, 0, "Int"), INNER, "expected an object"),
    ("inner-head-empty", setting(inner_type, "head", ""), f"{INNER}.head",
     "head must be a non-empty string"),
    ("inner-args-str", setting(inner_type, "args", "x"), f"{INNER}.args",
     "args must be a list"),
    ("parent-arg-head-missing",
     lambda d: template(d)["parents"][0]["args"][0].pop("head"),
     f"{T}.parents[0].args[0].head", "head must be a non-empty string"),
    ("parent-null", setting(lambda d: template(d)["parents"], 0, None),
     f"{T}.parents[0]", "expected an object"),
    ("too-deep", lambda d: field(d).update(type=nested_type(MAX_TYPE_DEPTH + 1)),
     TY + ".args[0]" * MAX_TYPE_DEPTH, f"nesting too deep: over {MAX_TYPE_DEPTH} type levels"),
]


def load_corrupted(edit):
    if isinstance(edit, bytes):
        return load_ir(edit)
    document = valid_document()
    edit(document)
    return load_ir(json.dumps(document))


def test_valid_document_loads():
    graph = load_ir(json.dumps(valid_document()))
    assert str(graph.templates["A"].fields[0].declared_type) == "Map[K, Box[scala.Int]]"
    assert str(graph.templates["A"].parents[0]) == "Box[M]"


@pytest.mark.parametrize(
    "edit, path, message",
    [pytest.param(*case[1:], id=case[0]) for case in LOADER_DIAGNOSTICS],
)
def test_every_loader_diagnostic_has_its_exact_path_and_message(edit, path, message):
    with pytest.raises(IRError) as info:
        load_corrupted(edit)
    assert info.value.path == path
    assert str(info.value) == (f"{path}: {message}" if path else message)


@pytest.mark.parametrize(
    "edit, path, message",
    [
        pytest.param(
            setting(lambda d: d, "version", 1), "$", "unexpected keys ['version']", id="root"
        ),
        pytest.param(
            lambda d: template(d).update(parent=template(d).pop("parents")),
            T,
            "unexpected keys ['parent']",
            id="template",
        ),
        pytest.param(
            setting(field, "mutable", True), F, "unexpected keys ['mutable']", id="field"
        ),
    ],
)
def test_load_rejects_unknown_keys_at_every_level(edit, path, message):
    # A misspelt key must not be dropped: {"parent": [...]} on a template
    # would otherwise load as a template with no parents.
    with pytest.raises(IRError) as info:
        load_corrupted(edit)
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


def nested_type(depth):
    """``P[P[...[Int]]]``, ``depth`` levels deep, as a document node."""
    node = {"head": "Int"}
    for _ in range(depth - 1):
        node = {"head": "P", "args": [node]}
    return node


@given(st.integers(min_value=1, max_value=2 * MAX_TYPE_DEPTH), st.booleans())
def test_load_rejects_types_past_the_depth_limit(depth, as_parent):
    template = {"name": "A", "kind": "class"}
    if as_parent:
        template["parents"] = [nested_type(depth)]
        path = "templates[0].parents[0]"
    else:
        field = {"name": "f", "var": False, "private": False, "type": nested_type(depth)}
        template["fields"] = [field]
        path = "templates[0].fields[0].type"
    if depth > MAX_TYPE_DEPTH:
        with pytest.raises(IRError, match="nesting too deep") as info:
            load_ir(doc([template]))
        # The path names the first node past the limit.
        assert info.value.path == path + ".args[0]" * MAX_TYPE_DEPTH
        return
    a = load_ir(doc([template])).templates["A"]
    (loaded,) = a.parents if as_parent else [f.declared_type for f in a.fields]
    levels = 1
    while loaded.args:
        (loaded,) = loaded.args
        levels += 1
    assert levels == depth


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


# ---- loading at scale ----------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32), st.booleans())
def test_generated_graphs_round_trip(seed, generic):
    graph, _ = (make_generic_graph if generic else make_graph)(random.Random(seed))
    assert load_ir(serialize_ir(graph)) == graph


def counted_names(n):
    """``n`` distinct names, as a str subclass that counts every ``==``
    made with one, and that count."""
    count = [0]

    class Name(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            count[0] += 1
            return str.__eq__(self, other)

    return [Name(f"T{i}") for i in range(n)], count


def test_repeated_type_parameter_check_is_linear():
    n = 1000
    names, count = counted_names(n)
    TemplateDef("A", TemplateKind.CLASS, tuple(names))
    assert count[0] <= n
    repeated = [*names, names[n // 2]]
    with pytest.raises(ValueError, match=r"^template 'A': duplicate type parameter 'T500'$"):
        TemplateDef("A", TemplateKind.CLASS, tuple(repeated))


def test_repeated_abstract_type_check_is_linear(monkeypatch):
    n = 1000
    names, count = counted_names(n)
    decode = json.loads

    def loads(text, **kwargs):
        root = decode(text, **kwargs)
        root["templates"][0]["abstract_types"] = list(names)
        return root

    monkeypatch.setattr(json, "loads", loads)
    members = load_ir(doc([{"name": "A", "kind": "trait"}])).templates["A"].abstract_type_members
    assert count[0] <= n
    assert sorted(members) == sorted(names)
    names.append(names[n // 2])
    with pytest.raises(IRError) as info:
        load_ir(doc([{"name": "A", "kind": "trait"}]))
    assert str(info.value) == "templates[0].abstract_types: duplicate abstract type 'T500'"
