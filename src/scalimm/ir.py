"""Template-graph intermediate representation and its serialized form.

The IR captures exactly what the immutability analysis consumes from a
corpus: template definitions (classes, traits and objects, plus their case
and anonymous variants) with their type parameters, abstract type members,
parents and fields.  A ``TemplateGraph`` is immutable once built and safe
to share between any number of concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from enum import Enum

__all__ = [
    "INFERRED_HEAD",
    "FieldDecl",
    "IRError",
    "MAX_TEMPLATE_NESTING",
    "MAX_TYPE_DEPTH",
    "TemplateDef",
    "TemplateGraph",
    "TemplateKind",
    "TypeRef",
    "UNPARAMETERIZED_KINDS",
    "Visibility",
    "build_graph",
    "iter_type_refs",
    "load_ir",
    "serialize_ir",
    "template_dependencies",
]

#: Placeholder head for fields whose declared type the frontend could not
#: recover (no annotation, initializer skipped).  Always evaluates unknown.
INFERRED_HEAD = "$inferred"

#: How deep a type (``P[P[Int]]`` is 3 levels) and template bodies, anonymous
#: ones included, may nest.  The frontend rejects deeper input and load_ir
#: deeper types, which keeps the parser and the walkers over TypeRef well
#: inside Python's recursion limit.
MAX_TYPE_DEPTH = 100
MAX_TEMPLATE_NESTING = 100


class TemplateKind(Enum):
    """The six template categories the result tables report separately."""

    CLASS = "class"
    CASE_CLASS = "case_class"
    ANON_CLASS = "anon_class"
    TRAIT = "trait"
    OBJECT = "object"
    CASE_OBJECT = "case_object"


#: Kinds that can carry neither type parameters nor abstract type members.
UNPARAMETERIZED_KINDS = frozenset(
    {TemplateKind.OBJECT, TemplateKind.CASE_OBJECT, TemplateKind.ANON_CLASS}
)


class Visibility(Enum):
    """Field visibility.  Only two levels exist: protected and
    package-private surface forms collapse to PUBLIC, since visibility
    feeds nothing but the public/private split of reassignable-field
    attributes."""

    PUBLIC = "public"
    PRIVATE = "private"


@dataclass(frozen=True)
class TypeRef:
    """A type reference: a (possibly dotted) head and optional type arguments.

    The head is either a qualified name or a single identifier to be
    resolved against the enclosing template's scope.  Instances are finite
    trees; an argument list is only meaningful when the head refers to a
    generic template.
    """

    head: str
    args: tuple[TypeRef, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}[{', '.join(str(a) for a in self.args)}]"


@dataclass(frozen=True)
class FieldDecl:
    """One declared field of a template."""

    name: str
    reassignable: bool
    visibility: Visibility
    declared_type: TypeRef


class IRError(ValueError):
    """Malformed or invariant-violating IR document.

    ``path`` locates the offending node in the document when known, e.g.
    ``templates[3].fields[1].type.head``.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class TemplateDef:
    """One analyzed type definition.

    Invariants, checked on construction:

    * objects, case objects and anonymous classes carry no type parameters
      and no abstract type members;
    * type_params and abstract_type_members are disjoint;
    * anonymous classes have exactly one parent;
    * field names are unique within the template.
    """

    name: str
    kind: TemplateKind
    type_params: tuple[str, ...] = ()
    abstract_type_members: frozenset[str] = frozenset()
    parents: tuple[TypeRef, ...] = ()
    fields: tuple[FieldDecl, ...] = ()

    def __post_init__(self) -> None:
        if self.kind in UNPARAMETERIZED_KINDS and (
            self.type_params or self.abstract_type_members
        ):
            raise ValueError(
                f"{self.kind.value} template {self.name!r} cannot have type "
                "parameters or abstract type members"
            )
        overlap = set(self.type_params) & self.abstract_type_members
        if overlap:
            raise ValueError(
                f"template {self.name!r}: {sorted(overlap)} declared both as "
                "type parameter and abstract type member"
            )
        if self.kind is TemplateKind.ANON_CLASS and len(self.parents) != 1:
            raise ValueError(
                f"anonymous class {self.name!r} must have exactly one parent, "
                f"got {len(self.parents)}"
            )
        seen: set[str] = set()
        for f in self.fields:
            if f.name in seen:
                raise ValueError(
                    f"template {self.name!r}: duplicate field name {f.name!r}"
                )
            seen.add(f.name)

    @property
    def has_abstract_types(self) -> bool:
        """Whether any type is abstract inside this template's body."""
        return bool(self.type_params) or bool(self.abstract_type_members)

    def declares_abstract(self, head: str) -> bool:
        """Whether a reference head names a type parameter or abstract type
        member of this template, shadowing any equally named template.  A
        dotted head is never abstract."""
        return "." not in head and (
            head in self.type_params or head in self.abstract_type_members
        )


@dataclass(frozen=True)
class TemplateGraph:
    """A whole corpus: name-indexed templates, the external names they
    reference and, per template, the graph templates its references
    resolve to (first mention first).  Immutable after construction."""

    templates: dict[str, TemplateDef]
    externals: frozenset[str]
    dependencies: dict[str, tuple[str, ...]]


# ---- reference walking ----------------------------------------------------


def iter_type_refs(template: TemplateDef) -> Iterator[TypeRef]:
    """All top-level type references of a template: parents first, then
    declared field types.  Arguments are not flattened; walk them yourself
    if you need every node."""
    yield from template.parents
    for f in template.fields:
        yield f.declared_type


def template_dependencies(graph: TemplateGraph, template: TemplateDef) -> frozenset[str]:
    """Graph templates whose verdicts can influence this template's transfer:
    the set form of ``graph.dependencies[template.name]``."""
    return frozenset(graph.dependencies[template.name])


def build_graph(templates: Iterable[TemplateDef]) -> TemplateGraph:
    """Index templates by name, rejecting duplicates, and resolve every
    reference once.

    Each reference node (parents and field types, including nested type
    arguments) is resolved in its template's scope.  Heads abstract in that
    scope are neither dependencies nor externals, and the ``$inferred``
    placeholder is a marker, not a reference.  Every other head is a
    dependency when it names a graph template and an external otherwise.
    """
    index: dict[str, TemplateDef] = {}
    for t in templates:
        if t.name in index:
            raise IRError(f"duplicate template name {t.name!r}")
        index[t.name] = t

    externals: set[str] = set()
    dependencies: dict[str, tuple[str, ...]] = {}
    for t in index.values():
        internal: dict[str, None] = {}  # insertion-ordered set
        stack = list(iter_type_refs(t))[::-1]
        while stack:
            ref = stack.pop()
            head = ref.head
            if head != INFERRED_HEAD and not t.declares_abstract(head):
                if head in index:
                    internal[head] = None
                else:
                    externals.add(head)
            stack.extend(reversed(ref.args))
        dependencies[t.name] = tuple(internal)
    return TemplateGraph(index, frozenset(externals), dependencies)


# ---- serialized form ------------------------------------------------------

_KIND_BY_STRING = {k.value: k for k in TemplateKind}


def _require(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise IRError(message, path)


def _typeref_from_json(node: object, path: str, depth: int = 1) -> TypeRef:
    if depth > MAX_TYPE_DEPTH:
        raise IRError(f"nesting too deep: over {MAX_TYPE_DEPTH} type levels", path)
    _require(isinstance(node, dict), "expected an object", path)
    assert isinstance(node, dict)
    unknown = set(node) - {"head", "args"}
    _require(not unknown, f"unexpected keys {sorted(unknown)}", path)
    head = node.get("head")
    _require(isinstance(head, str) and head != "", "head must be a non-empty string", f"{path}.head")
    args_node = node.get("args", [])
    _require(isinstance(args_node, list), "args must be a list", f"{path}.args")
    args = tuple(
        _typeref_from_json(a, f"{path}.args[{i}]", depth + 1)
        for i, a in enumerate(args_node)
    )
    return TypeRef(head, args)


def _field_from_json(node: object, path: str) -> FieldDecl:
    _require(isinstance(node, dict), "expected an object", path)
    assert isinstance(node, dict)
    for key, typ in (("name", str), ("var", bool), ("private", bool)):
        _require(key in node, f"missing key {key!r}", path)
        _require(isinstance(node[key], typ), f"{key} must be {typ.__name__}", f"{path}.{key}")
    _require("type" in node, "missing key 'type'", path)
    return FieldDecl(
        name=node["name"],
        reassignable=node["var"],
        visibility=Visibility.PRIVATE if node["private"] else Visibility.PUBLIC,
        declared_type=_typeref_from_json(node["type"], f"{path}.type"),
    )


def _template_from_json(node: object, path: str) -> TemplateDef:
    _require(isinstance(node, dict), "expected an object", path)
    assert isinstance(node, dict)
    name = node.get("name")
    _require(isinstance(name, str) and name != "", "name must be a non-empty string", f"{path}.name")
    kind_str = node.get("kind")
    _require(isinstance(kind_str, str), "kind must be a string", f"{path}.kind")
    kind = _KIND_BY_STRING.get(kind_str)
    _require(kind is not None, f"unknown kind {kind_str!r}", f"{path}.kind")
    assert kind is not None
    tp_node = node.get("type_params", [])
    _require(
        isinstance(tp_node, list) and all(isinstance(p, str) for p in tp_node),
        "type_params must be a list of strings",
        f"{path}.type_params",
    )
    at_node = node.get("abstract_types", [])
    _require(
        isinstance(at_node, list) and all(isinstance(a, str) for a in at_node),
        "abstract_types must be a list of strings",
        f"{path}.abstract_types",
    )
    parents_node = node.get("parents", [])
    _require(isinstance(parents_node, list), "parents must be a list", f"{path}.parents")
    fields_node = node.get("fields", [])
    _require(isinstance(fields_node, list), "fields must be a list", f"{path}.fields")
    try:
        return TemplateDef(
            name=name,
            kind=kind,
            type_params=tuple(tp_node),
            abstract_type_members=frozenset(at_node),
            parents=tuple(
                _typeref_from_json(p, f"{path}.parents[{i}]")
                for i, p in enumerate(parents_node)
            ),
            fields=tuple(
                _field_from_json(f, f"{path}.fields[{i}]")
                for i, f in enumerate(fields_node)
            ),
        )
    except ValueError as exc:
        if isinstance(exc, IRError):
            raise
        raise IRError(str(exc), path) from None


def load_ir(document: bytes | str) -> TemplateGraph:
    """Parse and validate a serialized template graph.

    Raises IRError with a path into the document for malformed nodes,
    types nested deeper than MAX_TYPE_DEPTH, duplicate template names,
    unknown kind strings and kind-invariant violations.  Externals are recomputed, never trusted from the input.
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IRError(f"document is not UTF-8: {exc}") from None
    try:
        root = json.loads(document)
    except (ValueError, RecursionError) as exc:  # syntax, huge ints, depth
        raise IRError(f"invalid JSON: {exc}") from None
    _require(isinstance(root, dict), "expected a top-level object", "$")
    assert isinstance(root, dict)
    _require("templates" in root, "missing key 'templates'", "$")
    templates_node = root["templates"]
    _require(isinstance(templates_node, list), "templates must be a list", "$.templates")

    templates: list[TemplateDef] = []
    seen: dict[str, int] = {}
    for i, node in enumerate(templates_node):
        path = f"templates[{i}]"
        t = _template_from_json(node, path)
        if t.name in seen:
            raise IRError(
                f"duplicate template name {t.name!r} "
                f"(first defined at templates[{seen[t.name]}])",
                f"{path}.name",
            )
        seen[t.name] = i
        templates.append(t)
    return build_graph(templates)


def _typeref_to_json(ref: TypeRef) -> dict:
    return {"head": ref.head, "args": [_typeref_to_json(a) for a in ref.args]}


def serialize_ir(graph: TemplateGraph) -> bytes:
    """Serialize a graph to its canonical UTF-8 document form.

    Output is deterministic: templates keep graph order, abstract type
    members are emitted sorted, and key order is fixed, so serializing a
    loaded document reproduces it byte for byte.
    """
    doc = {
        "templates": [
            {
                "name": t.name,
                "kind": t.kind.value,
                "type_params": list(t.type_params),
                "abstract_types": sorted(t.abstract_type_members),
                "parents": [_typeref_to_json(p) for p in t.parents],
                "fields": [
                    {
                        "name": f.name,
                        "var": f.reassignable,
                        "private": f.visibility is Visibility.PRIVATE,
                        "type": _typeref_to_json(f.declared_type),
                    }
                    for f in t.fields
                ],
            }
            for t in graph.templates.values()
        ]
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
