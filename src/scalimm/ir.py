"""Template-graph intermediate representation and its serialized form.

The IR captures exactly what the immutability analysis consumes from a
corpus: template definitions (classes, traits and objects, plus their case
and anonymous variants) with their type parameters, abstract type members,
parents and fields.  A ``TemplateGraph`` is immutable once built and safe
to share between any number of concurrent readers.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, NamedTuple

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


class TypeRef(NamedTuple):
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


class FieldDecl(NamedTuple):
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


class _TemplateFields(NamedTuple):
    name: str
    kind: TemplateKind
    type_params: tuple[str, ...] = ()
    abstract_type_members: frozenset[str] = frozenset()
    parents: tuple[TypeRef, ...] = ()
    fields: tuple[FieldDecl, ...] = ()


class TemplateDef(_TemplateFields):
    """One analyzed type definition.

    Invariants, checked on every construction, ``_make`` and ``_replace``
    included:

    * the name is not ``INFERRED_HEAD``, which stands for a missing type;
    * objects, case objects and anonymous classes carry no type parameters
      and no abstract type members;
    * type parameters are unique and disjoint from abstract_type_members;
    * anonymous classes have exactly one parent;
    * field names are unique within the template;
    * no parent head is abstract in the template's own scope, that is,
      names one of its type parameters or abstract type members.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> TemplateDef:
        self = super().__new__(cls, *args, **kwargs)
        if self.name == INFERRED_HEAD:
            raise ValueError(f"template name {INFERRED_HEAD!r} is reserved")
        if self.kind in UNPARAMETERIZED_KINDS and (
            self.type_params or self.abstract_type_members
        ):
            raise ValueError(
                f"{self.kind.value} template {self.name!r} cannot have type "
                "parameters or abstract type members"
            )
        param = _first_repeat(self.type_params)
        if param is not None:
            raise ValueError(
                f"template {self.name!r}: duplicate type parameter {param!r}"
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
        for parent in self.parents:
            if self.declares_abstract(parent.head):
                raise ValueError(
                    f"template {self.name!r}: parent {parent} is abstract in "
                    "its own scope and cannot be extended"
                )
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> TemplateDef:
        return cls(*iterable)

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


def _first_repeat(names: Iterable[str]) -> str | None:
    """The first name equal to an earlier one, found in one pass, or None."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


class TemplateGraph(NamedTuple):
    """A whole corpus: name-indexed templates, the external names they
    reference and, per template, the graph templates its references
    resolve to (first mention first).  Immutable after construction."""

    templates: dict[str, TemplateDef]
    externals: frozenset[str]
    dependencies: dict[str, tuple[str, ...]]


# ---- reference walking ----------------------------------------------------


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
        stack = [f.declared_type for f in reversed(t.fields)]
        stack.extend(reversed(t.parents))
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
_TEMPLATE_KEYS = frozenset({"name", "kind", "type_params", "abstract_types", "parents", "fields"})
_FIELD_KEYS = frozenset({"name", "var", "private", "type"})
_TYPE_KEYS = frozenset({"head", "args"})


class _Invalid(Exception):
    """A malformed node, with a path relative to the node that was checked.
    Each enclosing level prepends its own segment as the error unwinds, so
    loading a valid document formats no path at all."""

    def __init__(self, message: str, path: str = "") -> None:
        self.message = message
        self.path = path

    def within(self, segment: str) -> _Invalid:
        self.path = segment + self.path
        return self


def _object(node: object, keys: frozenset[str]) -> dict:
    """``node`` itself, checked to be an object with no key outside ``keys``."""
    if not isinstance(node, dict):
        raise _Invalid("expected an object")
    if not node.keys() <= keys:
        raise _Invalid(f"unexpected keys {sorted(node.keys() - keys)}")
    return node


def _each(parse: Callable[..., object], nodes: list, segment: str, *extra: int) -> tuple:
    """``parse`` applied to every item of ``nodes``, in order."""
    items = []
    try:
        for node in nodes:
            items.append(parse(node, *extra))
    except _Invalid as exc:
        raise exc.within(f"{segment}[{len(items)}]")
    return tuple(items)


def _typeref_from_json(node: object, depth: int = 1) -> TypeRef:
    if depth > MAX_TYPE_DEPTH:
        raise _Invalid(f"nesting too deep: over {MAX_TYPE_DEPTH} type levels")
    node = _object(node, _TYPE_KEYS)
    head = node.get("head")
    if not isinstance(head, str) or not head:
        raise _Invalid("head must be a non-empty string", ".head")
    args_node = node.get("args", [])
    if not isinstance(args_node, list):
        raise _Invalid("args must be a list", ".args")
    if not args_node:
        return TypeRef(head)
    return TypeRef(head, _each(_typeref_from_json, args_node, ".args", depth + 1))


def _field_from_json(node: object) -> FieldDecl:
    node = _object(node, _FIELD_KEYS)
    for key, typ in (("name", str), ("var", bool), ("private", bool)):
        if key not in node:
            raise _Invalid(f"missing key {key!r}")
        if not isinstance(node[key], typ):
            what = "a non-empty string" if typ is str else typ.__name__
            raise _Invalid(f"{key} must be {what}", f".{key}")
    if not node["name"]:
        raise _Invalid("name must be a non-empty string", ".name")
    if "type" not in node:
        raise _Invalid("missing key 'type'")
    visibility = Visibility.PRIVATE if node["private"] else Visibility.PUBLIC
    try:
        return FieldDecl(node["name"], node["var"], visibility, _typeref_from_json(node["type"]))
    except _Invalid as exc:
        raise exc.within(".type")


def _template_from_json(node: object) -> TemplateDef:
    node = _object(node, _TEMPLATE_KEYS)
    name = node.get("name")
    if not isinstance(name, str) or not name:
        raise _Invalid("name must be a non-empty string", ".name")
    kind_str = node.get("kind")
    if not isinstance(kind_str, str):
        raise _Invalid("kind must be a string", ".kind")
    kind = _KIND_BY_STRING.get(kind_str)
    if kind is None:
        raise _Invalid(f"unknown kind {kind_str!r}", ".kind")
    tp_node = node.get("type_params", [])
    if not isinstance(tp_node, list) or not all(isinstance(p, str) for p in tp_node):
        raise _Invalid("type_params must be a list of strings", ".type_params")
    at_node = node.get("abstract_types", [])
    if not isinstance(at_node, list) or not all(isinstance(a, str) for a in at_node):
        raise _Invalid("abstract_types must be a list of strings", ".abstract_types")
    member = _first_repeat(at_node)
    if member is not None:
        raise _Invalid(f"duplicate abstract type {member!r}", ".abstract_types")
    parents_node = node.get("parents", [])
    if not isinstance(parents_node, list):
        raise _Invalid("parents must be a list", ".parents")
    fields_node = node.get("fields", [])
    if not isinstance(fields_node, list):
        raise _Invalid("fields must be a list", ".fields")
    parents = _each(_typeref_from_json, parents_node, ".parents")
    fields = _each(_field_from_json, fields_node, ".fields")
    try:
        return TemplateDef(name, kind, tuple(tp_node), frozenset(at_node), parents, fields)
    except ValueError as exc:
        raise _Invalid(str(exc)) from None


def load_ir(document: bytes | str) -> TemplateGraph:
    """Parse and validate a serialized template graph.

    Raises IRError with a path into the document for malformed nodes, keys
    a node does not define (a misspelt key is never silently dropped),
    types nested deeper than MAX_TYPE_DEPTH, duplicate template names,
    repeated abstract types (the frozenset would drop the repeat, and the
    round trip with it), unknown kind strings and template invariant
    violations.  Externals are recomputed, never trusted from the input.
    Bytes are decoded as UTF-8 with a leading byte-order mark dropped.
    """
    import json  # here, so a run that reads only sources never loads it

    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise IRError(f"document is not UTF-8: {exc}") from None
    try:
        root = json.loads(document)
    except (ValueError, RecursionError) as exc:  # syntax, huge ints, depth
        raise IRError(f"invalid JSON: {exc}") from None
    if not isinstance(root, dict):
        raise IRError("expected a top-level object", "$")
    unknown = sorted(root.keys() - {"templates"})
    if unknown:
        raise IRError(f"unexpected keys {unknown}", "$")
    if "templates" not in root:
        raise IRError("missing key 'templates'", "$")
    templates_node = root["templates"]
    if not isinstance(templates_node, list):
        raise IRError("templates must be a list", "$.templates")

    templates: list[TemplateDef] = []
    seen: dict[str, int] = {}
    try:
        for i, node in enumerate(templates_node):
            t = _template_from_json(node)
            if t.name in seen:
                raise IRError(
                    f"duplicate template name {t.name!r} "
                    f"(first defined at templates[{seen[t.name]}])",
                    f"templates[{i}].name",
                )
            seen[t.name] = i
            templates.append(t)
    except _Invalid as exc:
        raise IRError(exc.message, f"templates[{len(templates)}]{exc.path}") from None
    return build_graph(templates)


def _typeref_to_json(ref: TypeRef) -> dict:
    return {"head": ref.head, "args": [_typeref_to_json(a) for a in ref.args]}


def serialize_ir(graph: TemplateGraph) -> bytes:
    """Serialize a graph to its canonical UTF-8 document form.

    Output is deterministic: templates keep graph order, abstract type
    members are emitted sorted, and key order is fixed, so serializing a
    loaded document reproduces it byte for byte.
    """
    import json

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
