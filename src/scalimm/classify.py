"""Immutability classification: the transfer function and its attributes.

A template's verdict is computed from its own declared fields and from the
verdicts of its parents, with generic types evaluated by substituting the
supplied type arguments.  Every downgrade below deep immutability is
tagged with an attribute key (a letter A through J) and an evidence record
saying which parent or field caused it, so results stay explainable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Mapping

from .ir import (
    AbstractInScope,
    Assumed,
    Internal,
    TemplateDef,
    TemplateGraph,
    TypeRef,
    UNPARAMETERIZED_KINDS,
    Unknown,
    Visibility,
    resolve_type_ref,
)
from .lattice import (
    VERDICT_BY_TOKEN,
    FixpointResult,
    TransferFn,
    TransferResult,
    Verdict,
    meet,
    run_fixpoint,
)

__all__ = [
    "AnalysisResult",
    "AttributeKey",
    "ClassificationError",
    "EvidenceRecord",
    "FieldCause",
    "FieldTypeKind",
    "FieldTypeVerdict",
    "MUTABLE_ATTRIBUTES",
    "ParentCause",
    "SHALLOW_ATTRIBUTES",
    "classify_corpus",
    "evaluate_field_type",
    "make_transfer",
    "package_result",
    "transfer",
]


class AttributeKey(Enum):
    """Why a template failed to be deeply immutable.

    The letter values give the stable report spelling.  The first five
    letters explain mutable verdicts, the last five explain shallow ones;
    packaged results never mix the two groups under one verdict.
    """

    PARENT_ASSUMED_MUTABLE = "A"
    PARENT_MUTABLE = "B"
    PUBLIC_VAR = "C"
    PRIVATE_VAR = "D"
    PARENT_UNKNOWN = "E"
    PARENT_SHALLOW = "F"
    FIELD_TYPE_UNKNOWN = "G"
    FIELD_TYPE_MUTABLE = "H"
    FIELD_TYPE_ASSUMED_MUTABLE = "I"
    FIELD_TYPE_SHALLOW = "J"


MUTABLE_ATTRIBUTES = frozenset(
    {
        AttributeKey.PARENT_ASSUMED_MUTABLE,
        AttributeKey.PARENT_MUTABLE,
        AttributeKey.PUBLIC_VAR,
        AttributeKey.PRIVATE_VAR,
        AttributeKey.PARENT_UNKNOWN,
    }
)

SHALLOW_ATTRIBUTES = frozenset(
    {
        AttributeKey.PARENT_SHALLOW,
        AttributeKey.FIELD_TYPE_UNKNOWN,
        AttributeKey.FIELD_TYPE_MUTABLE,
        AttributeKey.FIELD_TYPE_ASSUMED_MUTABLE,
        AttributeKey.FIELD_TYPE_SHALLOW,
    }
)


@dataclass(frozen=True)
class ParentCause:
    """Evidence location in the parent list.  ``argument`` is set when the
    cause is one type argument of the parent rather than the parent
    itself."""

    parent: TypeRef
    argument: TypeRef | None = None


@dataclass(frozen=True)
class FieldCause:
    """Evidence location in the field list."""

    field: str
    declared_type: TypeRef


@dataclass(frozen=True)
class EvidenceRecord:
    """One attribute together with the parent or field that caused it."""

    attribute: AttributeKey
    cause: ParentCause | FieldCause


class FieldTypeKind(IntEnum):
    """How a field's declared type evaluates, ordered by severity.

    The order is chosen so that folding a generic type's arguments with
    ``min`` produces the same verdict a fully instantiated copy of the
    template would get.
    """

    MUTABLE = 0
    UNKNOWN = 1
    SHALLOW = 2
    ABSTRACT = 3
    DEEP = 4


@dataclass(frozen=True)
class FieldTypeVerdict:
    """Evaluation outcome for one type reference.  ``assumed`` records
    whether a mutable outcome came from the assumption list, which selects
    attribute I instead of H."""

    kind: FieldTypeKind
    assumed: bool = False


_DEEP = FieldTypeVerdict(FieldTypeKind.DEEP)
_ABSTRACT = FieldTypeVerdict(FieldTypeKind.ABSTRACT)
_SHALLOW = FieldTypeVerdict(FieldTypeKind.SHALLOW)
_UNKNOWN = FieldTypeVerdict(FieldTypeKind.UNKNOWN)


class ClassificationError(ValueError):
    """Ill-formed input reached the classifier, e.g. a template extending
    one of its own type parameters."""


def evaluate_field_type(
    ref: TypeRef,
    scope: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None = None,
) -> FieldTypeVerdict:
    """Evaluate a declared type against the current verdict assignment.

    Abstract-in-scope heads are abstract; unresolved heads are unknown;
    assumed and internal heads take their configured or computed verdict.
    A conditionally deep head is where substitution happens: its arguments
    are evaluated recursively and the weakest outcome wins, so the generic
    behaves exactly as if instantiated.  A conditionally deep head with no
    arguments supplied evaluates abstract when the scope itself has
    abstract types and unknown otherwise.
    """
    resolution = resolve_type_ref(graph, scope, ref, assumptions)
    if isinstance(resolution, AbstractInScope):
        return _ABSTRACT
    if isinstance(resolution, Unknown):
        return _UNKNOWN
    if isinstance(resolution, Assumed):
        base = resolution.verdict
        assumed = True
    else:
        assert isinstance(resolution, Internal)
        base = assignment[resolution.name]
        assumed = False
    if base is Verdict.MUTABLE:
        return FieldTypeVerdict(FieldTypeKind.MUTABLE, assumed=assumed)
    if base is Verdict.SHALLOW_IMMUTABLE:
        return _SHALLOW
    if base is Verdict.DEEP_IMMUTABLE:
        return _DEEP
    return _fold_type_args(ref, scope, assignment, graph, assumptions)


def _fold_type_args(
    ref: TypeRef,
    scope: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None,
) -> FieldTypeVerdict:
    """Substitute into a conditionally deep head by evaluating its
    arguments and keeping the weakest outcome."""
    if not ref.args:
        return _ABSTRACT if scope.has_abstract_types else _UNKNOWN
    outcomes = [
        evaluate_field_type(arg, scope, assignment, graph, assumptions)
        for arg in ref.args
    ]
    return min(outcomes, key=lambda o: o.kind)


def transfer(
    template: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None = None,
) -> TransferResult:
    """Compute one template's verdict, attributes and evidence.

    Starting from deep immutable, applies in order: declared reassignable
    fields, parents, declared non-reassignable fields.  Objects, case
    objects and anonymous classes cannot defer to their instantiation
    site, so any abstract outcome is demoted to unknown for them.
    Inherited reassignable fields are not re-attributed here; a mutable
    parent already lowers the child through the parent rule.

    Raises ClassificationError when a parent head names a type parameter
    or abstract type member of the template itself.
    """
    verdict = Verdict.DEEP_IMMUTABLE
    attributes: set[AttributeKey] = set()
    evidence: list[EvidenceRecord] = []
    collapse_abstract = template.kind in UNPARAMETERIZED_KINDS

    def contribute(
        v: Verdict,
        attr: AttributeKey | None,
        cause: ParentCause | FieldCause | None,
    ) -> None:
        nonlocal verdict
        verdict = meet(verdict, v)
        if attr is not None:
            attributes.add(attr)
            assert cause is not None
            evidence.append(EvidenceRecord(attr, cause))

    def apply_outcome(
        outcome: FieldTypeVerdict, cause: ParentCause | FieldCause
    ) -> None:
        kind = outcome.kind
        if kind is FieldTypeKind.ABSTRACT and collapse_abstract:
            kind = FieldTypeKind.UNKNOWN
        if kind is FieldTypeKind.DEEP:
            return
        if kind is FieldTypeKind.ABSTRACT:
            contribute(Verdict.CONDITIONALLY_DEEP, None, None)
        elif kind is FieldTypeKind.MUTABLE:
            attr = (
                AttributeKey.FIELD_TYPE_ASSUMED_MUTABLE
                if outcome.assumed
                else AttributeKey.FIELD_TYPE_MUTABLE
            )
            contribute(Verdict.SHALLOW_IMMUTABLE, attr, cause)
        elif kind is FieldTypeKind.UNKNOWN:
            contribute(
                Verdict.SHALLOW_IMMUTABLE, AttributeKey.FIELD_TYPE_UNKNOWN, cause
            )
        else:
            contribute(
                Verdict.SHALLOW_IMMUTABLE, AttributeKey.FIELD_TYPE_SHALLOW, cause
            )

    def fold_parent_args(parent: TypeRef) -> None:
        if not parent.args:
            kind = (
                FieldTypeKind.ABSTRACT
                if template.has_abstract_types
                else FieldTypeKind.UNKNOWN
            )
            apply_outcome(FieldTypeVerdict(kind), ParentCause(parent))
            return
        for arg in parent.args:
            outcome = evaluate_field_type(
                arg, template, assignment, graph, assumptions
            )
            apply_outcome(outcome, ParentCause(parent, arg))

    for f in template.fields:
        if f.reassignable:
            attr = (
                AttributeKey.PRIVATE_VAR
                if f.visibility is Visibility.PRIVATE
                else AttributeKey.PUBLIC_VAR
            )
            contribute(Verdict.MUTABLE, attr, FieldCause(f.name, f.declared_type))

    for parent in template.parents:
        resolution = resolve_type_ref(graph, template, parent, assumptions)
        if isinstance(resolution, AbstractInScope):
            raise ClassificationError(
                f"template {template.name!r}: parent {parent} is abstract in "
                "its own scope and cannot be extended"
            )
        if isinstance(resolution, Unknown):
            contribute(
                Verdict.MUTABLE, AttributeKey.PARENT_UNKNOWN, ParentCause(parent)
            )
            continue
        if isinstance(resolution, Assumed):
            base = resolution.verdict
            mutable_attr = AttributeKey.PARENT_ASSUMED_MUTABLE
        else:
            assert isinstance(resolution, Internal)
            base = assignment[resolution.name]
            mutable_attr = AttributeKey.PARENT_MUTABLE
        if base is Verdict.MUTABLE:
            contribute(Verdict.MUTABLE, mutable_attr, ParentCause(parent))
        elif base is Verdict.SHALLOW_IMMUTABLE:
            contribute(
                Verdict.SHALLOW_IMMUTABLE,
                AttributeKey.PARENT_SHALLOW,
                ParentCause(parent),
            )
        elif base is Verdict.CONDITIONALLY_DEEP:
            fold_parent_args(parent)

    for f in template.fields:
        if not f.reassignable:
            outcome = evaluate_field_type(
                f.declared_type, template, assignment, graph, assumptions
            )
            apply_outcome(outcome, FieldCause(f.name, f.declared_type))

    return TransferResult(verdict, frozenset(attributes), tuple(evidence))


def make_transfer(assumptions: Mapping[str, Verdict] | None = None) -> TransferFn:
    """Bind an assumption list, producing the engine-facing transfer."""

    def bound(
        graph: TemplateGraph, name: str, assignment: Mapping[str, Verdict]
    ) -> TransferResult:
        return transfer(graph.templates[name], assignment, graph, assumptions)

    return bound


@dataclass(frozen=True)
class AnalysisResult:
    """Classification of a whole corpus.

    Invariants: deep and conditionally deep templates carry no attributes;
    mutable templates carry at least one of A through E, shallow templates
    at least one of F through J; no object, case object or anonymous class
    is conditionally deep.
    """

    verdicts: dict[str, Verdict]
    attributes: dict[str, frozenset[AttributeKey]]
    evidence: dict[str, tuple[EvidenceRecord, ...]]


def package_result(graph: TemplateGraph, fix: FixpointResult) -> AnalysisResult:
    """Filter raw fixpoint attributes down to the verdict's own group and
    check the result invariants.

    The transfer function may report causes from both groups on one
    template (a reassignable field next to a mutable-typed value field);
    only the group matching the final verdict explains that verdict.
    """
    attributes: dict[str, frozenset[AttributeKey]] = {}
    evidence: dict[str, tuple[EvidenceRecord, ...]] = {}
    for name, verdict in fix.verdicts.items():
        if verdict is Verdict.MUTABLE:
            keep = MUTABLE_ATTRIBUTES
        elif verdict is Verdict.SHALLOW_IMMUTABLE:
            keep = SHALLOW_ATTRIBUTES
        else:
            keep = frozenset()
        attrs = fix.attributes[name] & keep
        attributes[name] = attrs
        evidence[name] = tuple(
            record for record in fix.evidence[name] if record.attribute in attrs
        )
        if verdict is Verdict.MUTABLE or verdict is Verdict.SHALLOW_IMMUTABLE:
            assert attrs, f"{verdict.name} template {name!r} has no attributes"
        if graph.templates[name].kind in UNPARAMETERIZED_KINDS:
            assert verdict is not Verdict.CONDITIONALLY_DEEP, (
                f"{graph.templates[name].kind.value} template {name!r} "
                "classified conditionally deep"
            )
    return AnalysisResult(dict(fix.verdicts), attributes, evidence)


def classify_corpus(
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None = None,
    *,
    rng: random.Random | None = None,
) -> AnalysisResult:
    """Run the fixpoint engine over a graph and package the result.

    ``rng`` perturbs worklist order and exists for order-independence
    testing; it never changes the result.
    """
    fix = run_fixpoint(graph, make_transfer(assumptions), rng=rng)
    return package_result(graph, fix)


def parse_assumptions(text: str) -> dict[str, Verdict]:
    """Parse an assumption list: one ``qualified-name verdict`` pair per
    line, ``#`` to end of line is comment, blank lines ignored, later
    entries override earlier ones for the same name.

    Raises ValueError naming the first malformed line.
    """
    out: dict[str, Verdict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected 'qualified-name verdict', got {raw.strip()!r}"
            )
        name, token = parts
        verdict = VERDICT_BY_TOKEN.get(token)
        if verdict is None:
            raise ValueError(
                f"line {lineno}: unknown verdict {token!r} (expected one of "
                f"{', '.join(sorted(VERDICT_BY_TOKEN))})"
            )
        out[name] = verdict
    return out
