"""Immutability classification: the transfer function and its attributes.

A template's verdict is computed from its own declared fields and from the
verdicts of its parents, with generic types evaluated by substituting the
supplied type arguments.  Every downgrade below deep immutability is
recorded once, as an evidence record holding an attribute key (a letter A
through J) and the parent or field that caused it, so results stay
explainable; a template's attribute letters are derived from its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Mapping

from .ir import (
    INFERRED_HEAD,
    FieldDecl,
    TemplateDef,
    TemplateGraph,
    TypeRef,
    UNPARAMETERIZED_KINDS,
    Visibility,
)
from .lattice import (
    VERDICT_BY_TOKEN,
    FixpointResult,
    TransferFn,
    TransferResult,
    Verdict,
    run_fixpoint,
)

__all__ = [
    "AnalysisResult",
    "AttributeKey",
    "ClassificationError",
    "EvidenceRecord",
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
class EvidenceRecord:
    """One attribute together with the parent or field that caused it."""

    attribute: AttributeKey
    cause: ParentCause | FieldDecl


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
_MUTABLE = FieldTypeVerdict(FieldTypeKind.MUTABLE)
_ASSUMED_MUTABLE = FieldTypeVerdict(FieldTypeKind.MUTABLE, assumed=True)

#: The attribute a field-type outcome below abstract records, keyed by its
#: kind and by whether it came from the assumption list.
_OUTCOME_ATTRIBUTES = {
    (FieldTypeKind.MUTABLE, False): AttributeKey.FIELD_TYPE_MUTABLE,
    (FieldTypeKind.MUTABLE, True): AttributeKey.FIELD_TYPE_ASSUMED_MUTABLE,
    (FieldTypeKind.UNKNOWN, False): AttributeKey.FIELD_TYPE_UNKNOWN,
    (FieldTypeKind.SHALLOW, False): AttributeKey.FIELD_TYPE_SHALLOW,
}

#: The verdict and attribute a parent records when its head evaluates below
#: deep and not conditionally deep, keyed like ``_OUTCOME_ATTRIBUTES``.
_PARENT_LOWERINGS = {
    (FieldTypeKind.MUTABLE, False): (Verdict.MUTABLE, AttributeKey.PARENT_MUTABLE),
    (FieldTypeKind.MUTABLE, True): (Verdict.MUTABLE, AttributeKey.PARENT_ASSUMED_MUTABLE),
    (FieldTypeKind.UNKNOWN, False): (Verdict.MUTABLE, AttributeKey.PARENT_UNKNOWN),
    (FieldTypeKind.SHALLOW, False): (Verdict.SHALLOW_IMMUTABLE, AttributeKey.PARENT_SHALLOW),
}


class ClassificationError(ValueError):
    """Ill-formed input reached the classifier, e.g. a template extending
    one of its own type parameters."""


def _evaluate_head(
    ref: TypeRef,
    scope: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None,
) -> FieldTypeVerdict | None:
    """Evaluate a reference head alone, or return None when it is
    conditionally deep and the arguments decide.

    Checks, in order: the ``$inferred`` placeholder (unknown), a head
    abstract in scope (abstract, shadowing an equally named template), a
    graph template (its current verdict), an assumed head (its configured
    verdict, flagged as assumed when mutable), and anything else (unknown).
    Matching is exact-string; there is no package-relative lookup.
    """
    head = ref.head
    if head == INFERRED_HEAD:
        return _UNKNOWN
    if scope.declares_abstract(head):
        return _ABSTRACT
    if head in graph.templates:
        base = assignment[head]
    elif assumptions is not None and head in assumptions:
        base = assumptions[head]
        if base is Verdict.MUTABLE:
            return _ASSUMED_MUTABLE
    else:
        return _UNKNOWN
    if base is Verdict.MUTABLE:
        return _MUTABLE
    if base is Verdict.SHALLOW_IMMUTABLE:
        return _SHALLOW
    if base is Verdict.DEEP_IMMUTABLE:
        return _DEEP
    return None


def evaluate_field_type(
    ref: TypeRef,
    scope: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None = None,
) -> FieldTypeVerdict:
    """Evaluate a declared type against the current verdict assignment.

    The head decides unless it is conditionally deep.  That is where
    substitution happens: its arguments are evaluated recursively and the
    weakest outcome wins (the first of equally weak ones), so the generic
    behaves exactly as if instantiated.  A conditionally deep head with no
    arguments supplied evaluates abstract when the scope itself has
    abstract types and unknown otherwise.
    """
    outcome = _evaluate_head(ref, scope, assignment, graph, assumptions)
    if outcome is not None:
        return outcome
    if not ref.args:
        return _ABSTRACT if scope.has_abstract_types else _UNKNOWN
    weakest = _DEEP
    for arg in ref.args:
        outcome = evaluate_field_type(arg, scope, assignment, graph, assumptions)
        if outcome.kind < weakest.kind:
            if outcome.kind is FieldTypeKind.MUTABLE:
                return outcome  # nothing is weaker
            weakest = outcome
    return weakest


def transfer(
    template: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None = None,
) -> TransferResult:
    """Compute one template's verdict and the evidence records that
    lowered it, one record per cause.

    Starting from deep immutable, applies in order: declared reassignable
    fields, parents, declared non-reassignable fields.  Objects, case
    objects and anonymous classes declare no abstract types, so no outcome
    in their scope is abstract.  Inherited reassignable fields are not
    re-attributed here; a mutable parent already lowers the child through
    the parent rule.

    Raises ClassificationError when a parent head names a type parameter
    or abstract type member of the template itself.
    """
    verdict = Verdict.DEEP_IMMUTABLE
    evidence: list[EvidenceRecord] = []

    def lower(
        v: Verdict, attr: AttributeKey, cause: ParentCause | FieldDecl
    ) -> None:
        nonlocal verdict
        if v < verdict:
            verdict = v
        evidence.append(EvidenceRecord(attr, cause))

    def apply_outcome(
        outcome: FieldTypeVerdict, cause: ParentCause | FieldDecl
    ) -> None:
        # Callers skip _DEEP, the one deep outcome evaluation returns.
        nonlocal verdict
        if outcome.kind is FieldTypeKind.ABSTRACT:
            if Verdict.CONDITIONALLY_DEEP < verdict:
                verdict = Verdict.CONDITIONALLY_DEEP
        else:
            attr = _OUTCOME_ATTRIBUTES[outcome.kind, outcome.assumed]
            lower(Verdict.SHALLOW_IMMUTABLE, attr, cause)

    for f in template.fields:
        if f.reassignable:
            attr = (
                AttributeKey.PRIVATE_VAR
                if f.visibility is Visibility.PRIVATE
                else AttributeKey.PUBLIC_VAR
            )
            lower(Verdict.MUTABLE, attr, f)

    for parent in template.parents:
        outcome = _evaluate_head(parent, template, assignment, graph, assumptions)
        if outcome is _ABSTRACT:
            raise ClassificationError(
                f"template {template.name!r}: parent {parent} is abstract in "
                "its own scope and cannot be extended"
            )
        if outcome is None:
            if not parent.args:
                outcome = _ABSTRACT if template.has_abstract_types else _UNKNOWN
                apply_outcome(outcome, ParentCause(parent))
            for arg in parent.args:
                outcome = evaluate_field_type(
                    arg, template, assignment, graph, assumptions
                )
                if outcome is not _DEEP:
                    apply_outcome(outcome, ParentCause(parent, arg))
        elif outcome is not _DEEP:
            v, attr = _PARENT_LOWERINGS[outcome.kind, outcome.assumed]
            lower(v, attr, ParentCause(parent))

    for f in template.fields:
        if not f.reassignable:
            outcome = evaluate_field_type(
                f.declared_type, template, assignment, graph, assumptions
            )
            if outcome is not _DEEP:
                apply_outcome(outcome, f)

    return TransferResult(verdict, tuple(evidence))


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
    """Filter raw fixpoint evidence down to the verdict's own group, derive
    each template's attributes from the records kept, and check the result
    invariants.

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
        records = tuple(
            record for record in fix.evidence[name] if record.attribute in keep
        )
        evidence[name] = records
        attributes[name] = frozenset(record.attribute for record in records)
        if keep:
            assert records, f"{verdict.name} template {name!r} has no attributes"
        if graph.templates[name].kind in UNPARAMETERIZED_KINDS:
            assert verdict is not Verdict.CONDITIONALLY_DEEP, (
                f"{graph.templates[name].kind.value} template {name!r} "
                "classified conditionally deep"
            )
    return AnalysisResult(dict(fix.verdicts), attributes, evidence)


def classify_corpus(
    graph: TemplateGraph, assumptions: Mapping[str, Verdict] | None = None
) -> AnalysisResult:
    """Run the fixpoint engine over a graph and package the result."""
    fix = run_fixpoint(graph, make_transfer(assumptions))
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
