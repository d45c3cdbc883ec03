"""Immutability classification: the transfer function and its attributes.

A template's verdict is computed from its own declared fields and from the
verdicts of its parents, with generic types evaluated by substituting the
supplied type arguments.  Every downgrade below deep immutability is
recorded once, as an evidence record holding an attribute key (a letter A
through J) and the parent or field that caused it, so results stay
explainable; a template's attribute letters are derived from its records.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import Mapping, NamedTuple

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
    "EvidenceRecord",
    "FieldTypeKind",
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


class ParentCause(NamedTuple):
    """Evidence location in the parent list.  ``argument`` is set when the
    cause is one type argument of the parent rather than the parent
    itself."""

    parent: TypeRef
    argument: TypeRef | None = None


class EvidenceRecord(NamedTuple):
    """One attribute together with the parent or field that caused it."""

    attribute: AttributeKey
    cause: ParentCause | FieldDecl


class FieldTypeKind(IntEnum):
    """How a type reference evaluates, ordered by severity.

    ASSUMED_MUTABLE is a mutable outcome that came from the assumption
    list, which selects attribute I or A instead of H or B.  The order is
    chosen so that folding a generic type's arguments to the weakest
    produces the same verdict a fully instantiated copy of the template
    would get; the two mutable outcomes count as equally weak.
    """

    ASSUMED_MUTABLE = 0
    MUTABLE = 1
    UNKNOWN = 2
    SHALLOW = 3
    ABSTRACT = 4
    DEEP = 5


#: The outcome of a graph or assumed head by its verdict; a conditionally
#: deep head has none, since its arguments decide.
_GRAPH_OUTCOMES = {
    Verdict.MUTABLE: FieldTypeKind.MUTABLE,
    Verdict.SHALLOW_IMMUTABLE: FieldTypeKind.SHALLOW,
    Verdict.DEEP_IMMUTABLE: FieldTypeKind.DEEP,
}
_ASSUMED_OUTCOMES = {
    **_GRAPH_OUTCOMES, Verdict.MUTABLE: FieldTypeKind.ASSUMED_MUTABLE
}

#: The verdict and attribute (None: no evidence) that a field type, or a
#: type argument of a conditionally deep parent, lowers its template to,
#: keyed by each outcome below deep.
_FIELD_LOWERINGS = {
    FieldTypeKind.ASSUMED_MUTABLE:
        (Verdict.SHALLOW_IMMUTABLE, AttributeKey.FIELD_TYPE_ASSUMED_MUTABLE),
    FieldTypeKind.MUTABLE:
        (Verdict.SHALLOW_IMMUTABLE, AttributeKey.FIELD_TYPE_MUTABLE),
    FieldTypeKind.UNKNOWN:
        (Verdict.SHALLOW_IMMUTABLE, AttributeKey.FIELD_TYPE_UNKNOWN),
    FieldTypeKind.SHALLOW:
        (Verdict.SHALLOW_IMMUTABLE, AttributeKey.FIELD_TYPE_SHALLOW),
    FieldTypeKind.ABSTRACT: (Verdict.CONDITIONALLY_DEEP, None),
}

#: The same for a parent head that is not conditionally deep.  A parent
#: head is never abstract: TemplateDef rejects one.
_PARENT_LOWERINGS = {
    FieldTypeKind.ASSUMED_MUTABLE:
        (Verdict.MUTABLE, AttributeKey.PARENT_ASSUMED_MUTABLE),
    FieldTypeKind.MUTABLE: (Verdict.MUTABLE, AttributeKey.PARENT_MUTABLE),
    FieldTypeKind.UNKNOWN: (Verdict.MUTABLE, AttributeKey.PARENT_UNKNOWN),
    FieldTypeKind.SHALLOW:
        (Verdict.SHALLOW_IMMUTABLE, AttributeKey.PARENT_SHALLOW),
}


def _evaluate_head(
    ref: TypeRef,
    scope: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None,
) -> FieldTypeKind | None:
    """Evaluate a reference head alone, or return None when it is
    conditionally deep and the arguments decide.

    Checks, in order: the ``$inferred`` placeholder (unknown), a head
    abstract in scope (abstract, shadowing an equally named template), a
    graph template (its current verdict), an assumed head (its configured
    verdict, assumed mutable when mutable), and anything else (unknown).
    Matching is exact-string; there is no package-relative lookup.
    """
    head = ref.head
    if head == INFERRED_HEAD:
        return FieldTypeKind.UNKNOWN
    if scope.declares_abstract(head):
        return FieldTypeKind.ABSTRACT
    if head in graph.templates:
        return _GRAPH_OUTCOMES.get(assignment[head])
    if assumptions is not None and head in assumptions:
        return _ASSUMED_OUTCOMES.get(assumptions[head])
    return FieldTypeKind.UNKNOWN


def evaluate_field_type(
    ref: TypeRef,
    scope: TemplateDef,
    assignment: Mapping[str, Verdict],
    graph: TemplateGraph,
    assumptions: Mapping[str, Verdict] | None = None,
) -> FieldTypeKind:
    """Evaluate a declared type against the current verdict assignment.

    The head decides unless it is conditionally deep.  That is where
    substitution happens: its arguments are evaluated recursively and the
    weakest outcome wins (the first of equally weak ones, so the first
    mutable argument decides between attributes I and H), so the generic
    behaves exactly as if instantiated.  A conditionally deep head with no
    arguments supplied evaluates abstract when the scope itself has
    abstract types and unknown otherwise.
    """
    outcome = _evaluate_head(ref, scope, assignment, graph, assumptions)
    if outcome is not None:
        return outcome
    if not ref.args:
        if scope.has_abstract_types:
            return FieldTypeKind.ABSTRACT
        return FieldTypeKind.UNKNOWN
    weakest = FieldTypeKind.DEEP
    for arg in ref.args:
        outcome = evaluate_field_type(arg, scope, assignment, graph, assumptions)
        if outcome < weakest:
            if outcome <= FieldTypeKind.MUTABLE:
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
    fields, parents, declared non-reassignable fields.  Every outcome below
    deep lowers the verdict to the one ``_PARENT_LOWERINGS`` gives for a
    parent head, or ``_FIELD_LOWERINGS`` for a field type or a type
    argument of a conditionally deep parent (the bare parent itself when it
    has none), and records the attribute the table gives, if any.  A parent
    head is never abstract in its own scope: TemplateDef rejects that.
    Objects, case objects and anonymous classes declare no abstract types,
    so no outcome in their scope is abstract.  Inherited reassignable
    fields are not re-attributed here; a mutable parent already lowers the
    child through the parent rule.
    """
    verdict = Verdict.DEEP_IMMUTABLE
    evidence: list[EvidenceRecord] = []
    for f in template.fields:
        if f.reassignable:
            verdict = Verdict.MUTABLE
            attr = (
                AttributeKey.PRIVATE_VAR
                if f.visibility is Visibility.PRIVATE
                else AttributeKey.PUBLIC_VAR
            )
            evidence.append(EvidenceRecord(attr, f))

    # (table, outcome, cause) for each outcome below deep, in cause order.
    causes: list[tuple] = []
    deep = FieldTypeKind.DEEP
    for parent in template.parents:
        outcome = _evaluate_head(parent, template, assignment, graph, assumptions)
        if outcome is None:  # conditionally deep: each argument lowers alone
            for arg in parent.args or (None,):  # None: the bare head itself
                outcome = evaluate_field_type(
                    arg or parent, template, assignment, graph, assumptions
                )
                if outcome is not deep:
                    cause = ParentCause(parent, arg)
                    causes.append((_FIELD_LOWERINGS, outcome, cause))
        elif outcome is not deep:
            causes.append((_PARENT_LOWERINGS, outcome, ParentCause(parent)))
    for f in template.fields:
        if not f.reassignable:
            outcome = evaluate_field_type(
                f.declared_type, template, assignment, graph, assumptions
            )
            if outcome is not deep:
                causes.append((_FIELD_LOWERINGS, outcome, f))

    for table, outcome, cause in causes:
        v, attr = table[outcome]
        if v < verdict:
            verdict = v
        if attr is not None:
            evidence.append(EvidenceRecord(attr, cause))
    return TransferResult(verdict, tuple(evidence))


def make_transfer(assumptions: Mapping[str, Verdict] | None = None) -> TransferFn:
    """Bind an assumption list, producing the engine-facing transfer."""

    def bound(
        graph: TemplateGraph, name: str, assignment: Mapping[str, Verdict]
    ) -> TransferResult:
        return transfer(graph.templates[name], assignment, graph, assumptions)

    return bound


class AnalysisResult(NamedTuple):
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
