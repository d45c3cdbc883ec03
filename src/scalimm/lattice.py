"""Verdict lattice and the worklist fixpoint engine.

Verdicts form a four-point total order under "less immutable than".  The
engine starts every template at the top (deep immutable), repeatedly
applies a caller-supplied transfer function and lowers a template's
verdict only when the transfer gives a strictly lower one, so verdicts
only ever move down and termination is a counting argument: each
template's verdict can strictly drop at most three times.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Callable, Mapping, NamedTuple

from .ir import TemplateGraph

__all__ = [
    "FixpointResult",
    "TransferFn",
    "TransferResult",
    "VERDICT_BY_TOKEN",
    "VERDICT_TOKENS",
    "Verdict",
    "run_fixpoint",
]


class Verdict(IntEnum):
    """Immutability verdicts, ordered from least to most immutable.

    The integer order is the lattice order: a smaller value means the
    template is known to be less immutable.  Comparisons and ``min`` are
    therefore meaningful and used throughout.
    """

    MUTABLE = 0
    SHALLOW_IMMUTABLE = 1
    CONDITIONALLY_DEEP = 2
    DEEP_IMMUTABLE = 3


#: Stable spelling of each verdict, used in assumption files and JSON output.
VERDICT_TOKENS: dict[Verdict, str] = {
    Verdict.MUTABLE: "mutable",
    Verdict.SHALLOW_IMMUTABLE: "shallow",
    Verdict.CONDITIONALLY_DEEP: "conditionally_deep",
    Verdict.DEEP_IMMUTABLE: "deep",
}

VERDICT_BY_TOKEN: dict[str, Verdict] = {tok: v for v, tok in VERDICT_TOKENS.items()}


class TransferResult(NamedTuple):
    """One evaluation of the transfer function for one template: the
    verdict and the records of what lowered it.  The engine stores the
    evidence without reading it."""

    verdict: Verdict
    evidence: tuple


#: Transfer functions compute a template's verdict from the current
#: assignment of verdicts to all templates.  They must be monotone in the
#: assignment and may read it only at names defined in the graph.  The
#: mapping is the engine's live assignment, not a copy: it is read-only
#: to the transfer and valid only for the duration of the call.
TransferFn = Callable[[TemplateGraph, str, Mapping[str, "Verdict"]], TransferResult]


class FixpointResult(NamedTuple):
    """Outcome of a fixpoint run.

    ``evidence`` comes from re-evaluating the transfer function once at
    the final assignment, so it depends only on the fixpoint reached, not
    on the order templates were processed.
    ``history`` records each verdict a template has held, from deep
    immutable down, and ``strict_downgrades`` how many times it dropped;
    both are there for audits.  ``recomputations`` counts transfer
    evaluations in the main loop.
    """

    verdicts: dict[str, Verdict]
    evidence: dict[str, tuple]
    history: dict[str, tuple[Verdict, ...]]
    strict_downgrades: dict[str, int]
    recomputations: int


def run_fixpoint(graph: TemplateGraph, transfer: TransferFn) -> FixpointResult:
    """Run the worklist algorithm to the greatest fixpoint of ``transfer``.

    Every template is seeded on the worklist in graph order.  When a
    template's verdict drops, the templates whose transfer can read it are
    re-queued.  Items leave the list first-in first-out, so the graph's
    template order fixes the evaluation order.  Verdicts and evidence do
    not depend on it; ``recomputations`` and ``history`` may.

    ``transfer`` receives the engine's one live assignment, which is
    updated in place whenever a verdict drops, so each step costs only the
    transfer itself.  The transfer must not modify the mapping or keep it
    past the call.  The loop reads only the verdict of each result: the
    transfer's verdict depends on the assignment alone, so a template
    whose inputs did not drop would evaluate to the same verdict again.

    After the list drains, the transfer function is evaluated once more
    per template at the final assignment, which gives the evidence.  A
    verdict that disagrees with the settled one means the transfer
    function is not monotone, which is a contract violation and raises
    RuntimeError.
    """
    names = list(graph.templates)

    # Lists in graph order, so the evaluation order (and with it
    # ``recomputations``) does not depend on string hashing.
    dependents: dict[str, list[str]] = {name: [] for name in names}
    for name in names:
        for dep in graph.dependencies[name]:
            dependents[dep].append(name)

    verdicts: dict[str, Verdict] = dict.fromkeys(names, Verdict.DEEP_IMMUTABLE)
    history: dict[str, list[Verdict]] = {n: [Verdict.DEEP_IMMUTABLE] for n in names}
    worklist: deque[str] = deque(names)
    queued: set[str] = set(names)
    recomputations = 0

    while worklist:
        name = worklist.popleft()
        queued.discard(name)

        verdict = transfer(graph, name, verdicts).verdict
        recomputations += 1

        if verdict < verdicts[name]:
            verdicts[name] = verdict
            history[name].append(verdict)
            for dep in dependents[name]:
                if dep not in queued:
                    worklist.append(dep)
                    queued.add(dep)

    evidence: dict[str, tuple] = {}
    for name in names:
        result = transfer(graph, name, verdicts)
        if result.verdict != verdicts[name]:
            raise RuntimeError(
                f"transfer is not monotone: template {name!r} settled at "
                f"{verdicts[name].name} but reevaluates to {result.verdict.name} "
                "at the fixpoint"
            )
        evidence[name] = result.evidence

    return FixpointResult(
        verdicts=verdicts,
        evidence=evidence,
        history={n: tuple(h) for n, h in history.items()},
        strict_downgrades={n: len(h) - 1 for n, h in history.items()},
        recomputations=recomputations,
    )
