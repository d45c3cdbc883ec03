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
#: assignment of verdicts to all templates.  They must be monotone in it
#: and read it only at ``graph.dependencies[name]``: the engine re-queues
#: a template only when one of those drops, and keeps its last evaluation
#: as the evidence.  The mapping is the engine's live assignment, not a
#: copy: read-only to the transfer and valid only during the call.
TransferFn = Callable[[TemplateGraph, str, Mapping[str, "Verdict"]], TransferResult]


class FixpointResult(NamedTuple):
    """Outcome of a fixpoint run.

    ``evidence`` is each template's last evaluation in the main loop.  A
    template is re-queued whenever one of its dependencies drops, so that
    evaluation ran after the last drop of everything it reads and equals
    an evaluation at the fixpoint: it depends only on the fixpoint
    reached, not on the order templates were processed.
    ``history`` records each verdict a template has held, from deep
    immutable down, and ``strict_downgrades`` how many times it dropped;
    both are there for audits.  ``recomputations`` counts transfer
    evaluations, the only ones the engine makes.
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
    past the call.  Each evaluation's evidence overwrites the template's
    previous one.  A template none of whose dependencies dropped since
    would evaluate to the same result again, so the last one kept is the
    evidence at the fixpoint, and no pass runs after the list drains.

    Every step checks monotonicity: an evaluation above the template's
    current verdict means the transfer is not monotone, a contract
    violation, and raises RuntimeError.
    """
    names = list(graph.templates)

    # Lists in graph order, so the evaluation order (and with it
    # ``recomputations``) does not depend on string hashing.
    dependents: dict[str, list[str]] = {name: [] for name in names}
    for name in names:
        for dep in graph.dependencies[name]:
            dependents[dep].append(name)

    verdicts: dict[str, Verdict] = dict.fromkeys(names, Verdict.DEEP_IMMUTABLE)
    history: dict[str, tuple[Verdict, ...]] = dict.fromkeys(
        names, (Verdict.DEEP_IMMUTABLE,)
    )
    evidence: dict[str, tuple] = {}
    worklist: deque[str] = deque(names)
    queued: set[str] = set(names)
    recomputations = 0

    while worklist:
        name = worklist.popleft()
        queued.discard(name)

        verdict, evidence[name] = transfer(graph, name, verdicts)
        recomputations += 1

        if verdict < verdicts[name]:
            verdicts[name] = verdict
            history[name] += (verdict,)
            for dep in dependents[name]:
                if dep not in queued:
                    worklist.append(dep)
                    queued.add(dep)
        elif verdict > verdicts[name]:
            raise RuntimeError(
                f"transfer is not monotone: template {name!r} at "
                f"{verdicts[name].name} evaluates to {verdict.name}"
            )

    return FixpointResult(
        verdicts=verdicts,
        evidence=evidence,
        history=history,
        strict_downgrades={n: len(h) - 1 for n, h in history.items()},
        recomputations=recomputations,
    )
