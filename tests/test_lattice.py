"""Lattice and fixpoint engine behavior, checked against oracles."""

import os
import random
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgen import (
    exhaustive_fixpoint_oracle,
    kleene_fixpoint,
    make_generic_graph,
    make_graph,
    naive_fixpoint_oracle,
    permuted,
)
from scalimm.classify import AttributeKey, make_transfer
from scalimm.ir import FieldDecl, TemplateDef, TemplateKind, TypeRef, Visibility, build_graph
from scalimm.lattice import (
    TransferResult,
    VERDICT_BY_TOKEN,
    VERDICT_TOKENS,
    Verdict,
    run_fixpoint,
)

verdicts = st.sampled_from(list(Verdict))


def mk_class(name, *, kind=TemplateKind.CLASS, parents=(), fields=()):
    return TemplateDef(
        name=name,
        kind=kind,
        parents=tuple(TypeRef(p) if isinstance(p, str) else p for p in parents),
        fields=tuple(fields),
    )


def mk_field(name, type_head, *, var=False, private=False):
    return FieldDecl(
        name=name,
        reassignable=var,
        visibility=Visibility.PRIVATE if private else Visibility.PUBLIC,
        declared_type=TypeRef(type_head) if isinstance(type_head, str) else type_head,
    )


def letters(result, name):
    """The attribute letters of one template's evidence records."""
    return {record.attribute for record in result.evidence[name]}


# ---- order and meet (min over verdicts) ----------------------------------


def test_verdict_order_is_mutable_to_deep():
    assert (
        Verdict.MUTABLE
        < Verdict.SHALLOW_IMMUTABLE
        < Verdict.CONDITIONALLY_DEEP
        < Verdict.DEEP_IMMUTABLE
    )


def test_verdict_tokens_are_a_bijection():
    assert len(VERDICT_TOKENS) == 4
    assert VERDICT_BY_TOKEN == {t: v for v, t in VERDICT_TOKENS.items()}
    assert VERDICT_BY_TOKEN["conditionally_deep"] is Verdict.CONDITIONALLY_DEEP


@given(verdicts, verdicts)
def test_meet_commutative(a, b):
    assert min(a, b) is min(b, a)


@given(verdicts, verdicts, verdicts)
def test_meet_associative(a, b, c):
    assert min(a, min(b, c)) is min(min(a, b), c)


@given(verdicts)
def test_meet_idempotent_with_top_identity(a):
    assert min(a, a) is a
    assert min(a, Verdict.DEEP_IMMUTABLE) is a
    assert min(a, Verdict.MUTABLE) is Verdict.MUTABLE


@given(verdicts, verdicts)
def test_meet_is_lower_bound(a, b):
    m = min(a, b)
    assert isinstance(m, Verdict)
    assert m <= a and m <= b


# ---- engine on small hand-built graphs ------------------------------------


def test_parent_of_mutable_class_is_mutable():
    graph = build_graph(
        [
            mk_class("C", fields=[mk_field("n", "ext.Int", var=True)]),
            mk_class("D", parents=["C"]),
        ]
    )
    result = run_fixpoint(graph, make_transfer())
    assert result.verdicts == {"C": Verdict.MUTABLE, "D": Verdict.MUTABLE}
    assert letters(result, "C") == {AttributeKey.PUBLIC_VAR}
    assert letters(result, "D") == {AttributeKey.PARENT_MUTABLE}


def test_val_cycle_settles_deep():
    graph = build_graph(
        [
            mk_class("A", fields=[mk_field("b", "B")]),
            mk_class("B", fields=[mk_field("a", "A")]),
        ]
    )
    result = run_fixpoint(graph, make_transfer())
    assert result.verdicts == {
        "A": Verdict.DEEP_IMMUTABLE,
        "B": Verdict.DEEP_IMMUTABLE,
    }
    assert letters(result, "A") == frozenset()
    assert letters(result, "B") == frozenset()


def test_mutability_propagates_down_a_parent_chain():
    graph = build_graph(
        [
            mk_class("X", fields=[mk_field("n", "ext.Int", var=True, private=True)]),
            mk_class("Y", parents=["X"]),
            mk_class("Z", parents=["Y"]),
        ]
    )
    result = run_fixpoint(graph, make_transfer())
    assert set(result.verdicts.values()) == {Verdict.MUTABLE}
    assert letters(result, "X") == {AttributeKey.PRIVATE_VAR}
    assert letters(result, "Y") == {AttributeKey.PARENT_MUTABLE}
    assert letters(result, "Z") == {AttributeKey.PARENT_MUTABLE}


def test_attribute_growth_without_a_verdict_drop_requeues_nothing():
    # D's letters grow from {J} (a: S is shallow) to {J, H} once X drops
    # to mutable, but D stays shallow throughout, so E, which reads only
    # D's verdict, is evaluated once from the seeded list and once after
    # D's single drop from deep to shallow.
    graph = build_graph(
        [
            mk_class("D", fields=[mk_field("a", "S"), mk_field("b", "X")]),
            mk_class("S", fields=[mk_field("u", "ext.Ext")]),
            mk_class("X", parents=["P"]),
            mk_class("P", fields=[mk_field("n", "scala.Int", var=True)]),
            mk_class("E", fields=[mk_field("d", "D")]),
        ]
    )
    transfer = make_transfer()
    evaluated = []

    def counting(graph, name, assignment):
        evaluated.append(name)
        return transfer(graph, name, assignment)

    result = run_fixpoint(graph, counting)
    assert result.verdicts["D"] is Verdict.SHALLOW_IMMUTABLE
    assert letters(result, "D") == {
        AttributeKey.FIELD_TYPE_SHALLOW,
        AttributeKey.FIELD_TYPE_MUTABLE,
    }
    assert result.recomputations == 9
    assert evaluated[: result.recomputations].count("E") == 2
    assert len(evaluated) == result.recomputations


def test_empty_graph_runs_to_empty_result():
    graph = build_graph([])
    result = run_fixpoint(graph, make_transfer())
    assert result.verdicts == {}
    assert result.recomputations == 0
    assert exhaustive_fixpoint_oracle(graph, make_transfer()) == {}


def test_run_fixpoint_instrumentation_bounds():
    rng = random.Random(4821)
    for _ in range(50):
        graph, assumptions = make_graph(rng)
        result = run_fixpoint(graph, make_transfer(assumptions))
        n = len(graph.templates)
        assert result.recomputations >= n
        assert sum(result.strict_downgrades.values()) <= 3 * n
        for history in result.history.values():
            assert history[0] is Verdict.DEEP_IMMUTABLE
            assert all(a > b for a, b in zip(history, history[1:]))


def test_random_pop_order_gives_identical_results():
    rng = random.Random(93)
    for _ in range(25):
        graph, assumptions = make_graph(rng)
        transfer = make_transfer(assumptions)
        baseline = run_fixpoint(graph, transfer)
        for seed in range(4):
            shuffled = run_fixpoint(permuted(graph, random.Random(seed)), transfer)
            assert shuffled.verdicts == baseline.verdicts
            assert shuffled.evidence == baseline.evidence


def _random_class_graph(n, seed):
    """``n`` classes with three fields each, typed by a random class of
    the graph; about one field in thirty is a ``var``."""
    rng = random.Random(seed)
    names = [f"C{i}" for i in range(n)]
    return build_graph(
        mk_class(
            name,
            fields=[
                mk_field(f"f{j}", rng.choice(names), var=rng.random() < 0.03)
                for j in range(3)
            ],
        )
        for name in names
    )


# A deterministic stand-in for a wall-clock gate: the engine is linear in
# graph size because the work it does is bounded by the lattice.  Every
# template is evaluated once from the seeded worklist (n).  After that,
# a template is evaluated again only because it was re-queued, and it is
# re-queued only when the verdict of one of its dependencies strictly
# dropped.  A verdict drops at most three times (deep -> conditionally
# deep -> shallow -> mutable), and a drop of d re-queues each dependent
# of d at most once, so the re-queues total at most
# 3 * sum(|dependents of d|) = 3 * edges.
def _assert_within_change_bound(graph, result):
    edges = sum(len(deps) for deps in graph.dependencies.values())
    bound = len(graph.templates) + 3 * edges
    assert result.recomputations <= bound, (result.recomputations, bound)


def test_recomputations_stay_within_the_change_bound():
    rng = random.Random(2024)
    for _ in range(12):
        graph, assumptions = make_graph(rng, max_templates=600, mention_cap=6)
        transfer = make_transfer(assumptions)
        _assert_within_change_bound(graph, run_fixpoint(graph, transfer))
        _assert_within_change_bound(
            graph, run_fixpoint(permuted(graph, random.Random(7)), transfer)
        )
    graph = _random_class_graph(2000, seed=5)
    _assert_within_change_bound(graph, run_fixpoint(graph, make_transfer()))


def test_engine_matches_kleene_iteration_on_large_graphs():
    rng = random.Random(4242)
    cases = [
        make_graph(rng, min_templates=300, max_templates=600, mention_cap=6)
        for _ in range(4)
    ]
    cases += [make_generic_graph(rng, max_templates=400) for _ in range(4)]
    cases.append((_random_class_graph(1000, seed=9), {}))
    for graph, assumptions in cases:
        transfer = make_transfer(assumptions)
        expected = kleene_fixpoint(graph, transfer)
        orders = [graph] + [permuted(graph, random.Random(s)) for s in range(3)]
        for ordered in orders:
            result = run_fixpoint(ordered, transfer)
            assert (result.verdicts, result.evidence) == expected


class _RecordingAssignment(Mapping):
    """A read-only assignment that records every name it is asked for."""

    def __init__(self, verdicts):
        self._verdicts = verdicts
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return self._verdicts[name]

    def __iter__(self):
        return iter(self._verdicts)

    def __len__(self):
        return len(self._verdicts)


def test_transfer_reads_only_dependencies_and_kept_evidence_is_the_fixpoints():
    # The engine keeps each template's last evaluation as its evidence.
    # That equals an evaluation at the fixpoint only if the transfer reads
    # nothing outside ``graph.dependencies[name]``, the names whose drop
    # re-queues the template, so build_graph's resolution and the
    # transfer's must agree.
    rng = random.Random(6150)
    cases = [make_graph(rng) for _ in range(200)]
    cases += [make_generic_graph(rng) for _ in range(100)]
    for graph, assumptions in cases:
        transfer = make_transfer(assumptions)
        result = run_fixpoint(graph, transfer)
        for name in graph.templates:
            assignment = _RecordingAssignment(result.verdicts)
            verdict, evidence = transfer(graph, name, assignment)
            assert assignment.read <= set(graph.dependencies[name]), name
            assert (verdict, evidence) == (
                result.verdicts[name],
                result.evidence[name],
            )


# Dependents are re-queued in an order that must not depend on string
# hashing.  Small graphs hide a hash-ordered queue (their counts happen to
# agree); 400 classes with random field types and a few vars do not.
_RECOMPUTATIONS_PROBE = """
import random
from scalimm.classify import make_transfer
from scalimm.ir import FieldDecl, TemplateDef, TemplateKind, TypeRef, Visibility, build_graph
from scalimm.lattice import run_fixpoint

rng = random.Random(1)
names = [f"C{i}" for i in range(400)]
graph = build_graph(
    TemplateDef(
        name=name,
        kind=TemplateKind.CLASS,
        fields=tuple(
            FieldDecl(f"f{j}", rng.random() < 0.03, Visibility.PUBLIC, TypeRef(rng.choice(names)))
            for j in range(3)
        ),
    )
    for name in names
)
print(run_fixpoint(graph, make_transfer()).recomputations)
"""


def test_recomputations_do_not_depend_on_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _RECOMPUTATIONS_PROBE],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        counts.add(int(out))
    assert len(counts) == 1, f"recomputations vary with PYTHONHASHSEED: {sorted(counts)}"


# ---- non-monotone transfer detection --------------------------------------


def _flipping_transfer(graph, name, assignment):
    value = (
        Verdict.MUTABLE
        if assignment[name] is Verdict.DEEP_IMMUTABLE
        else Verdict.DEEP_IMMUTABLE
    )
    return TransferResult(value, ())


def test_engine_rejects_non_monotone_transfer():
    graph = build_graph([mk_class("A", fields=[mk_field("self", "A")])])
    with pytest.raises(RuntimeError, match="not monotone"):
        run_fixpoint(graph, _flipping_transfer)


def test_oracle_rejects_transfer_without_fixpoint():
    graph = build_graph([mk_class("A", fields=[mk_field("self", "A")])])
    with pytest.raises(RuntimeError):
        exhaustive_fixpoint_oracle(graph, _flipping_transfer)


def test_oracle_refuses_oversized_graphs():
    graph = build_graph([mk_class(f"T{i}") for i in range(11)])
    with pytest.raises(ValueError, match="limit"):
        exhaustive_fixpoint_oracle(graph, make_transfer())


# ---- oracle cross-checks --------------------------------------------------


def test_vectorized_oracle_matches_naive_oracle_on_tiny_graphs():
    rng = random.Random(777)
    checked = 0
    while checked < 200:
        graph, assumptions = make_graph(rng, max_templates=3)
        transfer = make_transfer(assumptions)
        fast = exhaustive_fixpoint_oracle(graph, transfer)
        slow = naive_fixpoint_oracle(graph, transfer)
        assert fast == slow
        checked += 1


def test_engine_matches_oracle_on_random_graphs():
    rng = random.Random(31337)
    for _ in range(100):
        graph, assumptions = make_graph(rng)
        transfer = make_transfer(assumptions)
        engine = run_fixpoint(graph, transfer).verdicts
        oracle = exhaustive_fixpoint_oracle(graph, transfer)
        assert engine == oracle


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_engine_matches_oracle_property(seed):
    rng = random.Random(seed)
    graph, assumptions = make_graph(rng, max_templates=5)
    transfer = make_transfer(assumptions)
    assert run_fixpoint(graph, transfer).verdicts == exhaustive_fixpoint_oracle(
        graph, transfer
    )
