"""Acceptance suite.

One test per acceptance criterion.  Each prints a single ``[PASS]`` or
``[FAIL]`` line to the real stdout (bypassing pytest capture) so the
verdicts are visible in any run log, then asserts.

Criteria:

1. Engine verdicts equal the exhaustive-enumeration oracle on 1,000
   random graphs of up to 8 templates, in under 60 seconds.
2. Verdicts and attribute sets are identical across shuffled template
   orders, which reorder the worklist (100 graphs, 10 orders each).
3. Verdicts never increase and each run performs at most three strict
   downgrades per template.
4. Structural invariants hold on all fuzz inputs: no object-like template
   is conditionally deep, every var-declaring template is mutable, and
   attribute sets match the verdict's own group.
5. The committed golden corpus classifies exactly to its hand-derived
   expected file and renders the byte-identical committed report in text,
   CSV and JSON, in under 1 second.
6. Argument substitution equals brute-force monomorphization on 500
   random layered generic graphs of up to 6 templates.
7. Count-with-percentage cells format as "124 (19.8%)".
8. Parse, serialize and reload of the golden corpus is structure
   preserving, and every error fixture yields positioned diagnostics and
   exit code 1.
"""

import json
import random
import re
import sys
import time
from functools import lru_cache
from pathlib import Path

from graphgen import (
    exhaustive_fixpoint_oracle,
    make_generic_graph,
    make_graph,
    monomorphize,
    permuted,
)
from scalimm.classify import (
    MUTABLE_ATTRIBUTES,
    SHALLOW_ATTRIBUTES,
    classify_corpus,
    make_transfer,
    parse_assumptions,
)
from scalimm.cli import run_cli
from scalimm.ir import UNPARAMETERIZED_KINDS, load_ir, serialize_ir
from scalimm.lattice import VERDICT_TOKENS, Verdict, run_fixpoint
from scalimm.parser import parse_corpus
from scalimm.report import build_report, format_count, render_report

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
ERROR_FIXTURES = TESTS / "fixtures" / "errors"

FUZZ_CASES = 1000
ORDER_GRAPHS = 100
ORDER_SHUFFLES = 10
MONO_CASES = 500


def _announce(number: int, description: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(
        f"\n[{status}] criterion {number}: {description}",
        file=sys.__stdout__,
        flush=True,
    )


@lru_cache(maxsize=1)
def fuzz_runs():
    """The shared fuzz corpus: graph, assumptions, instrumented fixpoint."""
    runs = []
    for seed in range(FUZZ_CASES):
        graph, assumptions = make_graph(random.Random(1_000_000 + seed))
        fix = run_fixpoint(graph, make_transfer(assumptions))
        runs.append((graph, assumptions, fix))
    return runs


@lru_cache(maxsize=1)
def golden_analysis():
    sources = [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(GOLDEN.glob("*.scala"))
    ]
    corpus = parse_corpus(sources)
    assert corpus.diagnostics == [], [str(d) for d in corpus.diagnostics]
    assumptions = parse_assumptions(
        (GOLDEN / "assumptions.txt").read_text(encoding="utf-8")
    )
    return corpus.graph, assumptions, classify_corpus(corpus.graph, assumptions)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    mismatched = []
    for index, (graph, assumptions, fix) in enumerate(fuzz_runs()):
        oracle = exhaustive_fixpoint_oracle(graph, make_transfer(assumptions))
        if fix.verdicts != oracle:
            mismatched.append(index)
    elapsed = time.perf_counter() - start
    passed = not mismatched and elapsed < 60.0
    _announce(
        1,
        f"engine equals exhaustive oracle on {FUZZ_CASES} random graphs "
        f"({elapsed:.1f}s)",
        passed,
    )
    assert not mismatched, f"verdict mismatch on cases {mismatched[:5]}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_confluence_across_worklist_orders():
    divergent = []
    for g in range(ORDER_GRAPHS):
        graph, assumptions = make_graph(random.Random(2_000_000 + g))
        baseline = classify_corpus(graph, assumptions)
        for s in range(ORDER_SHUFFLES):
            shuffled = classify_corpus(
                permuted(graph, random.Random(s)), assumptions
            )
            if (
                shuffled.verdicts != baseline.verdicts
                or shuffled.attributes != baseline.attributes
            ):
                divergent.append((g, s))
    passed = not divergent
    _announce(
        2,
        f"verdicts and attributes identical across {ORDER_SHUFFLES} "
        f"worklist orders on {ORDER_GRAPHS} graphs",
        passed,
    )
    assert not divergent, f"order-dependent cases {divergent[:5]}"


def test_criterion_3_monotone_descent_and_bounded_downgrades():
    increases = []
    over_budget = []
    for index, (graph, _, fix) in enumerate(fuzz_runs()):
        for history in fix.history.values():
            if any(b >= a for a, b in zip(history, history[1:])):
                increases.append(index)
                break
        if sum(fix.strict_downgrades.values()) > 3 * len(graph.templates):
            over_budget.append(index)
    passed = not increases and not over_budget
    _announce(
        3,
        "zero value increases and at most 3 strict downgrades per "
        f"template on {FUZZ_CASES} fuzz runs",
        passed,
    )
    assert not increases, f"non-descending history on cases {increases[:5]}"
    assert not over_budget, f"downgrade budget exceeded on {over_budget[:5]}"


def test_criterion_4_structural_invariants():
    violations = []
    cases = [
        (graph, classify_corpus(graph, assumptions))
        for graph, assumptions, _ in fuzz_runs()
    ]
    golden_graph, _, golden_result = golden_analysis()
    cases.append((golden_graph, golden_result))
    for index, (graph, result) in enumerate(cases):
        for name, template in graph.templates.items():
            verdict = result.verdicts[name]
            attrs = result.attributes[name]
            if (
                template.kind in UNPARAMETERIZED_KINDS
                and verdict is Verdict.CONDITIONALLY_DEEP
            ):
                violations.append((index, name, "object-like cond-deep"))
            if (
                any(f.reassignable for f in template.fields)
                and verdict is not Verdict.MUTABLE
            ):
                violations.append((index, name, "var without mutable verdict"))
            if verdict is Verdict.MUTABLE:
                if not attrs or not attrs <= MUTABLE_ATTRIBUTES:
                    violations.append((index, name, "bad mutable attrs"))
            elif verdict is Verdict.SHALLOW_IMMUTABLE:
                if not attrs or not attrs <= SHALLOW_ATTRIBUTES:
                    violations.append((index, name, "bad shallow attrs"))
            elif attrs:
                violations.append((index, name, "attrs on attribute-free verdict"))
    passed = not violations
    _announce(
        4,
        "kind exclusion, var dominance and attribute grouping hold on "
        f"{len(cases)} corpora",
        passed,
    )
    assert not violations, f"violations {violations[:5]}"


def test_criterion_5_golden_corpus_classification_and_report():
    start = time.perf_counter()
    graph, _, result = golden_analysis()
    expected = json.loads(
        (GOLDEN / "expected_result.json").read_text(encoding="utf-8")
    )
    actual_verdicts = {
        name: VERDICT_TOKENS[verdict]
        for name, verdict in result.verdicts.items()
    }
    actual_attributes = {
        name: sorted(a.value for a in result.attributes[name])
        for name in result.verdicts
    }
    tables = build_report(result, graph)
    rendered = {
        suffix: render_report(tables, format)
        for format, suffix in (("text", "txt"), ("csv", "csv"), ("json", "json"))
    }
    committed = {
        suffix: (GOLDEN / f"expected_report.{suffix}").read_bytes()
        for suffix in rendered
    }
    elapsed = time.perf_counter() - start
    passed = (
        actual_verdicts == expected["verdicts"]
        and actual_attributes == expected["attributes"]
        and rendered == committed
        and elapsed < 1.0
    )
    _announce(
        5,
        f"golden corpus of {len(graph.templates)} templates matches the "
        f"hand-derived results and byte-identical reports ({elapsed:.2f}s)",
        passed,
    )
    assert actual_verdicts == expected["verdicts"]
    assert actual_attributes == expected["attributes"]
    for suffix in rendered:
        assert rendered[suffix] == committed[suffix], suffix
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_6_monomorphization_equivalence():
    divergent = []
    for seed in range(MONO_CASES):
        graph, assumptions = make_generic_graph(random.Random(3_000_000 + seed))
        mono = monomorphize(graph)
        direct = classify_corpus(graph, assumptions)
        monoed = classify_corpus(mono, assumptions)
        for name, template in graph.templates.items():
            if template.type_params:
                continue
            if monoed.verdicts[name] != direct.verdicts[name]:
                divergent.append((seed, name))
    passed = not divergent
    _announce(
        6,
        f"substitution equals monomorphization on {MONO_CASES} layered "
        "generic graphs",
        passed,
    )
    assert not divergent, f"divergent cases {divergent[:5]}"


def test_criterion_7_percentage_formatting():
    rendered = format_count(124, 626)
    passed = rendered == "124 (19.8%)"
    _announce(7, f'format_count(124, 626) renders as "{rendered}"', passed)
    assert passed


def test_criterion_8_round_trip_and_error_fixtures(capsys):
    graph, _, _ = golden_analysis()
    document = serialize_ir(graph)
    reloaded = load_ir(document)
    round_trip_ok = (
        reloaded == graph
        and serialize_ir(reloaded) == document
        and document == (GOLDEN / "expected_ir.json").read_bytes()
    )

    fixture_failures = []
    fixtures = sorted(ERROR_FIXTURES.glob("*.scala"))
    assert fixtures, "no error fixtures found"
    position = re.compile(r"[^\s:]+\.scala:\d+:\d+: ")
    for fixture in fixtures:
        code = run_cli(["analyze", str(fixture)])
        captured = capsys.readouterr()
        expected = fixture.with_suffix(".expected").read_text(encoding="utf-8")
        if not (
            code == 1
            and position.search(captured.err)
            and expected in captured.err
        ):
            fixture_failures.append(fixture.name)

    passed = round_trip_ok and not fixture_failures
    _announce(
        8,
        "IR round trip preserves the golden corpus and all "
        f"{len(fixtures)} error fixtures exit 1 with positioned "
        "diagnostics",
        passed,
    )
    assert round_trip_ok
    assert not fixture_failures, fixture_failures
