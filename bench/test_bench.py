"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q

They check that a seed fixes the corpus byte for byte, that the
independent model in ``corpus.py`` agrees with the analyzer, and that a
wrong expectation is reported as a failure, so the benchmark's output
check can fail at all.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
GENERATED = sorted(corpus.GENERATORS)


def _write(name: str, seed: int, directory: Path, n: int | None = None) -> corpus.Corpus:
    generated = corpus.GENERATORS[name](seed) if n is None else corpus.GENERATORS[name](seed, n)
    if generated.files:
        corpus.write_sources(generated, directory)
    else:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "graph.json").write_bytes(corpus.serialize_document(generated))
    return generated


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", GENERATED)
def test_same_seed_gives_identical_bytes(name, tmp_path):
    _write(name, 7, tmp_path / "a")
    _write(name, 7, tmp_path / "b")
    _write(name, 8, tmp_path / "c")
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "c")


def test_corpus_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    script = (
        "import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]);"
        "import test_bench as t\n"
        "for name in t.GENERATED: t._write(name, 3, Path(sys.argv[2]) / name)\n"
        "print(t._digest(Path(sys.argv[2])))"
    )
    digests = set()
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script, str(BENCH), str(out)],
                              env=env, capture_output=True, text=True, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


SMALL = {"graph_heavy": 60, "source_heavy": 30, "generic_ir": 60}


@pytest.mark.parametrize("name", GENERATED)
@pytest.mark.parametrize("seed", range(6))
def test_model_agrees_with_the_analyzer(name, seed, tmp_path):
    from scalimm.classify import classify_corpus, parse_assumptions
    from scalimm.ir import load_ir, template_dependencies
    from scalimm.lattice import VERDICT_TOKENS
    from scalimm.parser import parse_corpus
    from scalimm.report import build_report, explain, render_explanation, render_report

    generated = _write(name, seed, tmp_path, SMALL[name])
    model = corpus.Model(generated.templates, generated.assumptions)
    if generated.files:
        parsed = parse_corpus(
            [(str(p), p.read_text(encoding="utf-8")) for p in sorted(tmp_path.rglob("*.scala"))]
        )
        assert parsed.diagnostics == []
        graph = parsed.graph
    else:
        graph = load_ir((tmp_path / "graph.json").read_bytes())
    assert list(graph.templates) == [t.name for t in generated.templates]
    assumptions = parse_assumptions(corpus.assumptions_text(generated.assumptions).decode())
    result = classify_corpus(graph, assumptions)

    got = {
        "verdicts": {n: VERDICT_TOKENS[v] for n, v in result.verdicts.items()},
        "attributes": {n: sorted(a.value for a in result.attributes[n]) for n in result.verdicts},
    }
    assert got == model.result()
    for fmt in ("text", "json"):
        assert render_report(build_report(result, graph), fmt) == model.report(fmt)
    for template in generated.templates:
        rendered = render_explanation(explain(result, template.name)) + "\n"
        assert rendered.encode() == model.explanation(template.name)
    assert sum(len(template_dependencies(graph, t)) for t in graph.templates.values()) == model.edges()
    assert len(graph.externals) == model.externals()


def _golden_job(tmp_path: Path) -> tuple[run.Job, Path]:
    work = tmp_path / "work"
    work.mkdir()
    return run.setup_golden(ROOT, work, 0), work


def test_correct_outputs_pass_the_check(tmp_path):
    job, work = _golden_job(tmp_path)
    tally = run.Tally()
    run.timed_run(ROOT, work, job, 0.1, tally)
    run.run_tracer(ROOT, work, job, traced_first=True, tally=tally)
    assert tally.attempted >= 2
    assert tally.failed == 0, tally.notes


def test_corrupted_report_expectation_is_a_failure(tmp_path):
    job, work = _golden_job(tmp_path)
    expected = job.invocations[0].expected
    job.invocations[0].expected = expected.replace(b"54 (100.0%)", b"55 (100.0%)")
    assert job.invocations[0].expected != expected
    tally = run.Tally()
    run.timed_run(ROOT, work, job, 0.1, tally)
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted
    assert tally.failed / tally.attempted > 0


def test_corrupted_verdict_expectation_is_a_failure(tmp_path):
    job, work = _golden_job(tmp_path)
    job.result["verdicts"]["Counter"] = "deep"
    tally = run.Tally()
    run.run_tracer(ROOT, work, job, traced_first=False, tally=tally)
    assert tally.failed == 1
    assert "Counter" in tally.notes[0]


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 4.0, 0),  # overlaps a: the union 1..4 is covered once
        ("c", 6.0, 7.0, 0),
        ("grandchild", 6.2, 6.4, 3),
    ]
    assert run.self_time(spans, 0) == pytest.approx(6.0)
    assert run.self_time(spans, 3) == pytest.approx(0.8)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "golden_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
