"""End-to-end and per-layer benchmark for `scalimm analyze`.

Run from the repository root:

    python3 bench/run.py --workload graph_heavy --seed 1 --seconds 31 --trace 0

One run sets up one workload from its seed, then either

* ``--trace 0``: runs ``scalimm analyze`` as a fresh child process in a
  closed loop with one client for ``--seconds`` seconds, checks every
  output against the independent model in ``corpus.py`` (or the
  hand-derived golden files) and reports the end-to-end metrics; or
* ``--trace 1``: runs ``tracer.py`` children for ``--seconds`` seconds,
  each an in-process run with a span around every call into the
  program's modules, and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Inputs, outputs and the written trace go to ``.bench_work/`` under the
current directory.  The analyzer is run from ``src/`` there, so the run
fails (exit 2, no result) outside a checkout of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
CHILD = "from scalimm.cli import main; main()"
#: Set-up is repeated, at least this many times and for at least this
#: long, and its median reported, so one slow disk write does not decide
#: setup_s.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "analyze_s_p50": "s",
    "templates_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.run_cli_s": "s",
    "parser.parse_source_s": "s",
    "parser.bytes_per_s": "B/s",
    "parser.files": "count",
    "parser.bytes": "B",
    "parser.templates": "count",
    "ir.build_graph_s": "s",
    "ir.template_dependencies_s": "s",
    "ir.edges": "count",
    "ir.externals": "count",
    "ir.serialize_ir_s": "s",
    "ir.load_ir_s": "s",
    "ir.document_bytes": "B",
    "lattice.run_fixpoint_s": "s",
    "lattice.self_s": "s",
    "lattice.recomputations": "count",
    "lattice.recomputations_distinct": "count",
    "lattice.strict_downgrades": "count",
    "lattice.downgrade_ratio": "ratio",
    "classify.transfer_s": "s",
    "classify.transfer_calls": "count",
    "classify.transfer_us_per_call": "us",
    "classify.package_result_s": "s",
    "report.build_report_s": "s",
    "report.render_report_s": "s",
    "report.explain_s": "s",
    "report.output_bytes": "B",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    """One `scalimm analyze` command line and the exact stdout it must give."""

    argv: list[str]
    expected: bytes


@dataclass
class Job:
    """A set-up workload: the command lines the closed loop cycles through
    and what a traced run needs."""

    templates: int
    invocations: list[Invocation]
    trace_spec: dict
    result: dict  # per-template verdicts and letters the analyzer must give
    explanations: dict[str, bytes] = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


# ---- workloads -------------------------------------------------------------


def setup_golden(root: Path, work: Path, seed: int) -> Job:
    """Copy the committed golden corpus; the seed has nothing to vary."""
    golden = root / "tests" / "golden"
    target = work / "sources"
    target.mkdir(parents=True, exist_ok=True)
    files = sorted(golden.glob("*.scala"))
    for path in files:
        (target / path.name).write_bytes(path.read_bytes())
    assume = work / "assumptions.txt"
    assume.write_bytes((golden / "assumptions.txt").read_bytes())
    expected = json.loads((golden / "expected_result.json").read_text(encoding="utf-8"))
    argv = ["analyze", str(target), "--assume", str(assume)]
    return Job(
        templates=len(expected["verdicts"]),
        invocations=[Invocation(argv, (golden / "expected_report.txt").read_bytes())],
        trace_spec={"sources": str(target), "ir": None, "explain": [], "argv": argv},
        result={"verdicts": expected["verdicts"], "attributes": expected["attributes"]},
        counters={"files": len(files), "bytes": sum(p.stat().st_size for p in files)},
    )


def setup_generated(name: str, root: Path, work: Path, seed: int) -> Job:
    """Generate the corpus, solve the model and write the inputs."""
    generated = corpus.GENERATORS[name](seed)
    model = corpus.Model(generated.templates, generated.assumptions)
    assume = work / "assumptions.txt"
    assume.write_bytes(corpus.assumptions_text(generated.assumptions))
    counters = {}
    if generated.files:
        target = work / "sources"
        paths = corpus.write_sources(generated, target)
        counters["files"] = len(paths)
        counters["bytes"] = sum(p.stat().st_size for p in paths)
        inputs = [str(target)]
        spec = {"sources": str(target), "ir": None}
    else:
        document = work / "graph.json"
        document.write_bytes(corpus.serialize_document(generated))
        counters["files"] = 1
        counters["bytes"] = document.stat().st_size
        inputs = [str(document), "--ir"]
        spec = {"sources": None, "ir": str(document)}
    fmt = "json" if spec["ir"] else "text"
    report_argv = ["analyze", *inputs, "--assume", str(assume), "--format", fmt]
    report = Invocation(report_argv, model.report(fmt))
    explanations = {n: model.explanation(n) for n in generated.explain}
    # Explanations alternate with full reports in the closed loop.
    invocations = []
    for n in generated.explain:
        argv = ["analyze", *inputs, "--assume", str(assume), "--explain", n]
        invocations += [report, Invocation(argv, explanations[n])]
    counters.update(kinds=model.kinds(), edges=model.edges(),
                    externals=model.externals(), nesting_depth=model.nesting_depth())
    spec.update(explain=generated.explain, argv=report_argv)
    return Job(len(generated.templates), invocations or [report], spec, model.result(),
               explanations, counters)


WORKLOADS = {
    "golden_cli": setup_golden,
    "source_heavy": lambda *a: setup_generated("source_heavy", *a),
    "graph_heavy": lambda *a: setup_generated("graph_heavy", *a),
    "generic_ir": lambda *a: setup_generated("generic_ir", *a),
}


# ---- running the program ---------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with ``src`` importable.  PYTHONHASHSEED is
    dropped so every child draws its own hash seed, as a user's would."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


@dataclass
class Tally:
    """Checks attempted and failed in one run, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)
        return ok


def run_child(argv: list[str], env: dict, root: Path, work: Path):
    """Run one child to completion; returns (seconds, exit code, stdout,
    stderr, peak RSS in KiB) with the RSS taken from ``os.wait4``."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=root)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    # Reaped by wait4 above; recording the code stops Popen reaping again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss


def closed_loop(seconds: float, step) -> None:
    """Call ``step()`` back to back, starting another call only while it
    is expected to end within ``seconds``."""
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def timed_run(root: Path, work: Path, job: Job, seconds: float, tally: Tally) -> dict:
    env = child_env(root)
    durations: list[float] = []
    rss_kib: list[int] = []

    def step() -> None:
        inv = job.invocations[len(durations) % len(job.invocations)]
        took, code, out, err, rss = run_child(
            [sys.executable, "-c", CHILD, *inv.argv], env, root, work)
        durations.append(took)
        rss_kib.append(rss)
        tally.check(code == 0 and b"Traceback" not in err and out == inv.expected,
                    f"{' '.join(inv.argv[-2:])}: exit {code}, "
                    f"output {'matches' if out == inv.expected else 'differs'}")

    closed_loop(seconds, step)
    p50 = statistics.median(durations)
    print(f"analyze_s_p50 from {len(durations)} samples")
    # p90 varies too much from run to run to carry a bound where only a
    # few samples lie beyond it, so it is printed here and not in the result.
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[-1] if len(durations) > 1 else p50
    beyond = sum(d > p90 for d in durations)
    if beyond >= TAIL_SAMPLES:
        print(f"analyze_s_p90 {p90} s ({beyond} samples beyond it)")
    else:
        print(f"analyze_s_p90 not reported: {beyond} samples beyond it, fewer than {TAIL_SAMPLES}")
    return {
        "analyze_s_p50": p50,
        "templates_per_s": job.templates / p50,
        "peak_rss_mb": statistics.median(rss_kib) / 1024,
    }


def check_result(tally: Tally, got: dict, job: Job, where: str) -> None:
    wrong = [n for n in sorted(set(job.result["verdicts"]) | set(got["verdicts"]))
             if job.result["verdicts"].get(n) != got["verdicts"].get(n)
             or sorted(job.result["attributes"].get(n, [])) != got["attributes"].get(n)]
    tally.check(not wrong, f"{where}: verdicts differ for {wrong[:5]}")


def run_tracer(root: Path, work: Path, job: Job, traced_first: bool, tally: Tally) -> dict | None:
    spec = dict(job.trace_spec, traced_first=traced_first)
    spec_path, out_path = work / "trace_job.json", work / "trace_out.json"
    spec_path.write_text(json.dumps(spec))
    out_path.unlink(missing_ok=True)
    _, code, _, err, _ = run_child(
        [sys.executable, str(HERE / "tracer.py"), str(spec_path), str(out_path)],
        child_env(root), root, work)
    if not tally.check(code == 0 and out_path.exists(), f"tracer exit {code}: {err[-300:]!r}"):
        return None
    data = json.loads(out_path.read_text())
    expected = job.invocations[0].expected.decode()
    tally.check(data["run_cli_code"] == 0 and data["run_cli_output"] == expected,
                "in-process run_cli output differs")
    tally.check(data["output"] == expected, "traced report differs")
    for name, text in data["explanations"].items():
        tally.check(text.encode() == job.explanations[name], f"explain {name} differs")
    check_result(tally, data["result"], job, "traced run")
    return data


# ---- spans to per-layer metrics --------------------------------------------


def self_time(spans: list, index: int) -> float:
    """A span's duration minus the part of it its child spans cover."""
    _, start, end, _ = spans[index]
    covered, reach = 0.0, start
    for s, e in sorted((s[1], s[2]) for s in spans if s[3] == index):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return end - start - covered


def layer_metrics(data: dict) -> dict:
    spans = data["spans"]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    fixpoint = [i for i, s in enumerate(spans) if s[0] == "lattice.run_fixpoint"]
    c = data["counters"]
    parse_s = total.get("parser.parse_source", 0.0)
    transfer_calls = calls.get("classify.transfer", 0)
    return {
        "cli.import_s": data["import_s"],
        "cli.run_cli_s": data["run_cli_s"],
        "parser.parse_source_s": parse_s,
        "parser.bytes_per_s": c["bytes"] / parse_s if parse_s else 0.0,
        "parser.files": c["files"] if parse_s else 0,
        "parser.bytes": c["bytes"] if parse_s else 0,
        "parser.templates": c["templates"] if parse_s else 0,
        "ir.build_graph_s": total.get("ir.build_graph", 0.0),
        "ir.template_dependencies_s": total.get("ir.template_dependencies", 0.0),
        "ir.edges": c["edges"],
        "ir.externals": c["externals"],
        "ir.serialize_ir_s": total.get("ir.serialize_ir", 0.0),
        "ir.load_ir_s": total.get("ir.load_ir", 0.0),
        "ir.document_bytes": c["document_bytes"],
        "lattice.run_fixpoint_s": total["lattice.run_fixpoint"],
        "lattice.self_s": sum(self_time(spans, i) for i in fixpoint),
        "lattice.recomputations": c["recomputations"],
        "lattice.strict_downgrades": c["strict_downgrades"],
        "lattice.downgrade_ratio": c["strict_downgrades"] / c["recomputations"],
        "classify.transfer_s": total.get("classify.transfer", 0.0),
        "classify.transfer_calls": transfer_calls,
        "classify.transfer_us_per_call":
            total.get("classify.transfer", 0.0) / transfer_calls * 1e6 if transfer_calls else 0.0,
        "classify.package_result_s": total["classify.package_result"],
        "report.build_report_s": total["report.build_report"],
        "report.render_report_s": total["report.render_report"],
        "report.explain_s": total.get("report.explain", 0.0)
        + total.get("report.render_explanation", 0.0),
        "report.output_bytes": c["output_bytes"],
        "trace.overhead_s": total["cli.run_cli"] - data["run_cli_s"],
    }


def traced_run(root: Path, work: Path, job: Job, seconds: float, tally: Tally) -> dict:
    runs: list[dict] = []
    trace: list[dict] = []

    def step() -> None:
        data = run_tracer(root, work, job, traced_first=len(trace) % 2 == 1, tally=tally)
        trace.append({"invocation": len(trace),
                      "spans": data["spans"] if data else None})
        if data is not None:
            runs.append(layer_metrics(data))

    closed_loop(seconds, step)
    (work / "trace.json").write_text(json.dumps(trace))
    if not runs:
        return {}
    # Counts stay observed values; times are medians.
    metrics = {
        name: (statistics.median_low if isinstance(value, int) else statistics.median)(
            [r[name] for r in runs])
        for name, value in runs[0].items()
    }
    recomputations = [r["lattice.recomputations"] for r in runs]
    metrics["lattice.recomputations_distinct"] = len(set(recomputations))
    print(f"traced runs {len(runs)}; recomputations per child {recomputations} "
          "(base of lattice.downgrade_ratio)")
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# ---- entry point -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--seconds", type=float, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cli.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scalimm" / "cli.py").is_file() or not (root / "tests" / "golden").is_dir():
        print("error: run from the repository root (src/scalimm and tests/golden "
              "not found)", file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups: list[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        job = WORKLOADS[args.workload](root, work, args.seed)
        setups.append(time.perf_counter() - start)
    print(f"workload {args.workload} seed {args.seed}: {job.templates} templates, "
          f"inputs {json.dumps(job.counters)}; set up {len(setups)} times")

    tally = Tally()
    if args.trace:
        values, units = traced_run(root, work, job, args.seconds, tally), PER_LAYER_UNITS
    else:
        if args.workload == "golden_cli":
            # Verdicts and letters are checked once against the hand-derived file.
            run_tracer(root, work, job, traced_first=False, tally=tally)
        values = timed_run(root, work, job, args.seconds, tally)
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    print(f"failed_share {tally.failed / max(1, tally.attempted)} "
          f"({tally.failed} of {tally.attempted} checks)")
    for note in tally.notes:
        print(f"failure: {note}")
    for name, unit in units.items():
        print(f"{name:34} {values.get(name)!s:>24} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and len(values) == len(units),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
