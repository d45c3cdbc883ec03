"""Traced in-process run of one `scalimm analyze` job.

    PYTHONPATH=src python3 bench/tracer.py JOB.json OUT.json

JOB.json gives the job's command line (``argv``), its inputs
(``sources`` directory or ``ir`` document) and the names to ``explain``.
The script

1. times a fresh ``import scalimm.cli`` (nothing else is imported before
   it, so the figure includes every module the command line pulls in);
2. runs ``run_cli(argv)`` in-process, untraced;
3. runs ``run_cli(argv)`` again with a span around every call the
   command line makes into the other modules: ``parse_corpus`` (with
   ``parse_source`` per file and ``build_graph`` inside it) or
   ``load_ir``, ``parse_assumptions``, ``classify_corpus``,
   ``build_report`` and ``render_report``.  ``classify_corpus`` is run
   as its two public steps: ``run_fixpoint`` is given a wrapper around
   ``make_transfer(assumptions)`` that spans every transfer evaluation,
   then ``package_result`` runs;
4. right after the traced run, outside it, spans ``explain`` for each
   name, one ``template_dependencies`` call per template and
   ``serialize_ir`` on the objects that run produced.

Steps 2 and 3 (with 4) run in the order ``traced_first`` asks for, so
warm-up favours neither.  OUT.json gets the spans as ``[name, start, end,
parent]`` rows, the counters, every output and the per-template result.
Spans live in memory until the end; nothing here changes the program.
"""

import sys
import time


def main(job_path: str, out_path: str) -> None:
    start = time.perf_counter()
    import scalimm.cli  # noqa: F401  (timed: the first import in this process)

    import_s = time.perf_counter() - start

    import contextlib
    import gc
    import io
    import json
    from pathlib import Path

    from scalimm import classify, cli, ir, lattice, parser, report

    job = json.loads(Path(job_path).read_text())
    spans: list = []
    stack: list[int] = []
    clock = time.perf_counter

    def wrap(name, fn):
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, begin, end, stack[-1] if stack else None)

        return traced

    def call(name, fn, *args):
        return wrap(name, fn)(*args)

    @contextlib.contextmanager
    def patched(targets):
        """Route the program's calls between modules through spans."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in targets]
        for module, attr, name, replacement in targets:
            setattr(module, attr, wrap(name, replacement or getattr(module, attr)))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def run(traced: bool) -> tuple[float, int, str]:
        # Both runs start from an empty collector, so neither pays for
        # garbage the other left.
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            if traced:
                with patched(targets):
                    begin = clock()
                    code = call("cli.run_cli", cli.run_cli, job["argv"])
            else:
                begin = clock()
                code = cli.run_cli(job["argv"])
            seconds = clock() - begin
        return seconds, code, sink.getvalue()

    captured: dict = {}

    def classify_corpus(graph, assumptions=None):
        transfer = call("classify.make_transfer", classify.make_transfer, assumptions)
        fix = call("lattice.run_fixpoint", lattice.run_fixpoint, graph,
                   wrap("classify.transfer", transfer))
        result = call("classify.package_result", classify.package_result, graph, fix)
        captured.update(graph=graph, fix=fix, result=result)
        return result

    targets = [
        (cli, "parse_corpus", "parser.parse_corpus", None),
        (cli, "load_ir", "ir.load_ir", None),
        (cli, "parse_assumptions", "classify.parse_assumptions", None),
        (cli, "classify_corpus", "classify.classify_corpus", classify_corpus),
        (cli, "build_report", "report.build_report", None),
        (cli, "render_report", "report.render_report", None),
        (parser, "parse_source", "parser.parse_source", None),
        (parser, "build_graph", "ir.build_graph", None),
        (ir, "build_graph", "ir.build_graph", None),
    ]

    def traced_phase() -> dict:
        """The traced run and the spans that need its objects; returns
        plain data, so the untraced run never shares a heap with them."""
        _, _, output = run(traced=True)
        graph, fix, result = captured.pop("graph"), captured.pop("fix"), captured.pop("result")
        explanations = {}
        for name in job["explain"]:
            explanation = call("report.explain", report.explain, result, name)
            text = call("report.render_explanation", report.render_explanation, explanation)
            explanations[name] = text + "\n"
        edges = sum(
            len(call("ir.template_dependencies", ir.template_dependencies, graph, t))
            for t in graph.templates.values()
        )
        document = call("ir.serialize_ir", ir.serialize_ir, graph)
        tokens = lattice.VERDICT_TOKENS
        return {
            "output": output,
            "explanations": explanations,
            "result": {
                "verdicts": {n: tokens[v] for n, v in result.verdicts.items()},
                "attributes": {
                    n: sorted(a.value for a in result.attributes[n]) for n in result.verdicts
                },
            },
            "counters": {
                "templates": len(graph.templates),
                "edges": edges,
                "externals": len(graph.externals),
                "document_bytes": len(document),
                "recomputations": fix.recomputations,
                "strict_downgrades": sum(fix.strict_downgrades.values()),
                "output_bytes": len(output.encode("utf-8")),
            },
        }

    if job["traced_first"]:
        traced = traced_phase()
        run_cli_s, code, cli_output = run(traced=False)
    else:
        run_cli_s, code, cli_output = run(traced=False)
        traced = traced_phase()

    if job["ir"] is not None:
        files = [Path(job["ir"])]
    else:
        files = sorted(Path(job["sources"]).rglob("*.scala"))
    traced["counters"].update(files=len(files), bytes=sum(f.stat().st_size for f in files))
    Path(out_path).write_text(json.dumps({
        "import_s": import_s,
        "run_cli_s": run_cli_s,
        "run_cli_code": code,
        "run_cli_output": cli_output,
        **traced,
        "spans": spans,
    }))


if __name__ == "__main__":
    main(*sys.argv[1:])
