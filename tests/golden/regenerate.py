"""Regenerate the derived golden artifacts and verify the hand-written one.

Run from the repository root:

    python3 tests/golden/regenerate.py

Rewrites expected_ir.json, the report in all three formats
(expected_report.txt, expected_report.csv and expected_report.json) and
expected_explain.txt (one ``--explain`` block per template, in graph
order) from the .scala sources.
expected_result.json is hand-maintained (see DERIVATION.md) and is only
checked here; a mismatch means either the sources changed without updating
the derivation or the analyzer changed behavior.
"""

import json
import sys
from pathlib import Path

from scalimm.classify import classify_corpus, parse_assumptions
from scalimm.ir import serialize_ir
from scalimm.lattice import VERDICT_TOKENS
from scalimm.parser import parse_corpus
from scalimm.report import (
    build_report,
    explain,
    render_explanation,
    render_report,
)

GOLDEN = Path(__file__).resolve().parent


def main() -> int:
    sources = [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(GOLDEN.glob("*.scala"))
    ]
    corpus = parse_corpus(sources)
    if corpus.diagnostics:
        for diagnostic in corpus.diagnostics:
            print(diagnostic, file=sys.stderr)
        return 1
    assumptions = parse_assumptions(
        (GOLDEN / "assumptions.txt").read_text(encoding="utf-8")
    )
    result = classify_corpus(corpus.graph, assumptions)

    expected = json.loads(
        (GOLDEN / "expected_result.json").read_text(encoding="utf-8")
    )
    actual = {
        "verdicts": {
            name: VERDICT_TOKENS[verdict]
            for name, verdict in result.verdicts.items()
        },
        "attributes": {
            name: sorted(a.value for a in result.attributes[name])
            for name in result.verdicts
        },
    }
    mismatched = [
        name
        for name in sorted(set(expected["verdicts"]) | set(actual["verdicts"]))
        if expected["verdicts"].get(name) != actual["verdicts"].get(name)
        or expected["attributes"].get(name) != actual["attributes"].get(name)
    ]
    if mismatched:
        print(
            "expected_result.json disagrees with the analyzer for: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        print("update DERIVATION.md before touching the goldens", file=sys.stderr)
        return 1

    (GOLDEN / "expected_ir.json").write_bytes(serialize_ir(corpus.graph))
    tables = build_report(result, corpus.graph)
    for format, suffix in (("text", "txt"), ("csv", "csv"), ("json", "json")):
        (GOLDEN / f"expected_report.{suffix}").write_bytes(
            render_report(tables, format)
        )
    (GOLDEN / "expected_explain.txt").write_text(
        "".join(
            render_explanation(explain(result, name)) + "\n"
            for name in corpus.graph.templates
        ),
        encoding="utf-8",
        newline="\n",
    )
    print(
        "regenerated expected_ir.json, expected_report.{txt,csv,json} "
        "and expected_explain.txt"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
