"""Command-line driver: parse, classify, report.

Exit codes: 0 on success, 1 when the input failed to parse or validate
(diagnostics go to the error stream as ``file:line:col: message``), 2 for
bad command-line usage, and 3 when the analyzer itself failed (one
``internal error: <type>: <message>`` line on the error stream, no
traceback).
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .classify import classify_corpus, parse_assumptions
from .ir import IRError, TemplateGraph, load_ir
from .report import build_report, explain, render_explanation, render_report

if TYPE_CHECKING:
    from .parser import CorpusParse

__all__ = ["main", "run_cli"]


def parse_corpus(sources: list[tuple[str, str]]) -> CorpusParse:
    """``scalimm.parser.parse_corpus``, with the parser imported on the
    first call, so a run that reads an IR document never loads it."""
    from . import parser

    return parser.parse_corpus(sources)


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalimm",
        description="Static immutability analyzer for a Scala-like subset",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser(
        "analyze",
        help="classify sources (or an IR document) and print report tables",
    )
    analyze.add_argument(
        "paths",
        nargs="+",
        help="source files or directories (searched for *.scala), "
        "or one IR document with --ir",
    )
    analyze.add_argument(
        "--ir",
        action="store_true",
        help="treat the single path as a serialized template-graph document",
    )
    analyze.add_argument(
        "--assume",
        metavar="FILE",
        help="assumption list: one 'qualified-name verdict' per line",
    )
    analyze.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="report format (default: text)",
    )
    analyze.add_argument(
        "--explain",
        metavar="NAME",
        help="print one template's verdict and causes instead of the tables",
    )
    analyze.add_argument(
        "--out",
        metavar="PATH",
        help="write the output to a file instead of standard output",
    )
    return parser


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def _read_text(path: Path) -> str | int:
    """A source or assumption file's text, decoded as UTF-8 with a leading
    byte-order mark dropped, or exit code 1 after one error line."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except OSError as exc:
        return _fail(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        return _fail(f"{path}: not valid UTF-8 ({exc.reason})")


def _load_graph(args: argparse.Namespace) -> TemplateGraph | int:
    paths = [Path(p) for p in args.paths]
    if args.ir:
        if len(paths) != 1:
            print(
                "error: --ir takes exactly one document path", file=sys.stderr
            )
            return 2
        try:
            data = paths[0].read_bytes()
        except OSError as exc:
            return _fail(f"{paths[0]}: {exc.strerror or exc}")
        try:
            return load_ir(data)
        except IRError as exc:
            return _fail(f"{paths[0]}: {exc}")

    # Keyed by resolved path, so a file named twice, or both directly and
    # through its directory, is read once under its first spelling.
    files: dict[Path, Path] = {}
    for path in paths:
        if path.is_dir():
            found = sorted(p for p in path.rglob("*.scala") if not p.is_dir())
        elif path.is_file():
            found = [path]
        else:
            return _fail(f"{path}: no such file or directory")
        for file in found:
            files.setdefault(file.resolve(), file)
    sources: list[tuple[str, str]] = []
    for file in files.values():
        text = _read_text(file)
        if isinstance(text, int):
            return text
        sources.append((str(file), text))
    corpus = parse_corpus(sources)
    if corpus.diagnostics:
        for diagnostic in corpus.diagnostics:
            print(diagnostic, file=sys.stderr)
        return 1
    assert corpus.graph is not None
    return corpus.graph


def _run_analyze(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if isinstance(graph, int):
        return graph

    assumptions = None
    if args.assume is not None:
        text = _read_text(Path(args.assume))
        if isinstance(text, int):
            return text
        try:
            assumptions = parse_assumptions(text)
        except ValueError as exc:
            return _fail(f"{args.assume}: {exc}")

    result = classify_corpus(graph, assumptions)

    if args.explain is not None:
        try:
            explanation = explain(result, args.explain)
        except KeyError:
            print(
                f"error: unknown template name {args.explain!r}",
                file=sys.stderr,
            )
            return 2
        output = (render_explanation(explanation) + "\n").encode("utf-8")
    else:
        output = render_report(build_report(result, graph), args.format)

    if args.out is not None:
        try:
            Path(args.out).write_bytes(output)
        except OSError as exc:
            return _fail(f"{args.out}: {exc.strerror or exc}")
    elif hasattr(sys.stdout, "buffer"):
        # The bytes ``--out`` would write, whatever the stream's encoding.
        sys.stdout.flush()
        sys.stdout.buffer.write(output)
    else:  # a text-only stream, such as io.StringIO
        sys.stdout.write(output.decode("utf-8"))
    return 0


def run_cli(argv: list[str]) -> int:
    """Run the command line and return its exit code instead of exiting."""
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _run_analyze(args)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    # A run is one short process, and what it builds forms no reference
    # cycles (argparse and the JSON encoder leave a fixed few), so
    # reference counting frees it, and the cyclic collector's passes over
    # the growing graph would find nothing.
    gc.disable()
    raise SystemExit(run_cli(sys.argv[1:]))
