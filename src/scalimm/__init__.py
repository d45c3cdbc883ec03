"""Static immutability analyzer for a Scala-like subset language.

Pipeline: parse sources into a template graph, run the verdict lattice to
its greatest fixpoint, attach attribute explanations, and aggregate the
outcome into report tables.

The top level exports the four names that run the whole pipeline; every
other public name is imported from the module that defines it, such as
``scalimm.ir.TypeRef`` or ``scalimm.lattice.Verdict``.
"""

from .classify import classify_corpus
from .report import build_report, render_report

__version__ = "0.1.0"

__all__ = ["build_report", "classify_corpus", "parse_corpus", "render_report"]


def __getattr__(name: str) -> object:
    # The parser is imported on first use, so a program that reads only IR
    # documents never loads it.
    if name == "parse_corpus":
        from .parser import parse_corpus

        return parse_corpus
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
