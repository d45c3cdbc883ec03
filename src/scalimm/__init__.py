"""Static immutability analyzer for a Scala-like subset language.

Pipeline: parse sources into a template graph, run the verdict lattice to
its greatest fixpoint, attach attribute explanations, and aggregate the
outcome into report tables.
"""

from .classify import (
    AnalysisResult,
    AttributeKey,
    ClassificationError,
    EvidenceRecord,
    MUTABLE_ATTRIBUTES,
    ParentCause,
    SHALLOW_ATTRIBUTES,
    classify_corpus,
    evaluate_field_type,
    parse_assumptions,
    transfer,
)
from .ir import (
    FieldDecl,
    IRError,
    TemplateDef,
    TemplateGraph,
    TemplateKind,
    TypeRef,
    Visibility,
    build_graph,
    load_ir,
    serialize_ir,
)
from .lattice import Verdict, meet, run_fixpoint
from .parser import (
    CorpusParse,
    ParseDiagnostic,
    ParseResult,
    SourcePosition,
    parse_corpus,
    parse_source,
)
from .report import (
    ComboTable,
    Explanation,
    KindSummaryTable,
    attribute_combinations,
    build_report,
    explain,
    format_count,
    render_explanation,
    render_report,
    summarize_by_kind,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult",
    "AttributeKey",
    "ClassificationError",
    "ComboTable",
    "CorpusParse",
    "EvidenceRecord",
    "Explanation",
    "FieldDecl",
    "IRError",
    "KindSummaryTable",
    "MUTABLE_ATTRIBUTES",
    "ParentCause",
    "ParseDiagnostic",
    "ParseResult",
    "SHALLOW_ATTRIBUTES",
    "SourcePosition",
    "TemplateDef",
    "TemplateGraph",
    "TemplateKind",
    "TypeRef",
    "Verdict",
    "Visibility",
    "attribute_combinations",
    "build_graph",
    "build_report",
    "classify_corpus",
    "evaluate_field_type",
    "explain",
    "format_count",
    "load_ir",
    "meet",
    "parse_assumptions",
    "parse_corpus",
    "parse_source",
    "render_explanation",
    "render_report",
    "run_fixpoint",
    "serialize_ir",
    "summarize_by_kind",
    "transfer",
]
