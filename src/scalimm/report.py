"""Result aggregation: summary tables, attribute combinations, rendering.

Two table shapes cover the statistics: a per-kind verdict summary with a
total row, and one attribute-combination table per explainable verdict
(mutable and shallow immutable).  Rendering is deterministic in all three
formats so reports can be compared byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple

from .classify import AnalysisResult, AttributeKey, EvidenceRecord
from .ir import INFERRED_HEAD, FieldDecl, TemplateGraph, TemplateKind
from .lattice import VERDICT_TOKENS, Verdict

__all__ = [
    "ComboRow",
    "ComboTable",
    "Explanation",
    "KindRow",
    "KindSummaryTable",
    "attribute_combinations",
    "build_report",
    "explain",
    "format_count",
    "render_explanation",
    "render_report",
    "summarize_by_kind",
]

#: Row order and label of the kind summary.
_KIND_LABELS: dict[TemplateKind, str] = {
    TemplateKind.CLASS: "Class",
    TemplateKind.CASE_CLASS: "Case class",
    TemplateKind.ANON_CLASS: "Anon. class",
    TemplateKind.TRAIT: "Trait",
    TemplateKind.OBJECT: "Object",
    TemplateKind.CASE_OBJECT: "Case object",
}

_VERDICT_PHRASES: dict[Verdict, str] = {
    Verdict.MUTABLE: "mutable",
    Verdict.SHALLOW_IMMUTABLE: "shallow immutable",
    Verdict.CONDITIONALLY_DEEP: "conditionally deep immutable",
    Verdict.DEEP_IMMUTABLE: "deep immutable",
}


def format_count(count: int, total: int) -> str:
    """Render a count with its share of ``total``: (124, 626) gives
    ``124 (19.8%)``.  A zero total renders as 0.0%."""
    return f"{count} ({_pct(count, total)}%)"


def _pct(count: int, total: int) -> str:
    return f"{0.0 if total == 0 else count / total * 100.0:.1f}"


class KindRow(NamedTuple):
    """One summary row; ``kind`` None marks the total row.  The columns
    after ``occurrences`` count the verdicts of ``_COLUMN_VERDICTS``."""

    kind: TemplateKind | None
    occurrences: int
    mutable: int
    shallow: int
    deep: int
    cond_deep: int

    @property
    def label(self) -> str:
        return "Total" if self.kind is None else _KIND_LABELS[self.kind]


_COLUMN_VERDICTS = (
    Verdict.MUTABLE,
    Verdict.SHALLOW_IMMUTABLE,
    Verdict.DEEP_IMMUTABLE,
    Verdict.CONDITIONALLY_DEEP,
)


class KindSummaryTable(NamedTuple):
    """Six kind rows in fixed order plus the total row."""

    rows: tuple[KindRow, ...]

    @property
    def total(self) -> KindRow:
        return self.rows[-1]


class ComboRow(NamedTuple):
    attributes: str
    occurrences: int


class ComboTable(NamedTuple):
    """Templates of one verdict grouped by their exact attribute set,
    keyed by the set rendered as sorted space-separated letters."""

    verdict: Verdict
    rows: tuple[ComboRow, ...]


_ReportTables = tuple[KindSummaryTable, ComboTable, ComboTable]


def summarize_by_kind(
    result: AnalysisResult, graph: TemplateGraph
) -> KindSummaryTable:
    """Count verdicts per template kind.  Percentages are a rendering
    concern and are not stored."""
    templates = graph.templates
    counts = Counter(
        (templates[name].kind, verdict)
        for name, verdict in result.verdicts.items()
    )
    rows = []
    for kind in _KIND_LABELS:
        columns = [counts[kind, verdict] for verdict in _COLUMN_VERDICTS]
        rows.append(KindRow(kind, sum(columns), *columns))
    rows.append(KindRow(None, *map(sum, list(zip(*rows))[1:])))
    return KindSummaryTable(tuple(rows))


def attribute_combinations(
    result: AnalysisResult, verdict: Verdict
) -> ComboTable:
    """Group the templates with the given verdict by attribute set.

    Only mutable and shallow immutable verdicts carry attributes; asking
    for any other verdict raises ValueError.
    """
    if verdict not in (Verdict.MUTABLE, Verdict.SHALLOW_IMMUTABLE):
        raise ValueError(
            f"{verdict.name} templates carry no attributes to combine"
        )
    combos = Counter(
        " ".join(sorted(a.value for a in result.attributes[name]))
        for name, v in result.verdicts.items()
        if v is verdict
    )
    return ComboTable(verdict, tuple(map(ComboRow._make, sorted(combos.items()))))


def build_report(
    result: AnalysisResult, graph: TemplateGraph
) -> _ReportTables:
    """The three tables every report consists of."""
    return (
        summarize_by_kind(result, graph),
        attribute_combinations(result, Verdict.MUTABLE),
        attribute_combinations(result, Verdict.SHALLOW_IMMUTABLE),
    )


# ---- rendering ------------------------------------------------------------

_SUMMARY_HEADERS = ("Kind", "Occurrences", "Mutable", "Shallow", "Deep", "Cond. deep")
_COMBO_HEADERS = ("Attributes", "Occurrences")


def _cells(
    tables: _ReportTables, cell: Callable[[int, int], str]
) -> list[list[tuple[str, ...]]]:
    """The three tables as rows of string cells, in table order.  ``cell``
    renders a count against its base: the corpus total for a kind's
    occurrences, the row's occurrences for a verdict column, and the
    verdict's total for an attribute combination."""
    summary, *combos = tables
    total = summary.total.occurrences
    cells = [
        [
            (row.label, cell(row.occurrences, total))
            + tuple(cell(n, row.occurrences) for n in row[2:])
            for row in summary.rows
        ]
    ]
    for combo in combos:
        base = sum(row.occurrences for row in combo.rows)
        cells.append([(r.attributes, cell(r.occurrences, base)) for r in combo.rows])
    return cells


def _layout(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return [fmt(headers)] + [fmt(row) for row in rows]


def _csv_header(fields: tuple[str, ...]) -> str:
    """The first field, then each count field followed by its share."""
    return ",".join([fields[0]] + [f"{f},{f}_pct" for f in fields[1:]])


def render_report(tables: _ReportTables, format: str = "text") -> bytes:
    """Render the three tables deterministically as UTF-8 bytes."""
    summary, *combos = tables
    if format == "text":
        summary_cells, *combo_cells = _cells(tables, format_count)
        lines = ["Immutability by template kind", ""]
        lines += _layout(_SUMMARY_HEADERS, summary_cells)
        for combo, cells in zip(combos, combo_cells):
            phrase = _VERDICT_PHRASES[combo.verdict]
            lines += ["", f"Attributes causing {phrase} verdicts", ""]
            lines += _layout(_COMBO_HEADERS, cells)
    elif format == "csv":
        summary_cells, *combo_cells = _cells(tables, lambda n, b: f"{n},{_pct(n, b)}")
        lines = [_csv_header(KindRow._fields)]
        lines += [",".join(row) for row in summary_cells]
        lines += ["", "verdict," + _csv_header(ComboRow._fields)]
        for combo, rows in zip(combos, combo_cells):
            token = VERDICT_TOKENS[combo.verdict]
            lines += [",".join((token,) + row) for row in rows]
    elif format == "json":
        import json  # here, so a text or csv run never loads it

        # Counts only: the summary rows with each kind's label, then one
        # list of attribute combinations per verdict.
        data = {"summary": [r._asdict() | {"kind": r.label} for r in summary.rows]}
        for combo in combos:
            key = f"{VERDICT_TOKENS[combo.verdict]}_combos"
            data[key] = [row._asdict() for row in combo.rows]
        lines = [json.dumps(data, indent=2, ensure_ascii=False)]
    else:
        raise ValueError(f"unknown report format {format!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---- per-template explanations --------------------------------------------


class Explanation(NamedTuple):
    """One template's verdict with its attribute letters and, per
    attribute, a human-readable cause line."""

    name: str
    verdict: Verdict
    attributes: tuple[AttributeKey, ...]
    causes: tuple[tuple[AttributeKey, str], ...]


#: The state word a cause line gives for its letter, and a note that ends
#: the line.  Field-type letters describe field types and parent type
#: arguments; parent letters describe parents.
_FIELD_TYPE_STATES: dict[AttributeKey, tuple[str, str]] = {
    AttributeKey.FIELD_TYPE_UNKNOWN: ("unknown", ""),
    AttributeKey.FIELD_TYPE_MUTABLE: ("mutable", ""),
    AttributeKey.FIELD_TYPE_ASSUMED_MUTABLE: ("mutable", " (assumption)"),
    AttributeKey.FIELD_TYPE_SHALLOW: ("shallow immutable", ""),
}
_PARENT_STATES: dict[AttributeKey, tuple[str, str]] = {
    AttributeKey.PARENT_UNKNOWN: ("unknown", ""),
    AttributeKey.PARENT_MUTABLE: ("mutable", ""),
    AttributeKey.PARENT_ASSUMED_MUTABLE: ("mutable", " (assumption)"),
    AttributeKey.PARENT_SHALLOW: ("shallow immutable", ""),
}


def _describe_cause(record: EvidenceRecord) -> str:
    """One cause line.  A letter that its kind of cause never records
    raises AssertionError."""
    attr = record.attribute
    cause = record.cause
    if isinstance(cause, FieldDecl):
        name = cause.name
        if attr is AttributeKey.PUBLIC_VAR:
            return f"reassignable field '{name}' is public"
        if attr is AttributeKey.PRIVATE_VAR:
            return f"reassignable field '{name}' is private"
        declared = cause.declared_type
        if attr is AttributeKey.FIELD_TYPE_UNKNOWN and declared.head == INFERRED_HEAD:
            return f"field '{name}' has no declared type"
        state, note = _state_words(_FIELD_TYPE_STATES, record)
        return f"field '{name}' has {state} type '{declared}'{note}"
    parent = cause.parent
    if cause.argument is not None:
        state, note = _state_words(_FIELD_TYPE_STATES, record)
        return f"type argument '{cause.argument}' of parent '{parent}' is {state}{note}"
    if attr is AttributeKey.FIELD_TYPE_UNKNOWN:
        return f"parent '{parent}' has unknown type arguments"
    state, note = _state_words(_PARENT_STATES, record)
    return f"parent '{parent}' is {state}{note}"


def _state_words(
    table: dict[AttributeKey, tuple[str, str]], record: EvidenceRecord
) -> tuple[str, str]:
    # Not a KeyError: explain's callers read that as an unknown template.
    if record.attribute not in table:
        raise AssertionError(f"{record.cause} with attribute {record.attribute}")
    return table[record.attribute]


def explain(result: AnalysisResult, name: str) -> Explanation:
    """Explain one template's verdict, causes sorted by attribute letter.

    Raises KeyError for a name the result does not cover.
    """
    if name not in result.verdicts:
        raise KeyError(name)
    attributes = tuple(
        sorted(result.attributes[name], key=lambda a: a.value)
    )
    causes = tuple(
        sorted(
            (
                (record.attribute, _describe_cause(record))
                for record in result.evidence[name]
            ),
            key=lambda pair: pair[0].value,
        )
    )
    return Explanation(name, result.verdicts[name], attributes, causes)


def render_explanation(explanation: Explanation) -> str:
    """One line for the verdict, one indented line per cause."""
    phrase = _VERDICT_PHRASES[explanation.verdict]
    if not explanation.causes:
        return f"{explanation.name}: {phrase}; no causes"
    lines = [f"{explanation.name}: {phrase}"]
    for attribute, description in explanation.causes:
        lines.append(f"  {attribute.value}: {description}")
    return "\n".join(lines)
