"""Result aggregation: summary tables, attribute combinations, rendering.

Two table shapes cover the statistics: a per-kind verdict summary with a
total row, and one attribute-combination table per explainable verdict
(mutable and shallow immutable).  Rendering is deterministic in all three
formats so reports can be compared byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

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

#: Fixed row order of the kind summary.
_KIND_ORDER: tuple[TemplateKind, ...] = (
    TemplateKind.CLASS,
    TemplateKind.CASE_CLASS,
    TemplateKind.ANON_CLASS,
    TemplateKind.TRAIT,
    TemplateKind.OBJECT,
    TemplateKind.CASE_OBJECT,
)

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
    """One summary row; ``kind`` None marks the total row."""

    kind: TemplateKind | None
    occurrences: int
    mutable: int
    shallow: int
    deep: int
    cond_deep: int

    @property
    def label(self) -> str:
        return "Total" if self.kind is None else _KIND_LABELS[self.kind]


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
    counts: dict[TemplateKind, Counter] = {kind: Counter() for kind in _KIND_ORDER}
    for name, verdict in result.verdicts.items():
        counts[graph.templates[name].kind][verdict] += 1

    rows: list[KindRow] = []
    for kind in _KIND_ORDER:
        c = counts[kind]
        rows.append(
            KindRow(
                kind=kind,
                occurrences=sum(c.values()),
                mutable=c[Verdict.MUTABLE],
                shallow=c[Verdict.SHALLOW_IMMUTABLE],
                deep=c[Verdict.DEEP_IMMUTABLE],
                cond_deep=c[Verdict.CONDITIONALLY_DEEP],
            )
        )
    rows.append(
        KindRow(
            kind=None,
            occurrences=sum(r.occurrences for r in rows),
            mutable=sum(r.mutable for r in rows),
            shallow=sum(r.shallow for r in rows),
            deep=sum(r.deep for r in rows),
            cond_deep=sum(r.cond_deep for r in rows),
        )
    )
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
    combos: Counter = Counter()
    for name, v in result.verdicts.items():
        if v is verdict:
            key = " ".join(sorted(a.value for a in result.attributes[name]))
            combos[key] += 1
    rows = tuple(
        ComboRow(key, combos[key]) for key in sorted(combos)
    )
    return ComboTable(verdict, rows)


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


def _layout(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: tuple[str, ...]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return [fmt(headers)] + [fmt(row) for row in rows]


def _summary_cells(table: KindSummaryTable) -> list[tuple[str, ...]]:
    total = table.total.occurrences
    cells = []
    for row in table.rows:
        cells.append(
            (
                row.label,
                format_count(row.occurrences, total),
                format_count(row.mutable, row.occurrences),
                format_count(row.shallow, row.occurrences),
                format_count(row.deep, row.occurrences),
                format_count(row.cond_deep, row.occurrences),
            )
        )
    return cells

def _combo_title(table: ComboTable) -> str:
    return f"Attributes causing {_VERDICT_PHRASES[table.verdict]} verdicts"


def _render_text(tables: _ReportTables) -> bytes:
    summary, mutable_combos, shallow_combos = tables
    lines: list[str] = ["Immutability by template kind", ""]
    lines.extend(_layout(_SUMMARY_HEADERS, _summary_cells(summary)))
    for combo in (mutable_combos, shallow_combos):
        verdict_total = sum(r.occurrences for r in combo.rows)
        lines.extend(["", _combo_title(combo), ""])
        rows = [
            (row.attributes, format_count(row.occurrences, verdict_total))
            for row in combo.rows
        ]
        lines.extend(_layout(_COMBO_HEADERS, rows))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _render_csv(tables: _ReportTables) -> bytes:
    summary, mutable_combos, shallow_combos = tables
    total = summary.total.occurrences
    lines = [
        "kind,occurrences,occurrences_pct,mutable,mutable_pct,"
        "shallow,shallow_pct,deep,deep_pct,cond_deep,cond_deep_pct"
    ]
    for row in summary.rows:
        lines.append(
            ",".join(
                (
                    row.label,
                    str(row.occurrences),
                    _pct(row.occurrences, total),
                    str(row.mutable),
                    _pct(row.mutable, row.occurrences),
                    str(row.shallow),
                    _pct(row.shallow, row.occurrences),
                    str(row.deep),
                    _pct(row.deep, row.occurrences),
                    str(row.cond_deep),
                    _pct(row.cond_deep, row.occurrences),
                )
            )
        )
    lines.append("")
    lines.append("verdict,attributes,occurrences,occurrences_pct")
    for combo in (mutable_combos, shallow_combos):
        verdict_total = sum(r.occurrences for r in combo.rows)
        token = VERDICT_TOKENS[combo.verdict]
        for row in combo.rows:
            lines.append(
                ",".join(
                    (
                        token,
                        row.attributes,
                        str(row.occurrences),
                        _pct(row.occurrences, verdict_total),
                    )
                )
            )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _report_to_dict(tables: _ReportTables) -> dict:
    """Counts-only mirror of the three tables, for the JSON format."""
    summary, mutable_combos, shallow_combos = tables

    def combo_rows(table: ComboTable) -> list[dict]:
        return [
            {"attributes": row.attributes, "occurrences": row.occurrences}
            for row in table.rows
        ]

    return {
        "summary": [
            {
                "kind": row.label,
                "occurrences": row.occurrences,
                "mutable": row.mutable,
                "shallow": row.shallow,
                "deep": row.deep,
                "cond_deep": row.cond_deep,
            }
            for row in summary.rows
        ],
        "mutable_combos": combo_rows(mutable_combos),
        "shallow_combos": combo_rows(shallow_combos),
    }


def render_report(tables: _ReportTables, format: str = "text") -> bytes:
    """Render the three tables deterministically as UTF-8 bytes."""
    if format == "text":
        return _render_text(tables)
    if format == "csv":
        return _render_csv(tables)
    if format == "json":
        import json  # here, so a text or csv run never loads it

        return (
            json.dumps(_report_to_dict(tables), indent=2, ensure_ascii=False)
            + "\n"
        ).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")


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
