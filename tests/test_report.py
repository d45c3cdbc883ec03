"""Report tables, text/csv/json rendering, per-template explanations."""

import json
import random
from pathlib import Path

import pytest

from scalimm.classify import (
    AttributeKey,
    EvidenceRecord,
    ParentCause,
    classify_corpus,
    parse_assumptions,
)
from scalimm.ir import FieldDecl, TemplateKind, TypeRef, Visibility
from scalimm.lattice import Verdict
from scalimm.parser import parse_corpus
from scalimm.report import (
    _describe_cause,
    attribute_combinations,
    build_report,
    explain,
    format_count,
    render_explanation,
    render_report,
    summarize_by_kind,
)

from graphgen import make_graph

OBJECT_LIKE = (
    TemplateKind.OBJECT,
    TemplateKind.CASE_OBJECT,
    TemplateKind.ANON_CLASS,
)

SAMPLE_SOURCE = """
class Counter { var count: Int = 0 }
class Child extends Counter
case class Pair[T](v: T)
class UsesPair { val p: Pair[Int] }
class Holder { val h = compute() }
class Murky { val a: ext.Gone = g; val b: lib.Legacy = l }
object Single
"""

SAMPLE_ASSUMPTIONS = parse_assumptions("Int deep\nlib.Legacy mutable\n")

# Cause lines the golden corpus does not produce: every kind of type
# argument of a parent, and both reassignable-field lines with no declared
# type.
CAUSE_SOURCE = """
class P[T](val t: T)
class Q extends P[ext.X]
class R extends P[lib.Buf]
class S(val u: ext.Y)
class U extends P[S]
class V { var x = 1; private var y = 2 }
"""

GOLDEN = Path(__file__).resolve().parent / "golden"


def sample_analysis():
    corpus = parse_corpus([("sample.scala", SAMPLE_SOURCE)])
    assert corpus.diagnostics == []
    result = classify_corpus(corpus.graph, SAMPLE_ASSUMPTIONS)
    return corpus.graph, result


def random_analysis(seed):
    graph, assumptions = make_graph(random.Random(seed))
    return graph, classify_corpus(graph, assumptions)


# ---- format_count ----------------------------------------------------------


def test_format_count_rounds_to_one_decimal():
    assert format_count(124, 626) == "124 (19.8%)"


def test_format_count_exact_and_empty_totals():
    assert format_count(1, 4) == "1 (25.0%)"
    assert format_count(0, 7) == "0 (0.0%)"
    assert format_count(0, 0) == "0 (0.0%)"
    assert format_count(3, 3) == "3 (100.0%)"


# ---- table construction ----------------------------------------------------


def test_summary_counts_sample_corpus():
    graph, result = sample_analysis()
    table = summarize_by_kind(result, graph)
    by_label = {row.label: row for row in table.rows}
    cls = by_label["Class"]
    assert (cls.occurrences, cls.mutable, cls.shallow, cls.deep) == (5, 2, 2, 1)
    assert by_label["Case class"].cond_deep == 1
    assert by_label["Object"].deep == 1
    assert table.total.occurrences == 7


def test_summary_rows_are_internally_consistent():
    for seed in range(40):
        graph, result = random_analysis(seed)
        table = summarize_by_kind(result, graph)
        for row in table.rows:
            assert row.occurrences == (
                row.mutable + row.shallow + row.deep + row.cond_deep
            )
        total = table.total
        body = table.rows[:-1]
        assert total.occurrences == sum(r.occurrences for r in body)
        assert total.mutable == sum(r.mutable for r in body)
        assert total.shallow == sum(r.shallow for r in body)
        assert total.deep == sum(r.deep for r in body)
        assert total.cond_deep == sum(r.cond_deep for r in body)
        assert total.occurrences == len(graph.templates)


def test_object_like_rows_never_report_conditionally_deep():
    for seed in range(40):
        graph, result = random_analysis(seed)
        table = summarize_by_kind(result, graph)
        for row in table.rows[:-1]:
            if row.kind in OBJECT_LIKE:
                assert row.cond_deep == 0


def test_combo_tables_partition_their_verdict():
    for seed in range(40):
        graph, result = random_analysis(seed)
        summary = summarize_by_kind(result, graph)
        for verdict, count in (
            (Verdict.MUTABLE, summary.total.mutable),
            (Verdict.SHALLOW_IMMUTABLE, summary.total.shallow),
        ):
            table = attribute_combinations(result, verdict)
            assert sum(r.occurrences for r in table.rows) == count
            keys = [r.attributes for r in table.rows]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))
            for key in keys:
                letters = key.split(" ")
                assert letters == sorted(letters)


def test_combo_rows_for_attribute_free_verdicts_are_rejected():
    _, result = sample_analysis()
    with pytest.raises(ValueError):
        attribute_combinations(result, Verdict.DEEP_IMMUTABLE)
    with pytest.raises(ValueError):
        attribute_combinations(result, Verdict.CONDITIONALLY_DEEP)


def test_sample_combo_contents():
    graph, result = sample_analysis()
    _, mutable_combos, shallow_combos = build_report(result, graph)
    assert [(r.attributes, r.occurrences) for r in mutable_combos.rows] == [
        ("B", 1),
        ("C", 1),
    ]
    assert [(r.attributes, r.occurrences) for r in shallow_combos.rows] == [
        ("G", 1),
        ("G I", 1),
    ]


# ---- rendering -------------------------------------------------------------


def test_text_rendering_shape_and_percentages():
    graph, result = sample_analysis()
    text = render_report(build_report(result, graph), "text").decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "Immutability by template kind"
    assert lines[1] == ""
    assert lines[2].split() == [
        "Kind", "Occurrences", "Mutable", "Shallow", "Deep", "Cond.", "deep",
    ]
    (class_line,) = [l for l in lines if l.startswith("Class ")]
    assert "5 (71.4%)" in class_line
    assert "2 (40.0%)" in class_line
    (total_line,) = [l for l in lines if l.startswith("Total")]
    assert "7 (100.0%)" in total_line
    assert "Attributes causing mutable verdicts" in lines
    assert "Attributes causing shallow immutable verdicts" in lines
    assert not any(line != line.rstrip() for line in lines)
    assert text.endswith("\n")


def test_csv_rendering_shape():
    graph, result = sample_analysis()
    csv_text = render_report(build_report(result, graph), "csv").decode("utf-8")
    lines = csv_text.splitlines()
    assert lines[0].startswith("kind,occurrences,occurrences_pct,mutable")
    blank = lines.index("")
    assert lines[blank + 1] == "verdict,attributes,occurrences,occurrences_pct"
    assert "mutable,B,1,50.0" in lines
    assert "shallow,G I,1,50.0" in lines
    total_line = [l for l in lines if l.startswith("Total,")][0]
    assert total_line.split(",")[1:3] == ["7", "100.0"]


def test_json_rendering_round_trips_to_dict():
    graph, result = sample_analysis()
    tables = build_report(result, graph)
    payload = json.loads(render_report(tables, "json").decode("utf-8"))
    keys = ("kind", "occurrences", "mutable", "shallow", "deep", "cond_deep")
    summary = [
        ("Class", 5, 2, 2, 1, 0),
        ("Case class", 1, 0, 0, 0, 1),
        ("Anon. class", 0, 0, 0, 0, 0),
        ("Trait", 0, 0, 0, 0, 0),
        ("Object", 1, 0, 0, 1, 0),
        ("Case object", 0, 0, 0, 0, 0),
        ("Total", 7, 2, 2, 2, 1),
    ]
    assert payload == {
        "summary": [dict(zip(keys, row)) for row in summary],
        "mutable_combos": [
            {"attributes": "B", "occurrences": 1},
            {"attributes": "C", "occurrences": 1},
        ],
        "shallow_combos": [
            {"attributes": "G", "occurrences": 1},
            {"attributes": "G I", "occurrences": 1},
        ],
    }


def test_unknown_format_is_rejected():
    graph, result = sample_analysis()
    with pytest.raises(ValueError):
        render_report(build_report(result, graph), "xml")


def test_rendering_is_deterministic_across_runs():
    first_graph, first_result = sample_analysis()
    second_graph, second_result = sample_analysis()
    for fmt in ("text", "csv", "json"):
        assert render_report(
            build_report(first_result, first_graph), fmt
        ) == render_report(build_report(second_result, second_graph), fmt)


def test_empty_corpus_renders_headers_only():
    corpus = parse_corpus([])
    result = classify_corpus(corpus.graph)
    tables = build_report(result, corpus.graph)
    assert tables[0].total.occurrences == 0
    csv_lines = render_report(tables, "csv").decode("utf-8").splitlines()
    assert len(csv_lines) == 10  # header + 7 kind rows + blank + combo header
    text = render_report(tables, "text").decode("utf-8")
    assert "Total" in text
    assert "0 (0.0%)" in text


# ---- explanations ----------------------------------------------------------


def test_explain_mutable_parent():
    _, result = sample_analysis()
    explanation = explain(result, "Child")
    assert explanation.verdict is Verdict.MUTABLE
    assert [a.value for a in explanation.attributes] == ["B"]
    assert render_explanation(explanation) == (
        "Child: mutable\n  B: parent 'Counter' is mutable"
    )


def test_explain_reassignable_field():
    _, result = sample_analysis()
    assert render_explanation(explain(result, "Counter")) == (
        "Counter: mutable\n  C: reassignable field 'count' is public"
    )


def test_explain_inferred_field_type():
    _, result = sample_analysis()
    assert render_explanation(explain(result, "Holder")) == (
        "Holder: shallow immutable\n  G: field 'h' has no declared type"
    )


def test_explain_orders_causes_by_attribute_letter():
    _, result = sample_analysis()
    rendered = render_explanation(explain(result, "Murky"))
    g_line = "  G: field 'a' has unknown type 'ext.Gone'"
    i_line = "  I: field 'b' has mutable type 'lib.Legacy' (assumption)"
    assert rendered == f"Murky: shallow immutable\n{g_line}\n{i_line}"


def test_explain_verdicts_without_causes():
    _, result = sample_analysis()
    assert render_explanation(explain(result, "Single")) == (
        "Single: deep immutable; no causes"
    )
    assert render_explanation(explain(result, "Pair")) == (
        "Pair: conditionally deep immutable; no causes"
    )


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "Q",
            "Q: shallow immutable\n"
            "  G: type argument 'ext.X' of parent 'P[ext.X]' is unknown",
        ),
        (
            "R",
            "R: shallow immutable\n"
            "  I: type argument 'lib.Buf' of parent 'P[lib.Buf]' is mutable "
            "(assumption)",
        ),
        (
            "U",
            "U: shallow immutable\n"
            "  J: type argument 'S' of parent 'P[S]' is shallow immutable",
        ),
        (
            "V",
            "V: mutable\n"
            "  C: reassignable field 'x' is public\n"
            "  D: reassignable field 'y' is private",
        ),
    ],
)
def test_explain_cause_lines_missing_from_the_golden_corpus(name, expected):
    corpus = parse_corpus([("causes.scala", CAUSE_SOURCE)])
    assert corpus.diagnostics == []
    result = classify_corpus(
        corpus.graph, parse_assumptions("lib.Buf mutable\n")
    )
    assert render_explanation(explain(result, name)) == expected


@pytest.mark.parametrize(
    "attribute, cause",
    [
        (
            AttributeKey.PARENT_MUTABLE,
            FieldDecl("x", False, Visibility.PUBLIC, TypeRef("M")),
        ),
        (AttributeKey.PUBLIC_VAR, ParentCause(TypeRef("P"))),
        (AttributeKey.FIELD_TYPE_MUTABLE, ParentCause(TypeRef("P"))),
        (
            AttributeKey.PARENT_SHALLOW,
            ParentCause(TypeRef("P", (TypeRef("S"),)), TypeRef("S")),
        ),
    ],
    ids=["parent-letter-on-field", "var-letter-on-parent", "type-letter-on-bare-parent",
         "parent-letter-on-argument"],
)
def test_cause_line_rejects_a_letter_its_cause_never_records(attribute, cause):
    with pytest.raises(AssertionError):
        _describe_cause(EvidenceRecord(attribute, cause))


def test_explain_every_golden_template_matches_committed_file():
    sources = [
        (path.name, path.read_text(encoding="utf-8"))
        for path in sorted(GOLDEN.glob("*.scala"))
    ]
    corpus = parse_corpus(sources)
    assert corpus.diagnostics == []
    assumptions = parse_assumptions(
        (GOLDEN / "assumptions.txt").read_text(encoding="utf-8")
    )
    result = classify_corpus(corpus.graph, assumptions)
    rendered = "".join(
        render_explanation(explain(result, name)) + "\n"
        for name in corpus.graph.templates
    )
    committed = (GOLDEN / "expected_explain.txt").read_bytes()
    assert rendered.encode("utf-8") == committed


def test_explain_unknown_template_raises_key_error():
    _, result = sample_analysis()
    with pytest.raises(KeyError):
        explain(result, "Nobody")
