"""The IR and result records are immutable value types: named tuples
whose fields cannot be set, which compare and hash by value and print as
their constructor call."""

import pytest

from scalimm.classify import AnalysisResult, AttributeKey, EvidenceRecord, ParentCause
from scalimm.ir import FieldDecl, TemplateDef, TemplateKind, TypeRef, Visibility, build_graph
from scalimm.lattice import FixpointResult, TransferResult, Verdict
from scalimm.parser import CorpusParse, ParseDiagnostic, ParseResult, SourcePosition
from scalimm.report import ComboRow, ComboTable, Explanation, KindRow, KindSummaryTable


def field_x():
    return FieldDecl("x", False, Visibility.PUBLIC, TypeRef("A"))


RECORDS = [
    TypeRef("A"),
    field_x(),
    TemplateDef("C", TemplateKind.CLASS),
    build_graph([]),
    ParentCause(TypeRef("P")),
    EvidenceRecord(AttributeKey.PARENT_MUTABLE, ParentCause(TypeRef("P"))),
    AnalysisResult({}, {}, {}),
    TransferResult(Verdict.MUTABLE, ()),
    FixpointResult({}, {}, {}, {}, 0),
    SourcePosition("f", 1, 2),
    ParseDiagnostic(SourcePosition("f", 1, 2), "m"),
    ParseResult([], [], []),
    CorpusParse(None, []),
    KindRow(None, 0, 0, 0, 0, 0),
    KindSummaryTable(()),
    ComboRow("A", 1),
    ComboTable(Verdict.MUTABLE, ()),
    Explanation("C", Verdict.MUTABLE, (), ()),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_a_tuple_whose_fields_cannot_be_set(record):
    assert isinstance(record, tuple)
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = None


#: Builders of the records kept in sets and dictionary keys, and each one's
#: repr.
VALUES = {
    "TypeRef": (
        lambda: TypeRef("P", (TypeRef("A"),)),
        "TypeRef(head='P', args=(TypeRef(head='A', args=()),))",
    ),
    "FieldDecl": (
        field_x,
        "FieldDecl(name='x', reassignable=False, visibility=<Visibility.PUBLIC: "
        "'public'>, declared_type=TypeRef(head='A', args=()))",
    ),
    "TemplateDef": (
        lambda: TemplateDef("C", TemplateKind.CLASS, ("T",), fields=(field_x(),)),
        "TemplateDef(name='C', kind=<TemplateKind.CLASS: 'class'>, type_params=('T',), "
        "abstract_type_members=frozenset(), parents=(), fields=(FieldDecl(name='x', "
        "reassignable=False, visibility=<Visibility.PUBLIC: 'public'>, "
        "declared_type=TypeRef(head='A', args=())),))",
    ),
    "ParentCause": (
        lambda: ParentCause(TypeRef("P"), TypeRef("A")),
        "ParentCause(parent=TypeRef(head='P', args=()), "
        "argument=TypeRef(head='A', args=()))",
    ),
    "EvidenceRecord": (
        lambda: EvidenceRecord(AttributeKey.PUBLIC_VAR, field_x()),
        "EvidenceRecord(attribute=<AttributeKey.PUBLIC_VAR: 'C'>, cause=FieldDecl("
        "name='x', reassignable=False, visibility=<Visibility.PUBLIC: 'public'>, "
        "declared_type=TypeRef(head='A', args=())))",
    ),
}


@pytest.mark.parametrize("build, text", VALUES.values(), ids=VALUES.keys())
def test_a_record_compares_and_hashes_by_value(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != a._replace(**{a._fields[0]: "other"})
    assert repr(a) == text
