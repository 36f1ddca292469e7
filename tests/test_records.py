import copy
import pickle
from fractions import Fraction

import pytest

from haefliger.calculus import HomotopyEvent
from haefliger.classical import Arrow, parse_gauss_code
from haefliger.diagram import CrossingDiagram, LiftId
from haefliger.errors import ParseError
from haefliger.generator import BorromeanParams, GeneratorReport, LabeledCurve
from haefliger.linking import PolyCurve, ProjectionAxis


class TaggedDiagram(CrossingDiagram):
    """A subclass at module level, so that pickle can find it."""


TRIANGLE = [(0, 0, 0), (1, 0, 0), (0, 1, Fraction(1, 3))]
PAIR = (LiftId(1, 0), LiftId(2, 1))

# Each record type: a builder whose calls give equal records, the field
# names in order, and whether the record hashes (dict fields do not).
RECORDS = {
    "CrossingDiagram": (lambda: CrossingDiagram(1, 2, {PAIR: 3}, {LiftId(1, 0): 1}),
                        ("k", "m", "lk", "writhe"), False),
    "TaggedDiagram": (lambda: TaggedDiagram(1, 2, {PAIR: 3}),
                      ("k", "m", "lk", "writhe"), False),
    "HomotopyEvent": (lambda: HomotopyEvent("indefinite_tangency", -1, index=1,
                                            joins_components=True, lk00=2),
                      ("kind", "sign", "index", "joins_components", "lk00", "lk11",
                       "pattern"), True),
    "Arrow": (lambda: Arrow("1", 0, 3, 1), ("label", "over", "under", "sign"), True),
    "GaussDiagramK": (lambda: parse_gauss_code("O1+U2+O3+U1+O2+U3+"), ("arrows",), True),
    "PolyCurve": (lambda: PolyCurve(TRIANGLE), ("_scale", "_grid"), True),
    "ProjectionAxis": (lambda: ProjectionAxis((0.6, 0, 0.8)), ("direction",), True),
    "BorromeanParams": (lambda: BorromeanParams(Fraction(7, 2), 0.5, 2),
                        ("alpha", "beta", "k"), True),
    "LabeledCurve": (lambda: LabeledCurve(LiftId(1, 0), "X", PolyCurve(TRIANGLE)),
                     ("lift", "sphere", "curve"), True),
    "GeneratorReport": (lambda: GeneratorReport({PAIR: 1}, True, Fraction(1),
                                                {1: Fraction(1)}),
                        ("linking_matrix", "matches_diagram", "h_value",
                         "singleton_deltas"), False),
}

# Reprs pinned character for character: output and error messages print
# them, as a wrongly typed HomotopyEvent's ParseError does.
PINNED_REPRS = {
    "HomotopyEvent": "HomotopyEvent(kind='indefinite_tangency', sign=-1, index=1,"
                     " joins_components=True, lk00=2, lk11=0, pattern=None)",
    "Arrow": "Arrow(label='1', over=0, under=3, sign=1)",
    "GaussDiagramK": "GaussDiagramK(arrows=(Arrow(label='1', over=0, under=3, sign=1),"
                     " Arrow(label='2', over=4, under=1, sign=1),"
                     " Arrow(label='3', over=2, under=5, sign=1)))",
    "BorromeanParams": "BorromeanParams(alpha=Fraction(7, 2), beta=Fraction(1, 2), k=2)",
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_by_type_and_fields(name):
    build, fields, hashable = RECORDS[name]
    a, b = build(), build()
    assert a._fields == fields
    assert a == b and not a != b
    values = tuple(getattr(a, field) for field in fields)
    assert a != values
    if name != "PolyCurve":  # built from points, not from its grid
        assert type(a)(*values) == a == type(a)(**dict(zip(fields, values)))
    for other, (build_other, _, _) in RECORDS.items():
        if other != name:
            assert a != build_other()
    if hashable:
        assert hash(a) == hash(b) and {a: 1}[b] == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(name):
    build, fields, _ = RECORDS[name]
    a = build()
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == build()


@pytest.mark.parametrize("name", RECORDS)
def test_records_pickle_and_deepcopy_as_themselves(name):
    build, _, _ = RECORDS[name]
    a = build()
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(copied) is type(a) and copied == a and repr(copied) == repr(a)


@pytest.mark.parametrize("name", PINNED_REPRS)
def test_record_reprs_are_pinned(name):
    assert repr(RECORDS[name][0]()) == PINNED_REPRS[name]


def test_a_wrongly_typed_event_names_itself_in_its_error():
    with pytest.raises(ParseError) as exc:
        HomotopyEvent("triple_point", sign=True, pattern="all_distinct")
    assert str(exc.value) == (
        "event fields of the wrong type: HomotopyEvent(kind='triple_point', sign=True,"
        " index=None, joins_components=False, lk00=0, lk11=0, pattern='all_distinct')")
