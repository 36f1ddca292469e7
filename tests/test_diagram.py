import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from haefliger.calculus import delta_h_full, delta_h_reduced, e_invariant, i_x_dirac
from haefliger.diagram import (
    CrossingDiagram,
    LiftId,
    crossing_change,
    diagram_from_dict,
    diagram_to_dict,
    make_diagram,
    pair_key,
)
from haefliger.errors import AsymmetricEntry, HaefligerError, IndexOutOfRange, ParseError
from haefliger.generator import generator_diagram

from conftest import random_diagram, random_subset, wide_random_diagram


def test_lift_order():
    # Lifts order as tuples: by crossing, then level 0 before level 1.
    for a, b in [(LiftId(1, 1), LiftId(2, 0)), (LiftId(3, 0), LiftId(3, 1)),
                 (LiftId(1, 0), LiftId(9, 1))]:
        assert pair_key(a, b) == pair_key(b, a) == (a, b)
    with pytest.raises(AsymmetricEntry):
        pair_key(LiftId(2, 0), LiftId(2, 0))


def test_pair_key_canonicalizes():
    a, b = LiftId(2, 1), LiftId(1, 0)
    assert pair_key(a, b) == (b, a)
    assert pair_key(b, a) == (b, a)
    with pytest.raises(AsymmetricEntry):
        pair_key(a, a)


def test_empty_diagram():
    d = make_diagram(k=1, m=0)
    assert d.lk == {} and d.writhe == {}


def test_make_diagram_drops_zeros_and_collapses_duplicates():
    a, b = LiftId(1, 0), LiftId(2, 1)
    d = make_diagram(k=1, m=2, lk=[(a, b, 3), (b, a, 3), (LiftId(1, 1), b, 0)])
    assert d.lk == {pair_key(a, b): 3}
    assert d.lk_value(b, a) == 3
    assert d.lk_value(LiftId(1, 1), b) == 0


def test_constructor_drops_zeros_as_the_loader_does():
    a, b, c = LiftId(1, 0), LiftId(1, 1), LiftId(2, 0)
    d = CrossingDiagram(1, 2, {(a, c): 0, (b, c): 4}, {c: 0, b: -1})
    assert d.lk == {(b, c): 4} and d.writhe == {b: -1}
    assert d._columns == ([1], [2], [-4], -4, -1)
    doc = {"k": 1, "m": 2, "lk": [{"i": 1, "ei": 0, "j": 2, "ej": 0, "value": 0}],
           "writhe": [{"i": 2, "e": 0, "value": 0}]}
    assert CrossingDiagram(1, 2, {(a, c): 0}, {c: 0}) == diagram_from_dict(doc)


def test_zero_values_are_type_checked_before_they_are_dropped():
    a, b = LiftId(1, 0), LiftId(2, 0)
    for lk, writhe in [([(a, b, 0.0)], [(a, False)]), ([(a, b, 0.0)], []),
                       ([], [(a, False)]), ([(a, b, Fraction(0))], [])]:
        with pytest.raises(ParseError):
            make_diagram(1, 2, lk=lk, writhe=writhe)
        with pytest.raises(ParseError):
            CrossingDiagram(1, 2, {pair_key(x, y): v for x, y, v in lk}, dict(writhe))


def test_conflicting_duplicate_raises():
    a, b = LiftId(1, 0), LiftId(2, 1)
    with pytest.raises(AsymmetricEntry):
        make_diagram(k=1, m=2, lk=[(a, b, 3), (b, a, -3)])


def test_out_of_range_entries():
    with pytest.raises(IndexOutOfRange):
        make_diagram(k=1, m=2, lk=[(LiftId(1, 0), LiftId(3, 0), 1)])
    with pytest.raises(IndexOutOfRange):
        make_diagram(k=1, m=2, lk=[(LiftId(1, 0), LiftId(2, 2), 1)])
    with pytest.raises(IndexOutOfRange):
        make_diagram(k=0, m=2)
    with pytest.raises(IndexOutOfRange):
        make_diagram(k=1, m=-1)


L = LiftId


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"k": 0, "m": 2}, IndexOutOfRange),
        ({"k": 1, "m": -1}, IndexOutOfRange),
        ({"lk": {(L(1, 0), L(3, 0)): 1}}, IndexOutOfRange),
        ({"lk": {(L(0, 1), L(1, 0)): 1}}, IndexOutOfRange),
        ({"lk": {(L(1, 0), L(2, 2)): 1}}, IndexOutOfRange),
        ({"lk": {(L(1, -1), L(2, 0)): 1}}, IndexOutOfRange),
        ({"lk": {(L(1, 0), L(1, 2)): 1}}, IndexOutOfRange),
        ({"writhe": {L(3, 0): 1}}, IndexOutOfRange),
        ({"writhe": {L(2, 2): 1}}, IndexOutOfRange),
        ({"lk": {(L(2, 0), L(1, 0)): 1}}, AsymmetricEntry),
        ({"lk": {(L(1, 1), L(1, 0)): 1}}, AsymmetricEntry),
        ({"lk": {(L(1, 0), L(1, 0)): 1}}, AsymmetricEntry),
        ({"lk": {(L(1, 0), L(2, 0)): 0.5}}, ParseError),
        ({"lk": {(L(1, 0), L(2, 0)): Fraction(1)}}, ParseError),
        ({"lk": {(L(1, 0), L(2, 0)): True}}, ParseError),
        ({"lk": {(L(1, 0), L(2, 0)): "1"}}, ParseError),
        ({"writhe": {L(1, 0): 0.5}}, ParseError),
        ({"writhe": {L(1, 0): True}}, ParseError),
        ({"k": 1.5, "m": 2.5}, ParseError),
        ({"k": 1.0}, ParseError),
        ({"k": True}, ParseError),
        ({"m": 2.0}, ParseError),
        ({"lk": {(L(1, 0), L(2.0, True)): 1}}, ParseError),
        ({"lk": {(L(1.0, 0), L(2, 0)): 1}}, ParseError),
        ({"lk": {(L(1, 0), L(2, 1.0)): 1}}, ParseError),
        ({"lk": {(L(1, False), L(2, 0)): 1}}, ParseError),
        ({"writhe": {L(1.0, 0): 1}}, ParseError),
        ({"writhe": {L(1, True): 1}}, ParseError),
        ({"lk": None}, ParseError),
        ({"lk": [(L(1, 0), L(2, 0), 1)]}, ParseError),
        ({"writhe": [(L(1, 0), 1)]}, ParseError),
    ],
    ids=["k=0", "m=-1", "crossing>m", "crossing=0", "level=2", "level=-1",
         "same crossing level=2", "writhe crossing>m", "writhe level=2",
         "key reversed", "levels reversed", "identical lifts",
         "lk float", "lk Fraction", "lk bool", "lk str",
         "writhe float", "writhe bool",
         "k, m float", "k float", "k bool", "m float",
         "lift float and bool", "crossing float", "level float", "level bool",
         "writhe crossing float", "writhe level bool",
         "lk None", "lk rows", "writhe rows"],
)
def test_construction_checks_every_invariant(fields, error):
    with pytest.raises(error):
        CrossingDiagram(**{"k": 1, "m": 2, **fields})


@pytest.mark.parametrize(
    "fields",
    [{"lk": {((1, 0), (2, 0)): 1}}, {"lk": {(L(1, 0), (2, 0)): 1}}, {"lk": {(1, 2): 1}},
     {"lk": {"ab": 1}}, {"lk": {L(1, 0): 1}}, {"lk": {(L(1, 0), L(2, 0), L(2, 1)): 1}},
     {"writhe": {(1, 0): 1}}, {"writhe": {"ab": 1}}],
    ids=["tuple lifts", "one tuple lift", "int pair", "str", "one lift", "three lifts",
         "writhe tuple lift", "writhe str"],
)
def test_construction_takes_only_liftid_lifts(fields):
    with pytest.raises(ParseError):
        CrossingDiagram(**{"k": 1, "m": 2, **fields})


@pytest.mark.parametrize(
    "entries",
    [{"lk": [(1, 2)]}, {"lk": [((1, 0), (2, 0), 1)]}, {"lk": [5]}, {"lk": ["ab"]},
     {"lk": [(L(1, 0), L(2, 0), L(2, 1), 1)]}, {"writhe": [((1, 0), 1)]},
     {"writhe": [5]}, {"writhe": [(L(1, 0),)]}],
    ids=["int pair", "tuple lifts", "int", "str", "four items", "writhe tuple lift",
         "writhe int", "writhe without value"],
)
def test_make_diagram_takes_only_liftid_entries(entries):
    with pytest.raises(ParseError):
        make_diagram(1, 2, **entries)


def test_crossing_change_identity_and_involution(rng):
    for _ in range(50):
        d = random_diagram(rng, with_writhe=True)
        assert crossing_change(d, set()) == d
        s = random_subset(rng, d.m)
        assert crossing_change(crossing_change(d, s), s) == d


def test_crossing_change_symmetric_difference(rng):
    for _ in range(50):
        d = random_diagram(rng, with_writhe=True)
        s1, s2 = random_subset(rng, d.m), random_subset(rng, d.m)
        once = crossing_change(crossing_change(d, s1), s2)
        assert once == crossing_change(d, s1 ^ s2)


def test_crossing_change_moves_levels():
    d = generator_diagram(1)
    changed = crossing_change(d, {1})
    assert changed.lk_value(LiftId(1, 0), LiftId(6, 1)) == 1
    assert changed.lk_value(LiftId(1, 1), LiftId(6, 1)) == 0
    # untouched entries survive
    assert changed.lk_value(LiftId(3, 0), LiftId(6, 0)) == 1


def test_crossing_change_preserves_shape(rng):
    for _ in range(20):
        d = random_diagram(rng, with_writhe=True)
        s = random_subset(rng, d.m)
        changed = crossing_change(d, s)
        assert changed.m == d.m and changed.k == d.k
        assert sorted(changed.lk.values()) == sorted(d.lk.values())
        assert sorted(changed.writhe.values()) == sorted(d.writhe.values())


def flipped(lift, switched):
    return LiftId(lift.crossing, 1 - lift.level) if lift.crossing in switched else lift


def test_crossing_change_equals_the_pair_key_construction():
    # make_diagram orders every flipped pair with pair_key.
    gen = random.Random(11)
    for _ in range(100):
        d = wide_random_diagram(gen)
        crossings = {lift.crossing for key in d.lk for lift in key}
        s = {i for i in crossings if gen.random() < 0.5}
        expected = make_diagram(
            k=d.k,
            m=d.m,
            lk=[(flipped(a, s), flipped(b, s), v) for (a, b), v in d.lk.items()],
            writhe=[(flipped(lift, s), v) for lift, v in d.writhe.items()],
        )
        changed = crossing_change(d, s)
        assert changed == expected
        assert all(key == pair_key(*key) for key in changed.lk)


def test_diagram_owns_read_only_copies():
    a, b, c = LiftId(1, 0), LiftId(2, 1), LiftId(3, 0)
    lk = {(a, b): 2, (b, c): -5}
    writhe = {a: 3}
    d = CrossingDiagram(k=1, m=3, lk=lk, writhe=writhe)

    def queries(d):
        return (delta_h_full(d, {2}), delta_h_reduced(d, {1, 3}),
                e_invariant(1, d), i_x_dirac(d))

    before = queries(d)
    lk[(a, c)] = 7
    lk[(a, b)] = 4
    del lk[(b, c)]
    writhe[c] = 1
    assert queries(d) == before
    assert d.lk == {(a, b): 2, (b, c): -5} and d.writhe == {a: 3}
    with pytest.raises(TypeError):
        d.lk[(a, c)] = 1
    with pytest.raises(TypeError):
        d.writhe[c] = 1
    plain = CrossingDiagram(k=1, m=3, lk={(a, b): 2, (b, c): -5}, writhe={a: 3})
    assert d == plain and CrossingDiagram(k=1, m=3, lk=d.lk, writhe=d.writhe) == d
    assert diagram_from_dict(diagram_to_dict(d)) == d
    assert diagram_to_dict(d) == diagram_to_dict(plain)
    for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert copied == d and queries(copied) == before


def test_diagram_subclass_pickles_as_itself():
    class Tagged(CrossingDiagram):
        pass

    d = Tagged(k=1, m=2, lk={(LiftId(1, 0), LiftId(2, 1)): 3})
    copied = copy.deepcopy(d)
    assert type(copied) is Tagged and copied == d


def test_crossing_change_bad_index():
    with pytest.raises(IndexOutOfRange):
        crossing_change(generator_diagram(1), {7})


def test_json_round_trip(rng):
    for _ in range(20):
        d = random_diagram(rng, with_writhe=True)
        assert diagram_from_dict(diagram_to_dict(d)) == d


def test_from_dict_rejects_duplicates():
    doc = {
        "k": 1,
        "m": 2,
        "lk": [
            {"i": 1, "ei": 0, "j": 2, "ej": 1, "value": 1},
            {"i": 2, "ei": 1, "j": 1, "ej": 0, "value": 1},
        ],
    }
    with pytest.raises(ParseError):
        diagram_from_dict(doc)


def test_from_dict_rejects_garbage():
    with pytest.raises(ParseError):
        diagram_from_dict({"k": 1})
    with pytest.raises(ParseError):
        diagram_from_dict({"k": 1, "m": 2, "lk": [{"i": 1}]})


GOOD_LK_ROW = {"i": 1, "ei": 0, "j": 2, "ej": 1, "value": 1}


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"k": 1.9, "m": 2}, "diagram: k"),
        ({"k": True, "m": 2}, "diagram: k"),
        ({"k": 1, "m": 2.7}, "diagram: m"),
        ({"k": 1, "m": "2"}, "diagram: m"),
        ({"k": 1, "m": 2, "lk": [GOOD_LK_ROW, {**GOOD_LK_ROW, "i": 2, "ei": True}]},
         r"lk\[1\]: ei"),
        ({"k": 1, "m": 2, "lk": [{**GOOD_LK_ROW, "value": 1.5}]}, r"lk\[0\]: value"),
        ({"k": 1, "m": 2, "lk": [{**GOOD_LK_ROW, "j": 2.0}]}, r"lk\[0\]: j"),
        ({"k": 1, "m": 2, "writhe": [{"i": 1, "e": 0, "value": None}]},
         r"writhe\[0\]: value"),
        ({"k": 1, "m": 2, "writhe": [{"i": 1, "e": False, "value": 1}]},
         r"writhe\[0\]: e"),
    ],
)
def test_from_dict_rejects_non_integers(doc, where):
    with pytest.raises(ParseError, match=where):
        diagram_from_dict(doc)


def test_from_dict_drops_zeros_and_rejects_repeats():
    zero_lk = {**GOOD_LK_ROW, "value": 0}
    zero_writhe = {"i": 2, "e": 1, "value": 0}
    doc = {
        "k": 1,
        "m": 2,
        "lk": [zero_lk, {"i": 1, "ei": 0, "j": 1, "ej": 1, "value": 2}],
        "writhe": [zero_writhe, {"i": 1, "e": 1, "value": -1}],
    }
    d = diagram_from_dict(doc)
    assert d.lk == {(LiftId(1, 0), LiftId(1, 1)): 2}
    assert d.writhe == {LiftId(1, 1): -1}
    with pytest.raises(ParseError, match="duplicate lk"):
        diagram_from_dict({**doc, "lk": [zero_lk, zero_lk]})
    with pytest.raises(ParseError, match="duplicate writhe"):
        diagram_from_dict({**doc, "writhe": [zero_writhe, zero_writhe]})
    assert d._columns == ([1], [1], [-2], -2, -1)
    twin = {"i": zero_lk["j"], "ei": zero_lk["ej"], "j": zero_lk["i"], "ej": zero_lk["ei"],
            "value": 3}
    with pytest.raises(ParseError, match="duplicate lk"):
        diagram_from_dict({**doc, "lk": [zero_lk, twin]})


def test_from_dict_finds_a_repeat_at_any_level():
    # Lifts order as tuples at every level, so a row and its reverse name
    # one pair even where the level is outside 0/1, and the repeat is a
    # ParseError, found before any range error.
    row = {"i": 1, "ei": 5, "j": 1, "ej": 2, "value": 1}
    reverse = {"i": 1, "ei": 2, "j": 1, "ej": 5, "value": 0}
    with pytest.raises(ParseError, match="duplicate lk"):
        diagram_from_dict({"k": 1, "m": 2, "lk": [row, reverse]})
    with pytest.raises(IndexOutOfRange):
        diagram_from_dict({"k": 1, "m": 2, "lk": [row]})


ZERO_ROWS_OUT_OF_RANGE = [
    {"k": 1, "m": 2, "lk": [{"i": 5, "ei": 0, "j": 1, "ej": 0, "value": 0}]},
    {"k": 1, "m": 2, "lk": [{"i": 1, "ei": 0, "j": 1, "ej": 7, "value": 0}]},
    {"k": 1, "m": 2, "writhe": [{"i": 9, "e": 0, "value": 0}]},
    {"k": 1, "m": 2, "writhe": [{"i": 1, "e": 3, "value": 0}]},
]


@pytest.mark.parametrize("doc", ZERO_ROWS_OUT_OF_RANGE)
def test_zero_rows_are_range_checked(doc):
    # A zero row names lifts like any other, so both routes refuse one
    # outside 1..m or off levels 0/1 before dropping it.
    with pytest.raises(IndexOutOfRange):
        diagram_from_dict(doc)
    lk = [(LiftId(r["i"], r["ei"]), LiftId(r["j"], r["ej"]), 0) for r in doc.get("lk", [])]
    writhe = [(LiftId(r["i"], r["e"]), 0) for r in doc.get("writhe", [])]
    with pytest.raises(IndexOutOfRange):
        make_diagram(doc["k"], doc["m"], lk=lk, writhe=writhe)


def test_from_dict_equals_make_diagram():
    # Rows in any order and either orientation, zeros included.
    gen = random.Random(12)
    for _ in range(100):
        d = wide_random_diagram(gen)
        rows = [(a, b, v) for (a, b), v in d.lk.items()]
        rows += [(LiftId(i, 0), LiftId(i, 1), 0) for i in range(1, min(d.m, 3) + 1)
                 if (LiftId(i, 0), LiftId(i, 1)) not in d.lk]
        gen.shuffle(rows)
        rows = [(b, a, v) if gen.random() < 0.5 else (a, b, v) for a, b, v in rows]
        doc = {
            "k": d.k,
            "m": d.m,
            "lk": [{"i": a.crossing, "ei": a.level, "j": b.crossing, "ej": b.level,
                    "value": v} for a, b, v in rows],
            "writhe": [{"i": lift.crossing, "e": lift.level, "value": v}
                       for lift, v in d.writhe.items()],
        }
        loaded = diagram_from_dict(doc)
        assert loaded == make_diagram(k=d.k, m=d.m, lk=rows, writhe=d.writhe.items())
        assert loaded == d
        assert all(type(lift) is LiftId for key in loaded.lk for lift in key)


@pytest.mark.parametrize(
    "row, error",
    [
        ({"i": 1, "ei": 1, "j": 1, "ej": 1}, AsymmetricEntry),
        ({"i": 2, "ei": 0, "j": 2, "ej": 0}, AsymmetricEntry),
        ({"i": 1, "ei": 2, "j": 2, "ej": 0}, IndexOutOfRange),
        ({"i": 2, "ei": 0, "j": 1, "ej": 2}, IndexOutOfRange),
        ({"i": 1, "ei": -1, "j": 1, "ej": 0}, IndexOutOfRange),
        ({"i": 1, "ei": 2, "j": 1, "ej": 2}, AsymmetricEntry),
        ({"i": 3, "ei": 0, "j": 1, "ej": 1}, IndexOutOfRange),
        ({"i": 0, "ei": 1, "j": 2, "ej": 0}, IndexOutOfRange),
    ],
    ids=["identical", "identical level 0", "level 2", "level 2 reversed",
         "level -1 same crossing", "identical level 2", "crossing > m", "crossing 0"],
)
def test_from_dict_refuses_bad_lifts(row, error):
    with pytest.raises(error):
        diagram_from_dict({"k": 1, "m": 2, "lk": [{**row, "value": 1}]})


# --- the loader and crossing_change against the constructor -----------------
#
# diagram_from_dict and crossing_change build their diagrams without the
# constructor's pass, so these tests pin both to it.


def _parametrized(test):
    (mark,) = [mark for mark in test.pytestmark if mark.name == "parametrize"]
    return mark.args[1]


def _constructor_route(doc):
    """The document read row by row into pair_key-ordered dicts, repeats
    refused, and every other rule, zeros included, left to the
    constructor."""
    try:
        k, m = doc["k"], doc["m"]
        if type(k) is not int or type(m) is not int:
            raise ParseError("k, m")
        lk, writhe = {}, {}
        for row in doc.get("lk", []):
            i, ei, j, ej, value = (row[name] for name in ("i", "ei", "j", "ej", "value"))
            if any(type(x) is not int for x in (i, ei, j, ej, value)):
                raise ParseError("lk field")
            key = pair_key(LiftId(i, ei), LiftId(j, ej))
            if key in lk:
                raise ParseError("duplicate lk")
            lk[key] = value
        for row in doc.get("writhe", []):
            i, e, value = row["i"], row["e"], row["value"]
            if any(type(x) is not int for x in (i, e, value)):
                raise ParseError("writhe field")
            if LiftId(i, e) in writhe:
                raise ParseError("duplicate writhe")
            writhe[LiftId(i, e)] = value
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed") from exc
    return CrossingDiagram(k, m, lk, writhe)


def _built_or_error_class(build, *args):
    try:
        return build(*args)
    except HaefligerError as exc:
        return type(exc)


def _document(d, gen):
    """d's JSON document, rows shuffled and in either orientation, with zero
    rows on unused pairs."""
    rows = [(a, b, v) for (a, b), v in d.lk.items()]
    lifts = sorted({lift for key in d.lk for lift in key} | set(d.writhe))
    for a, b in combinations(lifts, 2):
        if (a, b) not in d.lk and gen.random() < 0.1:
            rows.append((a, b, 0))
    gen.shuffle(rows)
    rows = [(b, a, v) if gen.random() < 0.5 else (a, b, v) for a, b, v in rows]
    writhe = list(d.writhe.items())
    writhe += [(lift, 0) for lift in lifts if lift not in d.writhe and gen.random() < 0.2]
    return {
        "k": d.k,
        "m": d.m,
        "lk": [{"i": a.crossing, "ei": a.level, "j": b.crossing, "ej": b.level,
                "value": v} for a, b, v in rows],
        "writhe": [{"i": lift.crossing, "e": lift.level, "value": v}
                   for lift, v in writhe],
    }


def _spoiled(doc, gen):
    """doc with one to three faults: a field out of range, of a wrong type or
    missing, identical lifts, a repeated row, or a bad k or m."""
    doc = {**doc, "lk": [dict(row) for row in doc["lk"]],
           "writhe": [dict(row) for row in doc["writhe"]]}
    m = doc["m"]
    for _ in range(gen.randint(1, 3)):
        rows = doc["lk"] if doc["lk"] and gen.random() < 0.7 else doc["writhe"]
        fault = gen.randrange(7)
        if fault == 5:
            doc[gen.choice(("k", "m"))] = gen.choice((0, -1, 1.0, True))
            continue
        if not rows:
            continue
        row = gen.choice(rows)
        if fault == 0:
            row[gen.choice(("i", "j") if "j" in row else ("i",))] = gen.choice((0, -1, m + 1))
        elif fault == 1:
            row[gen.choice(("ei", "ej") if "j" in row else ("e",))] = gen.choice((2, -1))
        elif fault == 2:
            name = gen.choice(list(row))
            row[name] = gen.choice((1.0, True, "1", None, row[name] * 2**64))
        elif fault == 3 and "j" in row:
            row["j"], row["ej"] = row["i"], row["ei"]
        elif fault == 4:
            twin = dict(row)
            if "j" in row and gen.random() < 0.5:
                twin.update(i=row["j"], ei=row["ej"], j=row["i"], ej=row["ei"])
            rows.insert(gen.randrange(len(rows) + 1), twin)
        else:
            del row[gen.choice(list(row))]
    return doc


def _existing_bad_documents():
    docs = [doc for doc, _ in _parametrized(test_from_dict_rejects_non_integers)]
    docs += [{"k": 1, "m": 2, "lk": [{**row, "value": 1}]}
             for row, _ in _parametrized(test_from_dict_refuses_bad_lifts)]
    zero_lk = {**GOOD_LK_ROW, "value": 0}
    zero_writhe = {"i": 2, "e": 1, "value": 0}
    docs += [
        {"k": 1, "m": 2, "lk": [GOOD_LK_ROW, {"i": 2, "ei": 1, "j": 1, "ej": 0, "value": 1}]},
        {"k": 1},
        {"k": 1, "m": 2, "lk": [{"i": 1}]},
        {"k": 1, "m": 2, "lk": [zero_lk, zero_lk]},
        {"k": 1, "m": 2, "writhe": [zero_writhe, zero_writhe]},
    ]
    return docs


def test_loader_checks_what_the_constructor_checks():
    gen = random.Random(13)
    docs = _existing_bad_documents()
    for _ in range(300):
        doc = _document(wide_random_diagram(gen), gen)
        docs += [doc, _spoiled(doc, gen)]
    outcomes = set()
    for doc in docs:
        expected = _built_or_error_class(_constructor_route, doc)
        loaded = _built_or_error_class(diagram_from_dict, doc)
        outcomes.add(expected if isinstance(expected, type) else CrossingDiagram)
        if isinstance(expected, type):
            assert loaded is expected, doc
            continue
        assert loaded == expected and loaded._columns == expected._columns, doc
        rebuilt = CrossingDiagram(loaded.k, loaded.m, dict(loaded.lk), dict(loaded.writhe))
        assert loaded == rebuilt and loaded._columns == rebuilt._columns
    assert outcomes == {CrossingDiagram, ParseError, IndexOutOfRange, AsymmetricEntry}


def test_crossing_change_columns_equal_the_constructors():
    gen = random.Random(14)
    a, b, c = LiftId(1, 0), LiftId(2, 1), LiftId(3, 0)
    fixed = CrossingDiagram(k=1, m=3, lk={(a, b): 5, (a, LiftId(1, 1)): 7, (b, c): -2},
                            writhe={b: 1})
    diagrams = [fixed] + [wide_random_diagram(gen) for _ in range(100)]
    for d in diagrams:
        crossings = sorted({lift.crossing for key in d.lk for lift in key}
                           | {lift.crossing for lift in d.writhe})
        for s in (set(), set(crossings), {i for i in crossings if gen.random() < 0.5}):
            changed = crossing_change(d, s)
            rebuilt = CrossingDiagram(changed.k, changed.m, dict(changed.lk),
                                      dict(changed.writhe))
            assert changed == rebuilt and changed._columns == rebuilt._columns
    # Both crossings of (a, b) switched: its key flips and its sign stays;
    # (b, c) has one switched and changes sign.
    changed = crossing_change(fixed, {1, 2})
    assert changed.lk[LiftId(1, 1), LiftId(2, 0)] == 5
    assert fixed._columns.signed == [-5, -7, 2]
    assert changed._columns.signed == [-5, -7, -2]
