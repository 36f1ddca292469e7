import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from haefliger import calculus
from haefliger.calculus import (
    HomotopyEvent,
    delta_h_full,
    delta_h_reduced,
    e_invariant,
    e_jump,
    i_x_dirac,
    jacobian_det,
    murai_ohba_certificate,
    smale_from_h,
    v_alternating,
)
from haefliger.diagram import (
    CrossingDiagram,
    LiftId,
    crossing_change,
    diagram_from_dict,
    make_diagram,
)
from haefliger.errors import (
    DuplicateIndex,
    HaefligerError,
    InconsistentEvent,
    IndexOutOfRange,
    ParseError,
)
from haefliger.generator import BorromeanParams, generator_diagram

from conftest import random_diagram, random_subset, wide_random_diagram
from helpers import hopf_link, signed_pair_sum_oracle, torus_link_curves


def test_delta_h_of_empty_switch_set(rng):
    for _ in range(20):
        d = random_diagram(rng)
        assert delta_h_full(d, set()) == 0
        assert delta_h_reduced(d, set()) == 0


def test_delta_h_generator_singletons():
    d = generator_diagram(1)
    for i in range(1, 7):
        assert delta_h_reduced(d, {i}) == 1
        assert delta_h_full(d, {i}) == 1


def test_delta_h_switch_all_annihilates_generator():
    # Every lk pair of the generator has both crossings switched, so the
    # reduced sum is empty.
    d = generator_diagram(1)
    assert delta_h_reduced(d, set(range(1, 7))) == 0


def test_delta_h_two_crossing_example():
    d = make_diagram(
        k=1,
        m=2,
        lk=[(LiftId(1, 0), LiftId(2, 1), 1)],
    )
    # One straddling pair, levels 0 and 1: (-1)^(0+1) * 1 / 2 = -1/2.
    assert delta_h_reduced(d, {1}) == Fraction(-1, 2)
    assert delta_h_full(d, {1}) == Fraction(-1, 2)


def test_delta_h_formulas_agree(rng):
    for _ in range(300):
        d = random_diagram(rng)
        s = random_subset(rng, d.m)
        assert delta_h_full(d, s) == delta_h_reduced(d, s)


def test_switched_sums_match_built_switched_diagrams(rng):
    # The library reads the switched sum from d with levels flipped; the
    # reference builds the switched diagram with crossing_change instead.
    for _ in range(200):
        d = random_diagram(rng, with_writhe=True)
        s = random_subset(rng, d.m)
        expected = Fraction(
            signed_pair_sum_oracle(d) - signed_pair_sum_oracle(crossing_change(d, s)), 4
        )
        assert delta_h_full(d, s) == expected
        idx = [int(i) for i in rng.permutation(range(1, d.m + 1))[:4]]
        h0 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        alternating = sum(
            (-1) ** r * (h0 - Fraction(
                signed_pair_sum_oracle(d)
                - signed_pair_sum_oracle(crossing_change(d, subset)), 4))
            for r in range(len(idx) + 1)
            for subset in combinations(idx, r)
        )
        assert v_alternating(h0, d, idx) == alternating


def test_subset_values_match_built_switched_diagrams(rng):
    # Every subset's value against the switched diagram built with
    # crossing_change, for shuffled index lists of up to 8 crossings.
    same_crossing = between_chosen = 0
    for _ in range(40):
        d = random_diagram(rng, m_min=1, m_max=9, with_writhe=True)
        r = int(rng.integers(0, min(d.m, 8) + 1))
        idx = [int(i) for i in rng.permutation(range(1, d.m + 1))[:r]]
        h0 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        expected = {
            subset: h0 - Fraction(
                signed_pair_sum_oracle(d)
                - signed_pair_sum_oracle(crossing_change(d, subset)), 4)
            for size in range(r + 1)
            for subset in combinations(idx, size)
        }
        assert dict(calculus._subset_values(h0, d, idx)) == expected
        same_crossing += sum(a.crossing == b.crossing and a.crossing in idx
                             for a, b in d.lk)
        between_chosen += sum(a.crossing != b.crossing
                              and {a.crossing, b.crossing} <= set(idx)
                              for a, b in d.lk)
    assert same_crossing and between_chosen


def test_v_alternating_is_the_signed_sum_of_subset_values(rng):
    for r in range(9):
        for _ in range(6):
            d = random_diagram(rng, m_min=r, m_max=9)
            idx = [int(i) for i in rng.permutation(range(1, d.m + 1))[:r]]
            h0 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
            signed = sum(((-1) ** len(s) * u
                          for s, u in calculus._subset_values(h0, d, idx)),
                         Fraction(0))
            value = v_alternating(h0, d, idx)
            assert type(value) is Fraction
            assert value == signed


def test_v_alternating_of_no_indices_is_h0():
    assert v_alternating(Fraction(-7, 3), generator_diagram(1), []) == Fraction(-7, 3)


_H_READERS = {
    "e_invariant": lambda h: e_invariant(h, generator_diagram(1)),
    "v_alternating": lambda h: v_alternating(h, generator_diagram(1), [1, 2]),
    "_subset_values": lambda h: list(calculus._subset_values(h, generator_diagram(1), [1])),
    "smale_from_h": smale_from_h,
}


@pytest.mark.parametrize("h", ["1/2", True, "abc", None, float("nan"), 0.5],
                         ids=["str 1/2", "bool", "str abc", "None", "nan", "float"])
@pytest.mark.parametrize("name", _H_READERS)
def test_h_arguments_refuse_what_is_not_rational(name, h):
    with pytest.raises(ParseError):
        _H_READERS[name](h)


@pytest.mark.parametrize("name", _H_READERS)
def test_h_arguments_take_any_rational(name):
    results = [_H_READERS[name](h) for h in (2, Fraction(2), np.int64(2))]
    assert results[0] == results[1] == results[2]
    values = [u for _, u in results[2]] if name == "_subset_values" else [results[2]]
    assert all(type(u.numerator) is int for u in values)  # no numpy integer inside


class CountingMapping(Mapping):
    """Read-only mapping that counts the passes made over it."""

    def __init__(self, data):
        self.data = data
        self.passes = 0

    def __getitem__(self, key):
        return self.data[key]

    def __iter__(self):
        self.passes += 1
        return iter(self.data)

    def __len__(self):
        return len(self.data)

    def items(self):
        self.passes += 1
        return self.data.items()


def test_v_alternating_reads_the_diagram_once(rng):
    # The constructor reads the mapping it is given once; no query reads
    # it again.
    plain = random_diagram(rng, m_min=12, m_max=12, with_writhe=True)
    counted = CountingMapping(plain.lk)
    d = CrossingDiagram(k=1, m=plain.m, lk=counted, writhe=plain.writhe)
    assert counted.passes == 1
    counted.passes = 0
    idx = [int(i) for i in rng.permutation(range(1, 13))[:10]]
    s = set(idx[:5])
    assert v_alternating(3, d, idx) == v_alternating(3, plain, idx)
    assert list(calculus._subset_values(3, d, idx)) == list(
        calculus._subset_values(3, plain, idx))
    assert delta_h_full(d, s) == delta_h_full(plain, s)
    assert delta_h_reduced(d, s) == delta_h_reduced(plain, s)
    assert e_invariant(3, d) == e_invariant(3, plain)
    assert i_x_dirac(d) == i_x_dirac(plain)
    assert counted.passes == 0


def test_queries_equal_the_dict_walking_oracle():
    # Fixed seed, whatever HAEFLIGER_SEED says: the cases counted below
    # must all occur.
    gen = random.Random(20261018)
    cases = dict.fromkeys(("negative", "beyond 2**63", "one crossing", "sparse"), 0)
    for _ in range(150):
        first = wide_random_diagram(gen)
        crossings = sorted({lift.crossing for key in first.lk for lift in key})
        changed = crossing_change(first, {i for i in crossings if gen.random() < 0.5})
        for d in (first, changed):
            values = list(d.lk.values())
            cases["negative"] += any(v < 0 for v in values)
            cases["beyond 2**63"] += any(abs(v) >= 2**63 for v in values)
            cases["one crossing"] += any(a.crossing == b.crossing for a, b in d.lk)
            cases["sparse"] += d.m > 2 * len(d.lk) + 1
            total = signed_pair_sum_oracle(d)
            for _ in range(4):
                s = {i for i in crossings if gen.random() < 0.5}
                if d.m and gen.random() < 0.5:
                    s.add(gen.randint(1, d.m))  # a crossing no entry may name
                expected = Fraction(total - signed_pair_sum_oracle(d, s), 4)
                for value in (delta_h_full(d, s), delta_h_reduced(d, s)):
                    assert type(value) is Fraction and value == expected
            h = Fraction(gen.randint(-99, 99), 4)
            assert e_invariant(h, d) == h - Fraction(total, 4)
            assert type(e_invariant(h, d)) is Fraction
            writhe = sum(d.writhe.values())
            assert i_x_dirac(d) == Fraction(total, 2) + Fraction(writhe, 4)
            assert type(i_x_dirac(d)) is Fraction
            idx = gen.sample(crossings, min(len(crossings), gen.randint(0, 4)))
            alternating = sum(
                (-1) ** r * (h - Fraction(total - signed_pair_sum_oracle(d, set(subset)), 4))
                for r in range(len(idx) + 1)
                for subset in combinations(idx, r)
            )
            value = v_alternating(h, d, idx)
            assert type(value) is Fraction and value == alternating
    assert all(cases.values()), cases


def test_delta_h_antisymmetry(rng):
    # H(f) - H(f_S) computed from f_S with the same switch set negates.
    for _ in range(100):
        d = random_diagram(rng)
        s = random_subset(rng, d.m)
        assert delta_h_full(crossing_change(d, s), s) == -delta_h_full(d, s)


def test_delta_h_additivity_disjoint_supports(rng):
    # For switch sets with no lk pair straddling both, deltas add.
    d = generator_diagram(1)
    # {1} touches pairs at crossings 4 and 6; {3} touches 2 and 6's partner 3/6.
    for s1, s2 in [({1}, {2}), ({1}, {3}), ({2}, {4})]:
        combined = delta_h_full(d, s1 | s2)
        split_pairs = sum(
            1
            for (a, b) in d.lk
            if (a.crossing in s1 and b.crossing in s2)
            or (a.crossing in s2 and b.crossing in s1)
        )
        if split_pairs == 0:
            assert combined == delta_h_full(d, s1) + delta_h_full(d, s2)


def test_delta_h_bad_index():
    with pytest.raises(IndexOutOfRange):
        delta_h_reduced(generator_diagram(1), {0})
    with pytest.raises(IndexOutOfRange):
        delta_h_full(generator_diagram(1), {9})


def test_delta_h_denominator_divides_four(rng):
    for _ in range(100):
        d = random_diagram(rng)
        s = random_subset(rng, d.m)
        assert delta_h_full(d, s).denominator in (1, 2)


def test_i_x_dirac_values():
    assert i_x_dirac(make_diagram(k=1, m=0)) == 0
    d = generator_diagram(1)
    assert i_x_dirac(d) == 3  # six +1 entries, all same-level
    with_writhe = make_diagram(
        k=1, m=1, writhe=[(LiftId(1, 0), 4)]
    )
    assert i_x_dirac(with_writhe) == 1


def test_v_alternating_order_two_vanishing(rng):
    for _ in range(200):
        d = random_diagram(rng, m_min=3)
        idx = list(rng.choice(range(1, d.m + 1), size=3, replace=False))
        h0 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        assert v_alternating(h0, d, [int(i) for i in idx]) == 0


def test_v_alternating_nonzero_at_order_two():
    d = generator_diagram(1)
    assert v_alternating(0, d, [1]) == 1
    assert v_alternating(Fraction(5, 3), d, [1]) == 1  # h0 cancels
    assert v_alternating(0, d, [1, 4]) == 1


def test_v_alternating_duplicate_index():
    with pytest.raises(DuplicateIndex):
        v_alternating(0, generator_diagram(1), [1, 1])


@pytest.mark.parametrize("bad", [1.5, "1", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        crossing_change,
        delta_h_full,
        delta_h_reduced,
        lambda d, s: v_alternating(0, d, s),
    ],
    ids=["crossing_change", "delta_h_full", "delta_h_reduced", "v_alternating"],
)
def test_non_integer_crossing_index_is_refused(call, bad):
    with pytest.raises(IndexOutOfRange):
        call(generator_diagram(1), [bad])


def test_e_invariant_examples():
    d = generator_diagram(1)
    assert e_invariant(1, d) == 1 - Fraction(6, 4)
    assert e_invariant(0, make_diagram(k=1, m=0)) == 0


def test_e_invariant_lift_independence(rng):
    for _ in range(200):
        d = random_diagram(rng)
        s = random_subset(rng, d.m)
        h = Fraction(int(rng.integers(-8, 9)), 4)
        other = e_invariant(h - delta_h_full(d, s), crossing_change(d, s))
        assert e_invariant(h, d) == other


def expected_jump(event, k):
    """Frozen case table, written out independently of the implementation."""
    if event.kind == "definite_tangency":
        return Fraction(0)
    if event.kind == "indefinite_tangency":
        extremal = event.index in (1, 2 * k - 1)
        if extremal and event.joins_components:
            return event.sign * Fraction(event.lk00 + event.lk11, 4)
        return Fraction(0)
    if event.pattern in ("i_eq_j", "j_eq_p"):
        return Fraction(0)
    return event.sign * Fraction(1, 4)


def test_e_jump_case_table():
    for k in (1, 2, 3):
        for sign in (1, -1):
            event = HomotopyEvent(kind="definite_tangency", sign=sign)
            assert e_jump(event, k) == 0
            for index in range(1, 2 * k):
                for joins in (False, True):
                    event = HomotopyEvent(
                        kind="indefinite_tangency",
                        sign=sign,
                        index=index,
                        joins_components=joins,
                        lk00=2,
                        lk11=-5,
                    )
                    assert e_jump(event, k) == expected_jump(event, k)
            for pattern in (
                "all_distinct", "i_eq_j", "p_eq_i", "j_eq_p", "all_equal"
            ):
                event = HomotopyEvent(
                    kind="triple_point", sign=sign, pattern=pattern
                )
                assert e_jump(event, k) == expected_jump(event, k)


def test_e_jump_index_out_of_range():
    event = HomotopyEvent(
        kind="indefinite_tangency", index=4, joins_components=True
    )
    with pytest.raises(InconsistentEvent):
        e_jump(event, 2)  # 4 > 2k-1 = 3


def test_e_jump_refuses_non_positive_k():
    for event in (
        HomotopyEvent(kind="triple_point", pattern="all_distinct"),
        HomotopyEvent(kind="definite_tangency"),
    ):
        for k in (0, -3):
            with pytest.raises(IndexOutOfRange):
                e_jump(event, k)


def test_homotopy_event_validation():
    with pytest.raises(InconsistentEvent):
        HomotopyEvent(kind="cusp")
    with pytest.raises(InconsistentEvent):
        HomotopyEvent(kind="definite_tangency", sign=2)
    with pytest.raises(InconsistentEvent):
        HomotopyEvent(kind="indefinite_tangency")
    with pytest.raises(InconsistentEvent):
        HomotopyEvent(kind="triple_point", pattern="nonsense")


@pytest.mark.parametrize(
    "fields",
    [
        dict(kind="definite_tangency", pattern="all_distinct"),
        dict(kind="indefinite_tangency", index=1, pattern="i_eq_j"),
        dict(kind="definite_tangency", index=1),
        dict(kind="definite_tangency", joins_components=True),
        dict(kind="definite_tangency", lk00=2),
        dict(kind="triple_point", pattern="all_distinct", index=1),
        dict(kind="triple_point", pattern="all_distinct", joins_components=True),
        dict(kind="triple_point", pattern="all_distinct", lk11=-1),
    ],
)
def test_homotopy_event_refuses_a_field_of_another_kind(fields):
    with pytest.raises(InconsistentEvent):
        HomotopyEvent(**fields)


@pytest.mark.parametrize(
    "build",
    [
        lambda: HomotopyEvent(kind="triple_point", sign=True, pattern="all_distinct"),
        lambda: HomotopyEvent(kind="triple_point", sign=-1.0, pattern="all_distinct"),
        lambda: HomotopyEvent(kind="indefinite_tangency", index=1.0),
        lambda: HomotopyEvent(kind="indefinite_tangency", index="1"),
        lambda: HomotopyEvent(kind="indefinite_tangency", index=True),
        lambda: HomotopyEvent(kind="definite_tangency", lk00=0.5),
        lambda: HomotopyEvent(kind="definite_tangency", lk11=False),
        lambda: HomotopyEvent(kind="definite_tangency", joins_components=1),
        lambda: e_jump(HomotopyEvent(kind="definite_tangency"), 1.0),
        lambda: e_jump(HomotopyEvent(kind="definite_tangency"), True),
        lambda: jacobian_det(True),
        lambda: jacobian_det("2"),
    ],
    ids=["bool sign", "float sign", "float index", "str index", "bool index",
         "float lk00", "bool lk11", "int joins", "float k of e_jump",
         "bool k of e_jump", "bool k of jacobian_det", "str k of jacobian_det"],
)
def test_event_fields_and_k_are_never_coerced(build):
    with pytest.raises(ParseError):
        build()


def test_smale_from_h():
    assert smale_from_h(1) == -12
    assert smale_from_h(Fraction(1, 2)) == -6
    assert smale_from_h(0) == 0


def test_murai_ohba_hopf():
    l0, l1 = hopf_link()
    d, switched, delta = murai_ohba_certificate(l0, l1)
    assert switched == {1}
    assert delta == 1
    assert d.m == 2
    assert d.lk_value(LiftId(1, 0), LiftId(2, 0)) == 1
    assert d.lk_value(LiftId(1, 1), LiftId(2, 1)) == 1
    assert d.lk_value(LiftId(1, 0), LiftId(2, 1)) == 0


def test_murai_ohba_split_link():
    from haefliger.linking import circle

    l0 = circle((0, 0, 0), 1.0, (0, 0, 1), n=20)
    l1 = circle((5, 0, 0), 1.0, (0, 1, 0), n=20)
    _, _, delta = murai_ohba_certificate(l0, l1)
    assert delta == 0


def test_murai_ohba_torus_links():
    for n in (1, 2, 3):
        l0, l1 = torus_link_curves(n)
        _, _, delta = murai_ohba_certificate(l0, l1)
        assert delta == n


def test_murai_ohba_certificate_refuses_a_wrong_delta(monkeypatch):
    monkeypatch.setattr(calculus, "delta_h_reduced", lambda d, s: Fraction(7))
    with pytest.raises(HaefligerError, match="not the linking number"):
        murai_ohba_certificate(*hopf_link())


def test_jacobian_det():
    for k in (1, 2, 3, 4):
        assert jacobian_det(k) == -1
    with pytest.raises(IndexOutOfRange):
        jacobian_det(0)


@pytest.mark.parametrize(
    "k, error", [(0, IndexOutOfRange), (-2, IndexOutOfRange), (1.0, ParseError),
                 (True, ParseError), ("1", ParseError), (None, ParseError)])
def test_every_reader_of_k_refuses_alike(k, error):
    # One check of k serves the diagram, its loader, the calculus and the
    # generator: the same error everywhere, and one message for k < 1.
    builds = [
        lambda: CrossingDiagram(k, 0),
        lambda: make_diagram(k, 2),
        lambda: diagram_from_dict({"k": k, "m": 0}),
        lambda: e_jump(HomotopyEvent("definite_tangency"), k),
        lambda: jacobian_det(k),
        lambda: generator_diagram(k),
        lambda: BorromeanParams(alpha=4, beta=1, k=k),
    ]
    messages = set()
    for build in builds:
        with pytest.raises(error) as info:
            build()
        messages.add(str(info.value))
    if error is IndexOutOfRange:
        assert messages == {f"dimension parameter k={k} must be positive"}
