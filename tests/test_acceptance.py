"""Acceptance gate: one test per headline criterion, pinned tolerances.

Each test finishes by printing a single PASS line (visible with -s or
in captured output) so the gate reads as a checklist.
"""

import time
from fractions import Fraction

import numpy as np

from haefliger.calculus import (
    HomotopyEvent,
    delta_h_full,
    delta_h_reduced,
    e_invariant,
    e_jump,
    jacobian_det,
    murai_ohba_certificate,
    v_alternating,
)
from haefliger.classical import conway_a2_oracle, parse_gauss_code, v2
from haefliger.diagram import crossing_change
from haefliger.generator import (
    DEFAULT_PARAMS,
    generator_diagram,
    verify_generator,
)
from haefliger.linking import (
    ProjectionAxis,
    gauss_linking_quadrature,
    linking_number_pl,
)

from conftest import base_seed, random_diagram, random_subset
from helpers import (
    FIGURE_EIGHT,
    braid_closure_code,
    connect_sum_code,
    random_link,
    torus_knot_code,
    torus_link_curves,
)


def test_acceptance_generator_value():
    """The six-crossing generator has invariant difference 1 for each k,
    in under a millisecond per evaluation."""
    for k in (1, 2, 3):
        delta_h_reduced(generator_diagram(k), {1})  # warm-up
    for k in (1, 2, 3):
        d = generator_diagram(k)
        start = time.perf_counter()
        value = delta_h_reduced(d, {1})
        elapsed = time.perf_counter() - start
        assert value == 1
        assert elapsed < 1e-3, f"k={k} took {elapsed * 1e3:.3f} ms"
    print("PASS: generator invariant is 1 for k in {1,2,3} in < 1 ms each")


def test_acceptance_generator_end_to_end():
    """Twelve explicit circles reproduce the six-crossing diagram and
    the invariant value 1, within five seconds at resolution 64."""
    start = time.perf_counter()
    report = verify_generator(DEFAULT_PARAMS, n=64)
    elapsed = time.perf_counter() - start
    assert report.matches_diagram
    assert report.h_value == 1
    assert set(report.singleton_deltas.values()) == {Fraction(1)}
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    print(f"PASS: end-to-end generator verification in {elapsed:.2f} s")


def test_acceptance_formula_equivalence():
    """Full and reduced difference formulas agree exactly on 1000
    random diagrams with random switch sets."""
    rng = np.random.default_rng(base_seed())
    for _ in range(1000):
        d = random_diagram(rng)
        s = random_subset(rng, d.m)
        assert delta_h_full(d, s) == delta_h_reduced(d, s)
    print("PASS: full == reduced difference formula on 1000 random diagrams")


def test_acceptance_order_two():
    """The alternating 3-subset sum vanishes on 1000 random diagrams;
    the 2-subset sum does not vanish identically."""
    rng = np.random.default_rng(base_seed() + 1)
    for _ in range(1000):
        d = random_diagram(rng, m_min=3)
        idx = [int(i) for i in rng.choice(range(1, d.m + 1), 3, replace=False)]
        h0 = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
        assert v_alternating(h0, d, idx) == 0
    assert v_alternating(0, generator_diagram(1), [1, 4]) == 1
    print("PASS: order-2 property on 1000 random diagrams")


def test_acceptance_murai_ohba():
    """The single-crossing certificate returns lk(L) for (2,2n) torus
    links, n = 1, 2, 3."""
    for n in (1, 2, 3):
        l0, l1 = torus_link_curves(n)
        _, switched, delta = murai_ohba_certificate(l0, l1)
        assert switched == {1} and delta == n
    print("PASS: unknotting certificate gives lk = n for (2,2n) torus links")


def test_acceptance_linking_engine():
    """Exact PL linking number agrees with the Gauss quadrature within
    1e-3 on 50 random separated links, and is axis independent."""
    rng = np.random.default_rng(base_seed() + 2)
    nonzero = 0
    for _ in range(50):
        m, n = random_link(rng)
        lk = linking_number_pl(m, n)
        nonzero += lk != 0
        quad = gauss_linking_quadrature(m, n, 512)
        assert abs(quad - lk) < 1e-3
        for _ in range(5):
            assert linking_number_pl(m, n, ProjectionAxis(tuple(rng.normal(size=3)))) == lk
    assert nonzero >= 5  # the corpus exercises nontrivial links
    print("PASS: PL linking vs quadrature within 1e-3 on 50 links, "
          "axis independent")


def test_acceptance_jump_lemmas():
    """Full case table of the immersion-invariant jumps."""
    for k in (1, 2, 3):
        for sign in (1, -1):
            assert e_jump(HomotopyEvent("definite_tangency", sign), k) == 0
            for index in range(1, 2 * k):
                for joins in (False, True):
                    jump = e_jump(
                        HomotopyEvent(
                            "indefinite_tangency", sign, index=index,
                            joins_components=joins, lk00=3, lk11=-1,
                        ),
                        k,
                    )
                    if index in (1, 2 * k - 1) and joins:
                        assert jump == sign * Fraction(3 - 1, 4)
                    else:
                        assert jump == 0
            for pattern, zero in [
                ("all_distinct", False), ("i_eq_j", True),
                ("p_eq_i", False), ("j_eq_p", True), ("all_equal", False),
            ]:
                jump = e_jump(
                    HomotopyEvent("triple_point", sign, pattern=pattern), k
                )
                assert jump == (0 if zero else sign * Fraction(1, 4))
    print("PASS: jump case table for tangencies and triple points")


def test_acceptance_classical_v2():
    """v2 agrees with the Conway skein oracle on 11 knot diagrams of at
    most 7 crossings, each in under a second."""
    corpus = {
        "unknot_kink": ("O1+U1+", 0),
        "3_1": (torus_knot_code(3), 1),
        "3_1_mirror": (braid_closure_code([-1, -1, -1], 2), 1),
        "4_1": (FIGURE_EIGHT, -1),
        "4_1_mirror": (braid_closure_code([-1, 2, -1, 2], 3), -1),
        "5_1": (torus_knot_code(5), 3),
        "5_1_mirror": (braid_closure_code([-1] * 5, 2), 3),
        "7_1": (torus_knot_code(7), 6),
        "granny": (connect_sum_code(torus_knot_code(3), torus_knot_code(3)), 2),
        "square": (
            connect_sum_code(
                torus_knot_code(3), braid_closure_code([-1, -1, -1], 2)
            ),
            2,
        ),
        "3_1#4_1": (connect_sum_code(torus_knot_code(3), FIGURE_EIGHT), 0),
    }
    assert len(corpus) >= 10
    for name, (code, expected) in corpus.items():
        g = parse_gauss_code(code)
        assert g.n <= 7, name
        start = time.perf_counter()
        value = v2(g)
        oracle = conway_a2_oracle(g)
        elapsed = time.perf_counter() - start
        assert value == oracle == expected, name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f} s"
    print(f"PASS: v2 == Conway oracle on {len(corpus)} knots of <= 7 crossings")


def test_acceptance_jacobian():
    """The coordinate-change Jacobian has determinant -1 for k = 1..4,
    each in under 100 ms."""
    jacobian_det(1)  # warm-up
    for k in (1, 2, 3, 4):
        start = time.perf_counter()
        det = jacobian_det(k)
        elapsed = time.perf_counter() - start
        assert det == -1
        assert elapsed < 0.1, f"k={k} took {elapsed * 1e3:.1f} ms"
    print("PASS: jacobian determinant is -1 for k in 1..4 in < 100 ms each")


def test_acceptance_e_well_defined():
    """The immersion invariant is independent of the chosen embedding
    lift on 1000 random (diagram, switch set) pairs."""
    rng = np.random.default_rng(base_seed() + 3)
    for _ in range(1000):
        d = random_diagram(rng)
        s = random_subset(rng, d.m)
        h = Fraction(int(rng.integers(-20, 21)), 4)
        via_lift = e_invariant(h, d)
        via_other = e_invariant(h - delta_h_full(d, s), crossing_change(d, s))
        assert via_lift == via_other
    print("PASS: immersion invariant lift-independent on 1000 random pairs")
