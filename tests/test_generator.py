import copy
import pickle
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from haefliger import generator
from haefliger.diagram import LiftId, pair_key
from haefliger.errors import IndexOutOfRange, InvalidParams, ParseError
from haefliger.generator import (
    DEFAULT_PARAMS,
    HOPF_PAIRS,
    BorromeanParams,
    LabeledCurve,
    generator_diagram,
    generator_double_point_curves,
    verify_generator,
)
from haefliger.linking import EZ, PolyCurve, ProjectionAxis, linking_matrix, writhe_pl

EX, EY = ProjectionAxis((1, 0, 0)), ProjectionAxis((0, 1, 0))


def test_params_validation():
    BorromeanParams(alpha=4, beta=1)
    with pytest.raises(InvalidParams):
        BorromeanParams(alpha=2, beta=1)  # needs 2*beta < alpha
    with pytest.raises(InvalidParams):
        BorromeanParams(alpha=4, beta=0)
    with pytest.raises(InvalidParams):
        BorromeanParams(alpha=-4, beta=1)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: BorromeanParams(alpha=float("nan"), beta=1), ParseError),
        (lambda: BorromeanParams(alpha=float("inf"), beta=1), ParseError),
        (lambda: BorromeanParams(alpha="4", beta=1), ParseError),
        (lambda: BorromeanParams(alpha=4, beta=True), ParseError),
        (lambda: BorromeanParams(alpha=None, beta=1), ParseError),
        (lambda: BorromeanParams(alpha=4, beta=1, k="1"), ParseError),
        (lambda: BorromeanParams(alpha=4, beta=1, k=1.0), ParseError),
        (lambda: BorromeanParams(alpha=4, beta=1, k=0), IndexOutOfRange),
        (lambda: generator_diagram("1"), ParseError),
        (lambda: generator_diagram(True), ParseError),
        (lambda: generator_double_point_curves(n=2.5), InvalidParams),
        (lambda: generator_double_point_curves(n="64"), InvalidParams),
        (lambda: generator_double_point_curves(n=2), InvalidParams),
        (lambda: generator_double_point_curves(n=6), InvalidParams),
        (lambda: verify_generator(n=0), InvalidParams),
        (lambda: verify_generator(n=None), InvalidParams),
    ],
    ids=["alpha nan", "alpha inf", "alpha str", "beta bool", "alpha None", "k str",
         "k float", "k 0", "diagram k str", "diagram k bool", "n float", "n str",
         "n 2", "n 6", "verify n 0", "verify n None"],
)
def test_generator_inputs_are_typed(build, error):
    with pytest.raises(error):
        build()


def test_generator_diagram_combinatorics():
    for k in (1, 2, 3):
        d = generator_diagram(k)
        assert d.k == k and d.m == 6
        assert len(d.lk) == 6
        assert set(d.lk.values()) == {1}
        for a, b, _ in HOPF_PAIRS:
            assert d.lk_value(a, b) == 1
    assert generator_diagram(1).lk == generator_diagram(3).lk
    with pytest.raises(IndexOutOfRange):
        generator_diagram(0)


def test_hopf_pairs_cover_all_crossings():
    lifts = [lift for a, b, _ in HOPF_PAIRS for lift in (a, b)]
    assert len(lifts) == len(set(lifts)) == 12
    spheres = [s for _, _, s in HOPF_PAIRS]
    assert sorted(spheres) == ["X", "X", "Y", "Y", "Z", "Z"]


def test_curves_only_for_k1():
    with pytest.raises(InvalidParams):
        generator_double_point_curves(BorromeanParams(alpha=4, beta=1, k=2))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def test_curve_geometry():
    labeled = generator_double_point_curves(DEFAULT_PARAMS, n=48)
    assert len(labeled) == 12
    assert sorted(c.lift for c in labeled) == sorted(
        LiftId(i, e) for i in range(1, 7) for e in (0, 1)
    )
    fibers = set()
    for entry in labeled:
        curve = entry.curve
        assert len(curve) == 48
        # Every coordinate is an int: the grid scale is 1.
        assert curve._scale == 1
        pts = curve._grid
        if len({z for _, _, z in pts}) == 1:
            # Fiber: one horizontal plane.
            fibers.add(entry.lift)
            continue
        # Cross-section: every vertex lies in the plane of three corners,
        # an integer determinant det(a - o, b - o, v - o) of 0.
        o, a, b = pts[0], pts[12], pts[24]
        normal = cross(sub(a, o), sub(b, o))
        assert normal != (0, 0, 0)
        assert all(sum(map(mul, normal, sub(v, o))) == 0 for v in pts)
    # Each Hopf pair is one fiber and one cross-section.
    assert len(fibers) == 6
    assert all((a in fibers) != (b in fibers) for a, b, _ in HOPF_PAIRS)


@pytest.mark.parametrize("n", [4, 32, 64])
@pytest.mark.parametrize(
    "params", [DEFAULT_PARAMS, BorromeanParams(alpha=3, beta=1),
               BorromeanParams(alpha=Fraction(7, 2), beta=Fraction(3, 4))],
    ids=["default", "alpha 3", "alpha 7/2 beta 3/4"])
def test_curves_give_the_diagram_exactly_with_zero_writhes(rng, params, n):
    # No sign allowance: the twelve circles build generator_diagram(1)'s
    # entries themselves, and every circle is a simple planar polygon, so
    # its writhe is 0 along every axis.
    labeled = generator_double_point_curves(params, n)
    expected = generator_diagram(1).lk
    random_axes = [ProjectionAxis(tuple(d)) for d in rng.normal(size=(3, 3))]
    for axis in (EX, EY, EZ, *random_axes):
        lk = linking_matrix([c.curve for c in labeled], axis)
        built = {pair_key(labeled[i].lift, labeled[j].lift): v
                 for (i, j), v in lk.items() if v}
        assert built == expected, axis
        assert [writhe_pl(c.curve, axis) for c in labeled] == [0] * 12, axis


@pytest.mark.parametrize("n", [4, 32, 64])
@pytest.mark.parametrize(
    "params", [DEFAULT_PARAMS, BorromeanParams(alpha=3, beta=1),
               BorromeanParams(alpha=Fraction(7, 2), beta=Fraction(3, 4))],
    ids=["default", "alpha 3", "alpha 7/2 beta 3/4"])
def test_curves_placed_on_their_grid_equal_the_curves_built_from_their_points(params, n):
    # The circles go onto their integer grid without the number rule; the
    # constructor, reading the same int points, builds the same curves.
    for labeled in generator_double_point_curves(params, n):
        curve = labeled.curve
        points = [tuple(int(x) for x in p) for p in curve.vertices]
        built = PolyCurve(points)
        assert (curve._scale, curve._grid) == (built._scale, built._grid) == (1, tuple(points))
        assert curve == built and hash(curve) == hash(built)
        assert curve.vertices == built.vertices
        assert all(type(x) is int for p in curve._grid for x in p)


def test_curves_beyond_the_float_range_are_refused():
    # The largest coordinate, 18a + 2b + 1 in units of 1/s, is read by the
    # number rule: alpha = 1e307 puts it past the largest float.
    assert len(generator_double_point_curves(BorromeanParams(alpha=1e306, beta=1), 4)) == 12
    with pytest.raises(ParseError, match="float range"):
        generator_double_point_curves(BorromeanParams(alpha=1e307, beta=1), 4)


def test_verify_generator_end_to_end():
    report = verify_generator(DEFAULT_PARAMS, n=64)
    assert report.matches_diagram
    assert report.h_value == 1
    assert set(report.singleton_deltas.values()) == {Fraction(1)}
    assert len(report.linking_matrix) == 6
    assert set(report.linking_matrix.values()) == {1}
    assert all(key == pair_key(*key) for key in report.linking_matrix)


def test_verify_generator_report_is_plain_data():
    report = verify_generator(DEFAULT_PARAMS, n=32)
    assert type(report.linking_matrix) is dict
    assert pickle.loads(pickle.dumps(report)) == report
    assert copy.deepcopy(report) == report
    assert {name: type(getattr(report, name)) for name in report._fields} == {
        "linking_matrix": dict, "matches_diagram": bool, "h_value": Fraction,
        "singleton_deltas": dict}


def test_verify_generator_resolution_independent():
    coarse = verify_generator(DEFAULT_PARAMS, n=32)
    fine = verify_generator(DEFAULT_PARAMS, n=64)
    assert coarse.matches_diagram and fine.matches_diagram
    normalize = lambda mat: {frozenset(k): v for k, v in mat.items()}
    assert normalize(coarse.linking_matrix) == normalize(fine.linking_matrix)
    assert coarse.h_value == fine.h_value == 1


def test_verify_generator_other_radii():
    report = verify_generator(BorromeanParams(alpha=3, beta=1), n=48)
    assert report.matches_diagram
    assert report.h_value == 1


@pytest.mark.parametrize(
    "reversed_lifts, matches, h",
    [
        ({LiftId(1, 1)}, False, 0),
        # One circle of every Hopf pair: the global sign flips.
        ({a for a, _, _ in HOPF_PAIRS}, True, -1),
    ],
    ids=["one circle", "global sign"],
)
def test_h_value_follows_the_curves(monkeypatch, reversed_lifts, matches, h):
    build = generator.generator_double_point_curves

    def reversing(params, n):
        return [
            LabeledCurve(c.lift, c.sphere, c.curve.reversed())
            if c.lift in reversed_lifts else c
            for c in build(params, n)
        ]

    monkeypatch.setattr(generator, "generator_double_point_curves", reversing)
    report = verify_generator(DEFAULT_PARAMS, n=32)
    assert report.matches_diagram is matches
    assert report.h_value == h


# The report of the rational-division engine, which the integer kernel
# must reproduce exactly: the six unit Hopf entries and Δh = 1 everywhere.
PINNED_LINKING_MATRIX = {
    (LiftId(1, 0), LiftId(4, 0)): 1,
    (LiftId(1, 1), LiftId(6, 1)): 1,
    (LiftId(2, 0), LiftId(5, 0)): 1,
    (LiftId(2, 1), LiftId(3, 1)): 1,
    (LiftId(3, 0), LiftId(6, 0)): 1,
    (LiftId(4, 1), LiftId(5, 1)): 1,
}


@pytest.mark.parametrize(
    "alpha, n", [(4, 8), (4, 16), (4, 32), (4, 48), (4, 64), (4, 128), (3, 48)]
)
def test_verify_generator_outputs_are_pinned(alpha, n):
    report = verify_generator(BorromeanParams(alpha=alpha, beta=1), n=n)
    assert report.linking_matrix == PINNED_LINKING_MATRIX
    assert report.matches_diagram is True
    assert report.h_value == Fraction(1)
    assert report.singleton_deltas == {i: Fraction(1) for i in range(1, 7)}
