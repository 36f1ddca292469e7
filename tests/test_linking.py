import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haefliger import linking
from haefliger.calculus import murai_ohba_certificate
from haefliger.errors import CurvesIntersect, InvalidParams, ParseError
from haefliger.generator import BorromeanParams
from haefliger.linking import (
    EZ,
    PolyCurve,
    ProjectionAxis,
    _DENSE_PAIRS,
    _box_pairs,
    _crossing_sums,
    _on_one_grid,
    _plane_basis,
    _segment_crossings,
    _segments_meet,
    _touching_pairs,
    circle,
    curves_from_dict,
    curves_to_dict,
    gauss_linking_quadrature,
    linking_matrix,
    linking_number_pl,
    writhe_pl,
)

from helpers import (
    BandObstructed,
    OracleDegenerate,
    connected_sum_pl,
    crossing_sign_oracle,
    curve_segments,
    dense_box_pairs,
    exact_box_pairs,
    hopf_link,
    naive_linking_oracle,
    plane_basis_oracle,
    random_link,
    random_loop,
    subdivided,
    torus_link_curves,
    trefoil_curve,
)


SEGMENT_CASES = [
    # (segment, segment, meet?)
    (((0, 0, 0), (2, 0, 0)), ((1, -1, 1), (1, 1, 1)), False),  # skew
    (((0, 0, 0), (2, 0, 0)), ((1, -1, 0), (1, 1, 0)), True),  # crossing
    (((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (1, 1, 0)), True),  # T at an interior point
    (((0, 0, 0), (2, 0, 0)), ((2, 0, 0), (3, 1, 0)), True),  # shared endpoint
    (((0, 0, 0), (2, 0, 0)), ((3, -1, 0), (3, 1, 0)), False),  # coplanar, lines meet outside
    (((0, 0, 0), (2, 0, 0)), ((0, 1, 0), (2, 1, 0)), False),  # parallel
    (((0, 0, 0), (2, 0, 0)), ((1, 0, 0), (3, 0, 0)), True),  # collinear overlap
    (((0, 0, 0), (2, 0, 0)), ((3, 0, 0), (2, 0, 0)), True),  # collinear, touching
    (((0, 0, 0), (2, 0, 0)), ((5, 0, 0), (3, 0, 0)), False),  # collinear, apart
    (((0, 0, 0), (2, 0, 0)), ((-1, 0, 0), (3, 0, 0)), True),  # collinear, containing
    # A rational meeting point no float sample would land on.
    (((0, 0, 0), (3, 0, 0)), ((Fraction(1, 7), -1, 0), (Fraction(1, 7), 2, 0)), True),
    (((0, 0, 0), (3, 0, 0)),
     ((Fraction(1, 7), -1, Fraction(1, 10**30)), (Fraction(1, 7), 2, 0)), False),
]


@pytest.mark.parametrize("seg1, seg2, meet", SEGMENT_CASES)
def test_segments_meet(seg1, seg2, meet):
    s1 = tuple(tuple(Fraction(x) for x in p) for p in seg1)
    s2 = tuple(tuple(Fraction(x) for x in p) for p in seg2)
    for a, b in ((s1, s2), (s2, s1), (s1[::-1], s2), (s1, s2[::-1])):
        assert _segments_meet(a, b) is meet


def test_curves_touching_at_one_point_rejected():
    square = PolyCurve([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)])
    # A triangle whose vertex rests on the square's edge, standing in the
    # plane x = 1: the curves share exactly the point (1, 0, 0).
    tri = PolyCurve([(1, 0, 0), (1, -1, 1), (1, 1, 1)])
    with pytest.raises(CurvesIntersect):
        linking_number_pl(square, tri)
    with pytest.raises(CurvesIntersect):
        gauss_linking_quadrature(square, tri)


def curve_set():
    """Hopf pair, a (2, 4) torus link beside it and a far split circle."""
    hopf = hopf_link(16)
    torus = [c.translated((15, 0, 0)) for c in torus_link_curves(2, samples=32)]
    far = circle((0, 30, 0), 1.0, (0.3, 0.2, 1), n=12, phase=0.4)
    return [*hopf, *torus, far]


def test_linking_matrix_matches_naive_oracle():
    curves = curve_set()
    matrix = linking_matrix(curves)
    assert list(matrix) == [
        (i, j) for i in range(len(curves)) for j in range(i + 1, len(curves))
    ]
    for (i, j), value in matrix.items():
        assert value == naive_linking_oracle(curves[i], curves[j])
    assert {key: v for key, v in matrix.items() if v} == {(0, 1): 1, (2, 3): 2}


def test_linking_matrix_rejects_touching_curves():
    curves = curve_set()
    # A triangle standing on vertex 3 of the far circle, sharing only it.
    tri = PolyCurve([(0, 0, 0), (0.5, 0, 1), (-0.5, 0, 1)])
    with pytest.raises(CurvesIntersect):
        linking_matrix([*curves, tri.translated(curves[-1].vertices[3])])


def test_polycurve_validation():
    with pytest.raises(ParseError):
        PolyCurve([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ParseError):
        PolyCurve([(0, 0, 0), (1, 0, 0), (1, 0, 0)])
    with pytest.raises(ParseError):
        PolyCurve([(0, 0, 0), (1, 0, 0), (0, 0, 0)])  # closes onto start


@pytest.mark.parametrize(
    "points",
    [None, 5, [(0, 0), (1, 0), (0, 1)], [(0, 0, 0, 0)] * 3, [(None, 0, 0), (1, 0, 0), (0, 1, 0)]],
    ids=["None", "int", "pairs", "quadruples", "None coordinate"],
)
def test_polycurve_refuses_what_is_not_a_list_of_points(points):
    with pytest.raises(ParseError, match="bad point"):
        PolyCurve(points)


def test_projection_axis_takes_any_nonzero_direction():
    for direction in [(0, 0, 2), (1, 1, 1), (3, 0, 4), (0, -0.5, Fraction(1, 3))]:
        assert ProjectionAxis(direction).direction == tuple(map(Fraction, direction))
    for zero in [(0, 0, 0), (0.0, -0.0, 0), (Fraction(0), Decimal(0), np.int64(0))]:
        with pytest.raises(ParseError, match="is zero"):
            ProjectionAxis(zero)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ProjectionAxis((NAN, 0, 1)),
        lambda: ProjectionAxis((0, -INF, 1)),
        lambda: PolyCurve([(INF, 0, 0), (1, 0, 0), (0, 1, 0)]),
        lambda: PolyCurve([(0, 0, 0), (1, NAN, 0), (0, 1, 0)]),
    ],
    ids=["axis nan", "axis -inf", "curve inf", "curve nan"],
)
def test_constructors_refuse_non_finite_coordinates(build):
    with pytest.raises(ParseError, match="bad point"):
        build()


def test_hopf_link_is_plus_one():
    c1, c2 = hopf_link()
    assert linking_number_pl(c1, c2) == 1


def test_orientation_reversal_negates():
    c1, c2 = hopf_link()
    assert linking_number_pl(c1.reversed(), c2) == -1
    assert linking_number_pl(c1, c2.reversed()) == -1
    assert linking_number_pl(c1.reversed(), c2.reversed()) == 1


def test_linking_is_symmetric():
    c1, c2 = hopf_link()
    assert linking_number_pl(c1, c2) == linking_number_pl(c2, c1)


def test_split_link_is_zero():
    c1 = circle((0, 0, 0), 1.0, (0, 0, 1), n=24)
    c2 = circle((5, 0, 0), 1.0, (0, 1, 0), n=24)
    assert linking_number_pl(c1, c2) == 0
    assert abs(gauss_linking_quadrature(c1, c2, 128)) < 1e-3


def test_torus_links():
    for n in (1, 2, 3):
        a, b = torus_link_curves(n)
        assert linking_number_pl(a, b) == n


def test_against_naive_oracle_and_quadrature(rng):
    for _ in range(10):
        m, n = random_link(rng)
        lk = linking_number_pl(m, n)
        assert lk == naive_linking_oracle(m, n)
        assert abs(gauss_linking_quadrature(m, n, 256) - lk) < 1e-3


def test_axis_independence(rng):
    m, n = hopf_link()
    for _ in range(5):
        assert linking_number_pl(m, n, ProjectionAxis(tuple(rng.normal(size=3)))) == 1


def test_translation_invariance():
    c1, c2 = hopf_link()
    offset = (3, -7, 2)
    assert linking_number_pl(c1.translated(offset), c2.translated(offset)) == 1


def test_single_swap_changes_lk_by_one():
    # A rectangle in the z=0 plane and a diamond entirely above it ...
    m = PolyCurve([(-3, -1, 0), (3, -1, 0), (3, 1, 0), (-3, 1, 0)])
    n = PolyCurve([(0, -2, 1), (0.5, 0, 1), (0, 2, 1), (-0.5, 0, 1)])
    assert linking_number_pl(m, n) == 0
    # ... then the same diamond with one strand dipped under at exactly
    # one of the four projected crossings.
    n_dipped = PolyCurve(
        [
            (0, -2, 1),
            (0.3, -1.3, -1),
            (0.4, -0.9, -1),
            (0.5, 0, 1),
            (0, 2, 1),
            (-0.5, 0, 1),
        ]
    )
    assert abs(linking_number_pl(m, n_dipped)) == 1


def test_intersecting_curves_rejected():
    c = circle((0, 0, 0), 1.0, (0, 0, 1), n=24)
    with pytest.raises(CurvesIntersect):
        linking_number_pl(c, c)
    with pytest.raises(CurvesIntersect):
        gauss_linking_quadrature(c, c)


def test_vertical_edge_gets_the_value_of_generic_axes():
    m = PolyCurve([(-3, -1, 0), (3, -1, 0), (3, 1, 0), (-3, 1, 0)])
    n = PolyCurve([(0, -1, 1), (0, -1, 3), (1, 0, 2)])  # vertical edge over m
    assert linking_number_pl(m, n) == 0


def _collinear_pair(gap):
    # The two base edges project into one line along EZ, `gap` apart.
    m = PolyCurve([(0, 0, 0), (1, 0, 0), (0.5, -1, 0)])
    n = PolyCurve([(1 + gap, 0, 1), (2, 0, 1), (1.5, 1, 1)])
    return m, n


@pytest.mark.parametrize("gap", [1e-9, 1e-3])
def test_collinear_projections_apart_are_decided_whatever_the_margin(gap):
    # 1e-9 lies inside the box prefilter's margin, 1e-3 outside it.
    assert linking_number_pl(*_collinear_pair(gap)) == 0


@pytest.mark.parametrize("gap", [0, -0.5], ids=["touching", "overlapping"])
def test_collinear_projections_that_meet_get_the_value_of_generic_axes(gap):
    assert linking_number_pl(*_collinear_pair(gap)) == 0


def lattice_polygon(gen):
    """A closed polygon of 3 to 6 vertices with coordinates in -2..2."""
    while True:
        points = [tuple(gen.randint(-2, 2) for _ in range(3))
                  for _ in range(gen.randint(3, 6))]
        if all(a != b for a, b in zip(points, points[1:] + points[:1])):
            return PolyCurve(points)


def generic_oracle_lk(m, n, gen):
    """``naive_linking_oracle`` along random axes until one is generic."""
    while True:
        try:
            return naive_linking_oracle(m, n, [gen.gauss(0, 1) for _ in range(3)])
        except OracleDegenerate:
            pass


def test_lattice_links_get_the_value_of_generic_axes():
    # Small lattice polygons put vertices over edges, edges along the axis
    # and collinear projected edges in most links, along every axis here.
    gen = random.Random(15)
    axes = [EZ, ProjectionAxis((1, 0, 0)), ProjectionAxis((0, 1, 0)),
            ProjectionAxis((0.6, 0, 0.8))]
    links = degenerate = linked = 0
    while links < 120:
        m, n = lattice_polygon(gen), lattice_polygon(gen)
        if any(_segments_meet(a, b) for a in curve_segments(m) for b in curve_segments(n)):
            # Meeting is decided on the projected candidates: along every
            # axis, and also where a far third curve meets neither.
            far = m.translated((6, 0, 0))
            for axis in axes:
                with pytest.raises(CurvesIntersect):
                    linking_number_pl(m, n, axis)
                with pytest.raises(CurvesIntersect):
                    linking_matrix([far, m, n], axis)
            with pytest.raises(CurvesIntersect):
                gauss_linking_quadrature(m, n)
            continue
        links += 1
        expected = generic_oracle_lk(m, n, gen)
        linked += expected != 0
        for axis in axes:
            assert linking_number_pl(m, n, axis) == expected
            degenerate += outcome(naive_linking_oracle, m, n, axis.direction) is OracleDegenerate
    assert degenerate >= links and linked >= 10


def random_direction(gen):
    """A nonzero integer direction with components in -3..3."""
    while True:
        d = tuple(gen.randint(-3, 3) for _ in range(3))
        if any(d):
            return d


def test_a_scaled_axis_gives_the_same_linking_numbers_and_writhes(rng):
    # Only an axis's direction is read: along c*d, c > 0, each link and
    # curve gets what it gets along d, degenerate projections and
    # CurvesIntersect included.  The lattice pairs use the dense finder,
    # the random links (1296 segment pairs) numpy's sweep.
    gen = random.Random(23)
    pairs = [(lattice_polygon(gen), lattice_polygon(gen)) for _ in range(150)]
    pairs += [random_link(rng) for _ in range(4)]
    for m, n in pairs:
        d = random_direction(gen)
        axes = [ProjectionAxis(tuple(c * x for x in d)) for c in (1, 2, Fraction(1, 3), 10**6)]
        for run in (lambda a: linking_number_pl(m, n, a), lambda a: writhe_pl(m, a),
                    lambda a: writhe_pl(n, a)):
            values = [outcome(run, axis) for axis in axes]
            assert values == values[:1] * 4, (m, n, d)


def is_positive_multiple(a, b) -> bool:
    """Whether a = c*b for some c > 0; b is nonzero."""
    c = next(Fraction(x) / y for x, y in zip(a, b) if y)
    return c > 0 and all(x == c * y for x, y in zip(a, b))


def test_plane_basis_is_a_positive_multiple_of_the_rational_basis():
    # Each integer vector is a positive multiple of the oracle's rational
    # one, on unit and non-unit directions alike, so every determinant
    # sign, and with it every crossing decision, is the oracle basis's.
    gen = random.Random(31)
    directions = [(0, 0, 1), (0, 0, 2), (1, 1, 1), (-3, 0, 4), (0.6, 0, 0.8), (2, -2, 1)]
    for _ in range(300):
        g = np.array([gen.gauss(0, 1) for _ in range(3)])
        directions += [tuple(g), tuple(g / np.linalg.norm(g)), random_direction(gen),
                       tuple(Fraction(gen.randint(-9, 9), gen.randint(1, 9)) for _ in g)]
    for direction in directions:
        if not any(direction):
            continue
        basis = _plane_basis(ProjectionAxis(direction))
        assert all(type(x) is int for vec in basis for x in vec)
        for vec, exact in zip(basis, plane_basis_oracle(direction)):
            assert is_positive_multiple(vec, exact), direction


@pytest.mark.parametrize(
    "points, writhe",
    [
        # A vertical edge over (0, -1) joins two edges that project into
        # the line y = -1 on either side of it.
        ([(-1, -1, -1), (0, 1, 0), (1, -2, -2), (2, -1, -2), (0, -1, 2), (0, -1, 0)], 1),
        # Three consecutive edges fold back and forth along y = -2.
        ([(-1, 2, 0), (0, 2, 2), (-2, -2, 0), (1, -2, 2), (0, -2, 1), (2, -2, 1)], -1),
    ],
    ids=["vertical edge", "collinear projected edges"],
)
def test_writhe_of_a_degenerate_projection_is_the_value_of_nearby_axes(points, writhe, rng):
    curve = PolyCurve(points)
    assert writhe_pl(curve) == writhe
    for _ in range(20):
        d = np.array([0.0, 0.0, 1.0]) + 1e-7 * rng.normal(size=3)
        assert writhe_pl(curve, ProjectionAxis(tuple(d))) == writhe


def test_writhe_of_a_vertex_over_a_non_adjacent_edge_is_the_value_of_the_tilt():
    # The last vertex projects onto the first edge, at (2, 0).  EZ is
    # tilted towards u = -y first, where the last edge misses the first.
    curve = PolyCurve([(0, 0, 0), (4, 0, 0), (4, 4, 0), (2, 0, 1)])
    assert _plane_basis(EZ)[0] == (0, -1, 0)
    assert writhe_pl(curve) == 0
    # Tilted towards +y the last edge crosses the first, towards -y not.
    tilts = [ProjectionAxis((0, t, 1)) for t in (1e-3, -1e-3)]
    assert [writhe_pl(curve, axis) for axis in tilts] == [1, 0]


@pytest.mark.parametrize(
    "points",
    [[(0, 0, 0), (2, 0, 0), (1, 0, 0)],
     # Only the last edge folds back, onto the first; the third edge ends
     # on the first, over it along z.
     [(0, 0, 0), (2, 0, 0), (2, 2, 0), (1, 0, 0)]],
    ids=["triangle", "closing pair"],
)
def test_writhe_refuses_a_curve_that_folds_back_along_an_edge(points):
    with pytest.raises(CurvesIntersect, match="folds back"):
        writhe_pl(PolyCurve(points))
    # Folding back is a fact of the curve, walked on its first writhe and
    # cached outside the fields: the same object refuses again, along
    # another axis too, and so does a copy made by pickling.
    curve = PolyCurve(points)
    for copy in (curve, curve, pickle.loads(pickle.dumps(curve))):
        for axis in (EZ, ProjectionAxis((0.6, 0, 0.8))):
            with pytest.raises(CurvesIntersect, match="folds back"):
                writhe_pl(copy, axis)
        assert copy.__dict__["_folds_back"] is True
        assert copy == PolyCurve(points) and hash(copy) == hash(PolyCurve(points))


def test_only_a_writhe_walks_a_curve_for_folds():
    m, n = hopf_link(16)
    linking_number_pl(m, n)
    assert "_folds_back" not in m.__dict__
    assert writhe_pl(m) == 0
    assert m.__dict__["_folds_back"] is False


def test_writhe_refuses_a_curve_with_a_vertex_on_a_non_adjacent_edge():
    # The vertex (2, 0, 0) lies on the first edge in R^3, not only in
    # projection, so no axis decides this writhe.
    curve = PolyCurve([(0, 0, 0), (4, 0, 0), (4, 4, 0), (2, 0, 0), (0, 4, 0)])
    for axis in (EZ, ProjectionAxis((0.6, 0, 0.8))):
        with pytest.raises(CurvesIntersect, match="a curve meets itself"):
            writhe_pl(curve, axis)


def test_writhe_refuses_a_curve_that_meets_itself_in_a_vertical_plane():
    # A bowtie in the plane y = 0: its two diagonals meet at (1, 0, 1),
    # and all four edges project into one line.
    bowtie = PolyCurve([(0, 0, 0), (2, 0, 2), (2, 0, 0), (0, 0, 2)])
    with pytest.raises(CurvesIntersect, match="a curve meets itself"):
        writhe_pl(bowtie)


_POINTS = [(0, 0, 0), (1, 0, 0), (0, 1, 1)]


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda m, n: linking_number_pl(m, n, (0, 0, 1)), "ProjectionAxis"),
        (lambda m, n: writhe_pl(m, (0, 0, 1)), "ProjectionAxis"),
        (lambda m, n: linking_matrix([m, n], None), "ProjectionAxis"),
        (lambda m, n: murai_ohba_certificate(m, n, (0, 0, 1)), "ProjectionAxis"),
        (lambda m, n: linking_number_pl(m, _POINTS), "PolyCurve"),
        (lambda m, n: linking_matrix([_POINTS, n]), "PolyCurve"),
        (lambda m, n: writhe_pl(_POINTS), "PolyCurve"),
        # A folding list of points is refused as a list, not walked.
        (lambda m, n: writhe_pl([(0, 0, 0), (2, 0, 0), (1, 0, 0)]), "PolyCurve"),
        (lambda m, n: murai_ohba_certificate(m, tuple(_POINTS), None), "PolyCurve"),
    ],
    ids=["lk axis", "writhe axis", "matrix axis", "certificate axis", "lk curve",
         "matrix curve", "writhe curve", "folding writhe curve", "certificate curve"],
)
def test_a_bad_axis_or_curve_raises_parse_error(call, match):
    m, n = hopf_link(8)
    with pytest.raises(ParseError, match=match):
        call(m, n)


def test_writhe_of_planar_convex_polygon():
    square = PolyCurve([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
    assert writhe_pl(square) == 0


def test_writhe_of_single_kink():
    kink = PolyCurve([(0, 0, 0), (2, 2, 0), (2, 0, 1), (0, 2, 1)])
    assert writhe_pl(kink) == -1
    assert writhe_pl(kink.reversed()) == -1  # writhe is orientation-blind


def test_writhe_of_trefoil():
    assert writhe_pl(trefoil_curve()) == -3


def test_quadrature_symmetry():
    c1, c2 = hopf_link()
    forward = gauss_linking_quadrature(c1, c2, 200)
    backward = gauss_linking_quadrature(c2, c1, 200)
    assert abs(forward - backward) < 1e-9
    assert abs(forward - 1.0) < 1e-2


@pytest.mark.parametrize("count", [0, -5, 2.5, 64.0, True, "64", None])
def test_quadrature_refuses_a_bad_subdivision_count(count):
    c1, c2 = hopf_link()
    with pytest.raises(InvalidParams):
        gauss_linking_quadrature(c1, c2, count)


def test_quadrature_with_one_subdivision():
    # Fewer samples than vertices: one midpoint per segment.
    c1, c2 = hopf_link()
    assert gauss_linking_quadrature(c1, c2, 1) == gauss_linking_quadrature(c1, c2, 48)


def test_connected_sum_simple_additivity():
    base = circle((0, 0, 0), 2.0, (0, 0, 1), n=32)
    meridian = circle((2, 0, 0), 0.8, (0, 1, 0), n=24, phase=0.1)
    far = circle((8, 0, 0), 0.8, (0, 1, 0), n=24, phase=0.2)
    lk1 = linking_number_pl(meridian, base)
    lk2 = linking_number_pl(far, base)
    assert abs(lk1) == 1 and lk2 == 0
    # Band vertices chosen on the sides of the summands facing each
    # other, clear of the base circle's projection.
    joined = connected_sum_pl(
        meridian, far, band=(6, 18), avoid=[base]
    )
    lk_sum = linking_number_pl(joined, base)
    assert lk_sum == lk1 + lk2


def test_connected_sum_band_through_a_curve_is_obstructed():
    # All three circles lie in the plane y = 0, and the band's second
    # connector (far vertex 11 to meridian vertex 6) runs through edge 12
    # of ``far`` at an exact rational point.
    base = circle((0, 0, 0), 2.0, (0, 0, 1), n=32)
    meridian = circle((2, 0, 0), 0.8, (0, 1, 0), n=24, phase=0.1)
    far = circle((8, 0, 0), 0.8, (0, 1, 0), n=24, phase=0.2)
    with pytest.raises(BandObstructed):
        connected_sum_pl(meridian, far, band=(6, 12), avoid=[base])


def test_connected_sum_crossed_connectors_are_obstructed():
    # Two unit squares in the plane z = 0 whose band connectors form an X
    # at (1.5, 0.5, 0), touching neither square: the sum is not embedded.
    m1 = PolyCurve([(0, 1, 0), (-1, 1, 0), (-1, 0, 0), (0, 0, 0)])
    m2 = PolyCurve([(3, 1, 0), (4, 1, 0), (4, 0, 0), (3, 0, 0)])
    with pytest.raises(BandObstructed):
        connected_sum_pl(m1, m2, band=(0, 0))


def test_connected_sum_refuses_intersecting_summands():
    # m2 runs through m1's edge at (4, 2, 0); the band itself is clear.
    m1 = PolyCurve([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)])
    m2 = PolyCurve([(3, 2, 0), (6, 2, 0), (6, 2, 3), (3, 2, 3)])
    with pytest.raises(CurvesIntersect):
        connected_sum_pl(m1, m2, band=(0, 3))


def test_connected_sum_random_additivity(rng):
    base = circle((0, 0, 0), 2.0, (0, 0, 1), n=32)
    successes = 0
    while successes < 20:
        phi = rng.uniform(0, 2 * np.pi)
        if rng.random() < 0.5:
            center1 = (2 * np.cos(phi), 2 * np.sin(phi), 0.0)
            normal1 = (-np.sin(phi), np.cos(phi), 0.05)
        else:
            center1 = tuple(rng.normal(scale=4, size=3))
            normal1 = tuple(rng.normal(size=3))
        center2 = tuple(rng.normal(scale=6, size=3) + np.array([9, 0, 0]))
        m1 = circle(center1, 0.7, normal1, n=20, phase=rng.uniform(0, 1))
        m2 = circle(center2, 0.7, tuple(rng.normal(size=3)), n=20,
                    phase=rng.uniform(0, 1))
        try:
            lk1 = linking_number_pl(m1, base)
            lk2 = linking_number_pl(m2, base)
            joined = connected_sum_pl(m1, m2, band=(0, 0), avoid=[base])
            lk_sum = linking_number_pl(joined, base)
        except (BandObstructed, CurvesIntersect, OracleDegenerate):
            continue
        assert lk_sum == lk1 + lk2
        successes += 1


def test_connected_sum_obstructed_band():
    m1 = circle((-6, 0, 0), 1.0, (0, 0, 1), n=16)
    m2 = circle((6, 0, 0), 1.0, (0, 0, 1), n=16)
    blocker = circle((0, 0, 0.5), 2.0, (0, 0, 1), n=16)
    with pytest.raises(BandObstructed):
        connected_sum_pl(m1, m2, band=(0, 0), avoid=[blocker])


def test_connected_sum_bad_band_index():
    m1 = circle((-6, 0, 0), 1.0, (0, 0, 1), n=16)
    m2 = circle((6, 0, 0), 1.0, (0, 0, 1), n=16)
    with pytest.raises(ParseError):
        connected_sum_pl(m1, m2, band=(16, 0))


def test_curves_round_trip():
    c1, c2 = hopf_link()
    doc = curves_to_dict([c1, c2])
    back = curves_from_dict(doc)
    assert len(back) == 2
    assert back == [c1, c2]
    assert back[0].vertices[0] == tuple(Fraction(x) for x in doc["components"][0][0])
    assert linking_number_pl(back[0], back[1]) == 1
    with pytest.raises(ParseError):
        curves_from_dict({"nope": []})


@pytest.mark.parametrize("bad", [True, "0.5", float("inf"), float("nan")])
def test_curves_from_dict_rejects_non_numbers(bad):
    doc = {"components": [[[0, 0, 0], [1, 0, 0], [0, 1, bad]]]}
    with pytest.raises(ParseError, match=r"components\[0\]\[2\]"):
        curves_from_dict(doc)


# --- the box sweep ----------------------------------------------------------


SWEEP_AXES = [EZ, ProjectionAxis((1, 0, 0)), ProjectionAxis((0.6, 0, 0.8))]


def assert_sweep_equals_dense(arrays, basis):
    """The sweep keeps exactly the pairs the dense box test keeps under the
    same margin, taken from the whole set: pairs a < b on distinct
    polylines (or, for one polyline, non-identical segments of it), each
    once."""
    start = np.cumsum([0] + [len(a) for a in arrays])
    margin = 1e-7 * max(float(np.abs(a).max()) for a in arrays)
    swept = _box_pairs(arrays, basis)
    assert len(set(swept)) == len(swept)
    if len(arrays) > 1:
        dense = {
            (start[k] + i, start[m] + j)
            for k, m in combinations(range(len(arrays)), 2)
            for i, j in dense_box_pairs(arrays[k], arrays[m], basis, margin)
        }
    else:
        dense = {(i, j) for i, j in dense_box_pairs(arrays[0], arrays[0], basis) if i < j}
    assert set(swept) == dense


def test_box_sweep_contains_dense_survivors_on_random_curves(rng):
    for _ in range(8):
        arrays = [
            random_loop(rng, int(rng.integers(3, 40))) + rng.normal(scale=2, size=3)
            for _ in range(int(rng.integers(2, 5)))
        ]
        for axis in SWEEP_AXES:
            assert_sweep_equals_dense(arrays, axis._basis)
            for a in arrays:
                assert_sweep_equals_dense([a], axis._basis)


def test_box_sweep_contains_dense_survivors_on_touching_axis_aligned_boxes():
    # Unit squares on the integer lattice share edges and corners exactly;
    # their edges have boxes of zero width, and the vertical edges of the
    # last curve project to points along EZ.
    squares = [
        np.array([(x, y, 0), (x + 1, y, 0), (x + 1, y + 1, 0), (x, y + 1, 0)], float)
        for x, y in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (5, 0)]
    ]
    post = np.array([(1, 1, 0), (1, 1, 2), (3, 1, 2), (3, 1, 0)], float)
    arrays = [*squares, post]
    for axis in SWEEP_AXES:
        assert_sweep_equals_dense(arrays, axis._basis)
        assert_sweep_equals_dense([np.concatenate(squares)], axis._basis)
    # Boxes exactly one margin apart: 1e-7 of the largest coordinate, 1.
    gap = [
        np.array([(-1, 0, 0), (0, 0, 0), (0, 1, 0)], float),
        np.array([(1e-7, 0, 0), (1, 0, 0), (1, 1, 0)], float),
    ]
    assert dense_box_pairs(*gap, EZ._basis)
    assert_sweep_equals_dense(gap, EZ._basis)


def test_box_sweep_margin_follows_the_3d_coordinates():
    # Far out along the axis a set is thin in projection, while the float
    # error of its projected points is relative to its 3D coordinates.
    axis = ProjectionAxis((0.6, 0, 0.8))
    far = (3 * 2**60, 0, 4 * 2**60)
    gen = random.Random(0)

    def point():
        return tuple(gen.randint(-1000, 1000) for _ in range(3))

    for _ in range(300):
        # Two triangles meeting at p: a vertex of one, the midpoint of an
        # edge of the other.
        p, a, b, c, d = (point() for _ in range(5))
        m = PolyCurve([p, a, b]).translated(far)
        n = PolyCurve([c, tuple(2 * x - y for x, y in zip(p, c)), d]).translated(far)
        with pytest.raises(CurvesIntersect):
            linking_matrix([m, n], axis)
        # A call this small compares exact boxes; the sweep, which larger
        # calls use, keeps the meeting pair too.
        assert exact_box_pairs([m, n], axis._basis) <= set(
            _box_pairs([m.as_array(), n.as_array()], axis._basis))
    # A Hopf pair of squares 2000 wide keeps its value out there.
    m = PolyCurve([(-1000, -1000, 0), (1000, -1000, 0), (1000, 1000, 0), (-1000, 1000, 0)])
    n = PolyCurve([(0, -500, -1000), (0, 2000, -1000), (0, 2000, 1000), (0, -500, 1000)])
    for _ in range(20):
        offset = tuple(f + gen.randint(-3000, 3000) for f in far)
        assert linking_number_pl(m.translated(offset), n.translated(offset), axis) == -1


# --- the dense finder --------------------------------------------------------


def assert_dense_finder_is_exact(curves, basis):
    """The dense finder keeps exactly the pairs whose exact projected boxes
    touch, and the sweep keeps every one of them too."""
    pairs = _touching_pairs(_on_one_grid(curves), [len(c) for c in curves], basis)
    reference = exact_box_pairs(curves, basis)
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == reference
    assert reference <= set(_box_pairs([c.as_array() for c in curves], basis))


def test_dense_finder_keeps_exactly_the_touching_boxes_of_random_curves(rng):
    for _ in range(8):
        curves = [
            PolyCurve([tuple(p) for p in random_loop(rng, int(rng.integers(3, 16)))
                       + rng.normal(scale=2, size=3)])
            for _ in range(int(rng.integers(2, 5)))
        ]
        for axis in SWEEP_AXES:
            assert_dense_finder_is_exact(curves, axis._basis)
            for c in curves:
                assert_dense_finder_is_exact([c], axis._basis)


def test_dense_finder_keeps_exactly_the_touching_boxes_of_lattice_squares():
    # Squares that share edges and corners, a post whose vertical edges
    # project to points along EZ, and a curve off the dyadic grid that
    # lies along the first square's top edge.
    squares = [
        PolyCurve([(x, y, 0), (x + 1, y, 0), (x + 1, y + 1, 0), (x, y + 1, 0)])
        for x, y in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (5, 0)]
    ]
    post = PolyCurve([(1, 1, 0), (1, 1, 2), (3, 1, 2), (3, 1, 0)])
    third = Fraction(1, 3)
    thirds = PolyCurve([(third, 1, 0), (2 * third, 1, 0), (2 * third, 2, 1)])
    merged = PolyCurve([p for square in squares for p in square.vertices])
    for axis in SWEEP_AXES:
        assert_dense_finder_is_exact([*squares, post, thirds], axis._basis)
        assert_dense_finder_is_exact([merged], axis._basis)


def finer_than_the_bound(curves):
    """The curves subdivided until a call on them compares more than
    ``_DENSE_PAIRS`` segment pairs, so it sweeps."""
    def pairs(sizes):
        if len(sizes) == 1:
            return sizes[0] * (sizes[0] - 1) // 2
        return sum(a * b for a, b in combinations(sizes, 2))

    assert pairs([len(c) for c in curves]) <= _DENSE_PAIRS
    while pairs([len(c) for c in curves]) <= _DENSE_PAIRS:
        curves = [subdivided(c) for c in curves]
    return curves


def test_subdividing_past_the_dense_bound_keeps_lk_and_writhe():
    # Exact midpoints leave every curve the same point set, so each value
    # and each refusal stays while the call moves to the sweep.
    gen = random.Random(20)
    for _ in range(30):
        m, n = lattice_polygon(gen), lattice_polygon(gen)
        fine_m, fine_n = finer_than_the_bound([m, n])
        for axis in SWEEP_AXES:
            assert (outcome(linking_number_pl, fine_m, fine_n, axis)
                    == outcome(linking_number_pl, m, n, axis))
    knots = [trefoil_curve(40), lattice_polygon(gen), lattice_polygon(gen),
             PolyCurve([(-1, -1, -1), (0, 1, 0), (1, -2, -2), (2, -1, -2), (0, -1, 2),
                        (0, -1, 0)]),
             PolyCurve([(0, 0, 0), (4, 0, 0), (4, 4, 0), (2, 0, 1)])]
    for knot in knots:
        [fine] = finer_than_the_bound([knot])
        for axis in SWEEP_AXES:
            assert outcome(writhe_pl, fine, axis) == outcome(writhe_pl, knot, axis)


def test_both_finders_give_the_same_crossing_sums(monkeypatch):
    # The count forced onto the dense finder, then onto the sweep: each
    # sum and each refusal, with its message, agrees, for sets and for
    # single curves with their adjacent pairs left out, and the sums are
    # the writhe and the doubled linking numbers.
    gen = random.Random(27)
    cases = [[lattice_polygon(gen) for _ in range(gen.randint(1, 4))] for _ in range(80)]
    cases += [[trefoil_curve(30)], list(hopf_link(12)),
              [PolyCurve([(0, 0, 0), (2, 0, 0), (1, 0, 0)])]]

    def sums(curves, axis, bound):
        monkeypatch.setattr(linking, "_DENSE_PAIRS", bound)
        try:
            return _crossing_sums(curves, axis)
        except CurvesIntersect as exc:
            return str(exc)

    seen = set()
    for curves in cases:
        for axis in SWEEP_AXES:
            dense = sums(curves, axis, 10**9)
            assert sums(curves, axis, 0) == dense
            if isinstance(dense, str):
                seen.add(dense)
            elif len(curves) == 1:
                seen.add("writhe")
                assert dense == {(0, 0): writhe_pl(curves[0], axis)}
            else:
                seen.add("lk")
                assert dense == {k: 2 * v for k, v in linking_matrix(curves, axis).items()}
    assert seen == {"writhe", "lk", "a curve folds back along an edge",
                    "a curve meets itself in R^3", "curves meet in R^3; not a valid link"}


def test_curves_that_meet_are_refused_at_the_dense_bound():
    # 32 + 32 vertices: the most pairs the dense finder takes.  The edge
    # x = 8, y = 4 of the second square crosses the first one's edge x = 8.
    m = PolyCurve([(0, 0, 0), (8, 0, 0), (8, 8, 0), (0, 8, 0)])
    n = PolyCurve([(8, 4, -4), (12, 4, -4), (12, 4, 4), (8, 4, 4)])
    for _ in range(3):
        m, n = subdivided(m), subdivided(n)
    assert len(m) * len(n) == _DENSE_PAIRS
    for axis in SWEEP_AXES:
        with pytest.raises(CurvesIntersect):
            linking_number_pl(m, n, axis)
        assert linking_number_pl(m, n.translated((1, 0, 0)), axis) == 0
        assert abs(linking_number_pl(m, n.translated((-2, 0, 0)), axis)) == 1


# --- the integer kernel -----------------------------------------------------


KERNEL = settings(derandomize=True, max_examples=400, deadline=None)

# Few, partly non-dyadic values: collinear, touching and axis-parallel
# segments come up often.
_values = st.sampled_from(
    [Fraction(x) for x in (-1, 0, 1, 2)]
    + [Fraction(1, 7), Fraction(1, 3), Fraction(-2, 3), Fraction(1, 2)]
)
_points = st.tuples(_values, _values, _values)
_stretches = st.sampled_from([Fraction(x) for x in (-2, -1, -1 / 2, 0, 1 / 2, 1, 3 / 2, 2, 3)])
_directions = st.sampled_from([
    (0, 0, 1), (0, 1, 0), (-1, 0, 0), (0.6, 0, 0.8), (0, -0.8, 0.6), (1, -2, 3),
    (0, 0, 2), (1, 1, 1), (Fraction(1, 3), Fraction(-2, 7), 5),
])


@st.composite
def segment_pairs(draw):
    """Two segments with distinct endpoints.  The second one may start at
    an endpoint or the midpoint of the first, pass through its midpoint, or
    lie on its line, possibly lifted along z (collinear in projection along
    EZ), overlapping it, touching it or apart."""
    p0 = draw(_points)
    p1 = draw(_points.filter(lambda q: q != p0))
    mid = tuple((a + b) / 2 for a, b in zip(p0, p1))
    kind = draw(st.sampled_from(["free", "free", "touching", "through", "collinear"]))
    if kind == "collinear":
        a, b = draw(st.lists(_stretches, min_size=2, max_size=2, unique=True))
        lift = (0, 0, draw(st.sampled_from([0, 1])))
        q0, q1 = (tuple(x + c * (y - x) + h for x, y, h in zip(p0, p1, lift)) for c in (a, b))
        return (p0, p1), (q0, q1)
    q0 = draw(st.sampled_from([p0, p1, mid]) if kind == "touching" else _points)
    q1 = tuple(2 * m - x for m, x in zip(mid, q0))
    if kind != "through" or q1 == q0:
        q1 = draw(_points.filter(lambda q: q != q0))
    return (p0, p1), (q0, q1)


def outcome(test, *args):
    try:
        return test(*args)
    except (OracleDegenerate, CurvesIntersect) as exc:
        return type(exc)


def on_grid(*segments):
    scale = lcm(*(x.denominator for seg in segments for p in seg for x in p))
    return [tuple(tuple(int(x * scale) for x in p) for p in seg) for seg in segments]


@KERNEL
@given(segment_pairs(), _directions)
def test_integer_crossing_test_matches_the_rational_oracle(pair, direction):
    # The basis is integral, so the predicate runs in integers.  Segments
    # that meet raise CurvesIntersect (the oracle calls parallel projections
    # a miss whether they meet or not); elsewhere, where the untilted axis
    # is generic for the oracle, the two agree.
    basis = _plane_basis(ProjectionAxis(direction))
    assert all(type(x) is int for vec in basis for x in vec)
    expected = outcome(crossing_sign_oracle, *pair, plane_basis_oracle(direction))
    meet = _segments_meet(*pair)
    if meet:
        assert expected in (0, CurvesIntersect, OracleDegenerate)
        expected = CurvesIntersect
    grid = on_grid(*pair)
    if expected is not OracleDegenerate:
        assert outcome(_segment_crossings, *grid, basis) == expected
        assert outcome(_segment_crossings, *grid[::-1], basis) == expected
    assert _segments_meet(*grid) == meet


TILT = Fraction(1, 10**60)


@KERNEL
@given(segment_pairs(), _directions)
def test_perturbed_crossing_test_matches_the_oracle_along_a_tilted_axis(pair, direction):
    # Segments that meet raise CurvesIntersect, and a disjoint pair is
    # decided as along the axis w + TILT*u + TILT**2*v, which no pair of
    # these segments meets degenerately.
    if _segments_meet(*pair):
        expected = CurvesIntersect
    else:
        u, v, w = plane_basis_oracle(direction)
        tilted = tuple(c + TILT * a + TILT**2 * b for a, b, c in zip(u, v, w))
        expected = crossing_sign_oracle(*pair, plane_basis_oracle(tilted))
    basis = _plane_basis(ProjectionAxis(direction))
    grid = on_grid(*pair)
    assert outcome(_segment_crossings, *grid, basis) == expected
    assert outcome(_segment_crossings, *grid[::-1], basis) == expected


def test_linking_matrix_off_the_dyadic_grid():
    c1, c2 = hopf_link(16)
    third = (Fraction(1, 3), 0, 0)
    tiny = PolyCurve(
        [(x, y, Fraction(1e-300) if k == 0 else z) for k, (x, y, z) in enumerate(c1.vertices)]
    )
    for curves in (
        [c1.translated(third), c2.translated(third)],
        [c1.translated(third), c2],  # grids 3 * 2^a and 2^b
        [tiny, c2],
        [c2.translated((0, 0, Fraction(1, 7))), tiny, c1.translated((9, 0, 0))],
    ):
        expected = {
            (i, j): naive_linking_oracle(curves[i], curves[j])
            for i, j in combinations(range(len(curves)), 2)
        }
        assert linking_matrix(curves) == expected
        assert 1 in expected.values()


# --- edge cases -------------------------------------------------------------


def test_linking_matrix_of_fewer_than_two_curves_is_empty():
    assert linking_matrix([]) == {}
    assert linking_matrix([hopf_link(8)[0]]) == {}


def test_triangle_has_writhe_zero():
    assert writhe_pl(PolyCurve([(0, 0, 0), (1, 0, 0), (0, 1, 1)])) == 0


_TYPED_VALUES = [0, 1, -3, 0.1, -2.5, 1 / 3, 1e-300, -1e300, 1e300, 7.0]


@st.composite
def typed_coordinates(draw):
    """A coordinate as int, np.int64, float, np.float64, Fraction or Decimal."""
    x = draw(st.sampled_from(_TYPED_VALUES) | st.floats(-1e3, 1e3) | st.integers(-10**30, 10**30))
    kinds = [Fraction, Decimal]
    if isinstance(x, float):
        kinds += [float, np.float64]
    else:
        kinds += [int] + ([np.int64] if abs(x) < 2**63 else [])
    return draw(st.sampled_from(kinds))(x)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(typed_coordinates(), typed_coordinates(), typed_coordinates()),
                min_size=3, max_size=6))
def test_every_coordinate_type_builds_the_curve_of_its_fractions(points):
    exact = [tuple(Fraction(x) for x in p) for p in points]
    try:
        reference = PolyCurve(exact)
    except ParseError:
        with pytest.raises(ParseError):
            PolyCurve(points)
        return
    curve = PolyCurve(points)
    assert all(type(x) is int for p in curve._grid for x in p)
    assert curve == reference and hash(curve) == hash(reference)
    assert curve.vertices == tuple(exact)
    assert all(type(x) is Fraction for p in curve.vertices for x in p)
    assert repr(curve) == repr(reference)
    assert np.array_equal(curve.as_array(), np.array(exact, dtype=float))
    partner = PolyCurve([(-1, -1, 0.5), (2, -1, 0.5), (2, 2, 0.5), (-1, 2, 0.5)])
    assert outcome(linking_matrix, [curve, partner]) == outcome(
        linking_matrix, [reference, partner]
    )


def test_polycurve_is_immutable():
    c = hopf_link(8)[0]
    c.as_array()
    for name in ("vertices", "_grid", "_scale", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    assert c == PolyCurve(c.vertices)


def test_cached_conversions_are_read_only_and_not_compared():
    c1, c2 = hopf_link(16)
    fresh = PolyCurve(c1.vertices)
    linking_number_pl(c1, c2)
    writhe_pl(c1)
    array = c1.as_array()
    assert c1.as_array() is array
    with pytest.raises(ValueError):
        array[0, 0] = 1.0
    assert np.array_equal(array, np.array(c1.vertices, dtype=float))
    assert c1 == fresh and hash(c1) == hash(fresh) and repr(c1) == repr(fresh)
    assert {c1: 1}[fresh] == 1


def _through_fractions(points):
    return PolyCurve([tuple(Fraction(x) for x in p) for p in points])


@pytest.mark.parametrize(
    "curve",
    [
        hopf_link(16)[0],
        PolyCurve([(Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)),
                   (Fraction(5, 2), Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(1, 2), Fraction(-7, 2), Fraction(3, 2))]),
        PolyCurve([(Fraction(1, 3), 0, 2), (1, Fraction(2, 7), 0), (0, 1, Fraction(-5, 6))]),
        PolyCurve([(10**30, 0, 0), (0, 10**30, 1), (0, 0, 2)]),
    ],
    ids=["floats", "half-integers", "thirds and sevenths", "large ints"],
)
@pytest.mark.parametrize(
    "offset",
    [(0, 0, 0), (3, -4, 5), (0.5, 0.25, -1.5), (Fraction(1, 2),) * 3,
     (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)), (Fraction(-1, 3), 0, Fraction(1, 7)),
     (Decimal("0.1"), 0, 0), (1e-300, 0, 0)],
    ids=["zero", "ints", "dyadic floats", "halves", "mixed halves", "thirds", "decimal",
         "tiny"],
)
def test_reversed_and_translated_equal_the_curve_built_through_fractions(curve, offset):
    reference = _through_fractions(curve.vertices[::-1])
    assert curve.reversed() == reference and hash(curve.reversed()) == hash(reference)
    assert curve.reversed().vertices == reference.vertices
    shift = tuple(Fraction(t) for t in offset)
    reference = _through_fractions(
        [(x + shift[0], y + shift[1], z + shift[2]) for x, y, z in curve.vertices])
    moved = curve.translated(offset)
    assert moved == reference and hash(moved) == hash(reference)
    assert (moved._scale, moved._grid) == (reference._scale, reference._grid)
    assert moved.vertices == reference.vertices
    assert np.array_equal(moved.as_array(), reference.as_array())


def test_translation_recanonicalises_the_scale():
    halves = PolyCurve([(0.5, 1.5, -0.5), (2.5, 0.5, 0.5), (0.5, -3.5, 1.5)])
    assert halves._scale == 2
    moved = halves.translated((Fraction(1, 2),) * 3)
    assert moved._scale == 1 and moved._grid == ((1, 2, 0), (3, 1, 1), (1, -3, 2))
    assert moved == PolyCurve([(1, 2, 0), (3, 1, 1), (1, -3, 2)])
    assert moved.translated((-0.5, -0.5, -0.5)) == halves


def test_translation_reads_its_offset_and_its_result_by_the_number_rule():
    halves = PolyCurve([(0.5, 1.5, -0.5), (2.5, 0.5, 0.5), (0.5, -3.5, 1.5)])
    for offset in [(True, 0, 0), (0, Decimal("1e-400"), 0), (0, 0, "1"), (0, 0), None]:
        with pytest.raises(ParseError, match="bad point"):
            halves.translated(offset)
    # A moved coordinate is refused as a built one would be: nonzero with a
    # float of 0.0, or beyond the largest float.
    thirds = PolyCurve([(Fraction(1, 3), 0, 0), (0, 1, 0), (0, 0, 1)])
    near = Fraction(1, 3 * 10**400) - Fraction(1, 3)
    with pytest.raises(ParseError, match="float range"):
        thirds.translated((near, 0, 0))
    with pytest.raises(ParseError):
        _through_fractions([(x + near, y, z) for x, y, z in thirds.vertices])
    top = PolyCurve([(1e308, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(ParseError, match="float range"):
        top.translated((8e307, 0, 0))


@pytest.mark.parametrize(
    "grid",
    [(), ((0, 0, 0),), ((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (1, 0, 0), (1, 0, 0)),
     ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0))],
    ids=["none", "one", "two", "neighbours coincide", "last meets first"],
)
def test_the_grid_constructor_refuses_as_the_constructor_does(grid):
    with pytest.raises(ParseError) as built:
        PolyCurve(list(grid))
    with pytest.raises(ParseError) as placed:
        PolyCurve._from_grid(1, grid)
    assert str(placed.value) == str(built.value)


def _numpy_circle(center, radius, normal, n, phase):
    w = np.array(normal, dtype=float)
    w = w / np.linalg.norm(w)
    u = np.cross(np.eye(3)[int(np.argmin(np.abs(w)))], w)
    u /= np.linalg.norm(u)
    v = np.cross(w, u)
    angles = phase + 2.0 * np.pi * np.arange(n) / n
    return np.array(center, dtype=float) + radius * (
        np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * v)


@pytest.mark.parametrize(
    "normal", [(0, 0, 1), (0, 0, -1), (0, 1, 0), (0, 1, 0.2), (0.3, 0.2, 1)])
def test_circle_builds_the_floats_of_the_numpy_formula(normal):
    # The normals the tests, demos and benchmarks use; for some others
    # numpy's norm may round differently in the last bit.
    for n, phase in ((8, 0.0), (64, 0.13), (100, 0.5)):
        curve = circle((0.5, -1, 2.25), 1.5, normal, n=n, phase=phase)
        assert curve == PolyCurve(_numpy_circle((0.5, -1, 2.25), 1.5, normal, n, phase))


def test_circle_refuses_a_zero_normal():
    with pytest.raises(ParseError):
        circle((0, 0, 0), 1.0, (0, 0, 0))


@pytest.mark.parametrize(
    "arguments, error",
    [({"n": 2.5}, InvalidParams), ({"n": True}, InvalidParams), ({"n": "8"}, InvalidParams),
     ({"n": 2}, InvalidParams), ({"n": 0}, InvalidParams), ({"n": -3}, InvalidParams),
     ({"radius": "1"}, ParseError), ({"radius": None}, ParseError),
     ({"radius": False}, ParseError), ({"radius": 10**400}, ParseError),
     ({"center": ("1", "0", "0")}, ParseError), ({"center": (0, 0)}, ParseError),
     ({"center": (0, 0, 0, 0)}, ParseError), ({"center": (True, 0, 0)}, ParseError),
     ({"center": None}, ParseError), ({"center": (10**400, 0, 0)}, ParseError),
     ({"normal": ("0", "0", "1")}, ParseError), ({"normal": (0, 1)}, ParseError),
     ({"normal": (0, 0, 1, 0)}, ParseError), ({"normal": (0, 0, True)}, ParseError),
     ({"normal": (0, 0, 1e-320)}, ParseError), ({"normal": (1e200, 0, 0)}, ParseError),
     ({"phase": "x"}, ParseError), ({"phase": None}, ParseError),
     ({"phase": float("inf")}, ParseError), ({"phase": 10**400}, ParseError),
     ({"phase": True}, ParseError)],
    ids=["n float", "n bool", "n str", "n 2", "n 0", "n negative", "radius str", "radius None", "radius bool",
         "radius beyond float", "center str", "center 2", "center 4", "center bool",
         "center None", "center beyond float", "normal str", "normal 2", "normal 4",
         "normal bool", "normal subnormal", "normal overflowing", "phase str", "phase None",
         "phase inf", "phase beyond float", "phase bool"],
)
def test_circle_refuses_a_bad_count_or_radius(arguments, error):
    # Center and normal are checked as the radius is, so their cases are here too.
    with pytest.raises(error):
        circle(**{"center": (0, 0, 0), "radius": 1.0, "normal": (0, 0, 1), **arguments})


BIG = 10**400

# The one number rule at every reader of a real input.  A reader refuses
# a value with the rule's ParseError.
_READERS = {
    "PolyCurve coordinate": lambda v: PolyCurve([(v, 0, 0), (0, 1, 0), (0, 0, 1)]),
    "translated offset": lambda v: hopf_link(8)[0].translated((0, v, 0)),
    "ProjectionAxis component": lambda v: ProjectionAxis((0, v, 0)),
    "circle center": lambda v: circle((v, 0, 0), 1.0, (0, 0, 1), n=8),
    "circle normal": lambda v: circle((0, 0, 0), 1.0, (0, 0, v), n=8),
    "circle radius": lambda v: circle((0, 0, 0), v, (0, 0, 1), n=8),
    "circle phase": lambda v: circle((0, 0, 0), 1.0, (0, 0, 1), n=8, phase=v),
    "BorromeanParams.alpha": lambda v: BorromeanParams(alpha=v, beta=Fraction(1, 10)),
}


def _reads(build, value) -> bool:
    try:
        build(value)
    except ParseError:
        return False
    return True


@pytest.mark.parametrize(
    "value, accepted",
    [(True, False), ("1", False), (None, False), (NAN, False), (INF, False),
     (BIG, False), (np.float32(0.5), False), (Decimal("0.5"), True),
     (Fraction(1, 3), True), (np.int64(2), True), (2, True), (0.5, True)],
    ids=["bool", "str", "None", "nan", "inf", "10**400", "np.float32", "Decimal",
         "Fraction", "np.int64", "int", "float"],
)
def test_every_reader_accepts_and_refuses_the_same_numbers(value, accepted):
    outcomes = {name: _reads(build, value) for name, build in _READERS.items()}
    assert outcomes == dict.fromkeys(_READERS, accepted)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PolyCurve([(BIG, 0, 0), (1, 0, 0), (0, 1, 0)]),
        lambda: PolyCurve([(0, 0, 0), (1, -2**1024, 0), (0, 1, 0)]),
        lambda: PolyCurve([(0, 0, Fraction(BIG, 3)), (1, 0, 0), (0, 1, 0)]),
        lambda: PolyCurve([(0.5, 0, 0), (1, 0, 0), (0, Decimal("1e400"), 0)]),
        lambda: PolyCurve([(0, 0, 0), (1, 0, 0), (0, 1, 0)]).translated((0, 0, BIG)),
        lambda: PolyCurve([(1e308, 0, 0), (0, 1, 0), (0, 0, 1)]).translated((1e308, 0, 0)),
        lambda: ProjectionAxis((BIG, 0, 0)),
        lambda: PolyCurve([(0, 0, Fraction(1, BIG)), (1, 0, 0), (0, 1, 0)]),
        lambda: PolyCurve([(0, 0, 0), (1, 0, Decimal("2e-324")), (0, 1, 0)]),
        lambda: ProjectionAxis((0, 0, Decimal("-1e-400"))),
    ],
    ids=["int", "-2**1024", "Fraction", "Decimal", "translated int", "translated float",
         "axis", "Fraction below", "Decimal below", "axis below"],
)
def test_coordinates_beyond_the_float_range_are_refused_at_construction(build):
    # A nonzero number whose float is 0.0 is refused as one beyond the
    # largest float is.
    with pytest.raises(ParseError):
        build()


@pytest.mark.parametrize(
    "value",
    [Decimal("1e-1000000"), Decimal("-1e-10000000"), Decimal("1e100000"),
     Decimal("1e10000000")],
    ids=["1e-1000000", "-1e-10000000", "1e100000", "1e10000000"],
)
def test_decimals_far_outside_the_float_range_are_refused_before_their_ratio_is_built(value):
    # A Decimal's exponent is judged first: its ratio would hold
    # 10**|exponent|, about 14 s to build for 1e-10000000.
    start = time.perf_counter()
    with pytest.raises(ParseError, match="float range"):
        PolyCurve([(value, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert time.perf_counter() - start < 0.1


def test_coordinates_up_to_the_float_range_build_and_link():
    top = int(np.finfo(float).max)
    curve = PolyCurve([(top, 0, 0), (0, top, 0), (-top, -top, 1)])
    assert curve.as_array()[0, 0] == np.finfo(float).max
    tiny = PolyCurve([(0, 0, Decimal("5e-324")), (Decimal("1.7e308"), 0, 0), (0, 1, 0)])
    assert tiny.as_array()[0, 2] == 5e-324 and tiny.as_array()[1, 0] == 1.7e308
    assert PolyCurve([(0, 0, Decimal("0e-1000000")), (1, 0, 0), (0, 1, 0)])._scale == 1
    c1, c2 = (c.translated((top // 2, 0, 0)) for c in hopf_link(8))
    assert linking_number_pl(c1, c2) == 1 and writhe_pl(c1) == 0


def test_projection_axis_caches_its_basis_outside_the_fields():
    axis = ProjectionAxis((0.6, 0, 0.8))
    fresh = ProjectionAxis((0.6, 0, 0.8))
    basis = axis._basis
    assert axis._basis is basis and basis == _plane_basis(fresh)
    c1, c2 = hopf_link(8)
    linking_number_pl(c1, c2, axis)
    writhe_pl(c1, axis)
    assert axis == fresh and hash(axis) == hash(fresh) and repr(axis) == repr(fresh)
    assert axis._fields == ("direction",)
    assert "_basis" not in repr(axis)


def test_connected_sum_equals_the_curve_built_through_fractions():
    meridian = circle((2, 0, 0), 0.8, (0, 1, 0), n=24, phase=0.1)
    far = circle((8, 0, 0), 0.8, (0, 1, 0), n=24, phase=0.2).translated(
        (Fraction(1, 3), 0, 0))
    joined = connected_sum_pl(meridian, far, band=(6, 18))
    a, b = meridian.vertices, far.vertices
    reference = _through_fractions(a[6:] + a[:6] + b[18:] + b[:18])
    assert joined == reference and hash(joined) == hash(reference)
    assert (joined._scale, joined._grid) == (reference._scale, reference._grid)
