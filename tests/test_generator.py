import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from haefliger import generator
from haefliger.diagram import LiftId, pair_key
from haefliger.errors import InvalidParams, ParseError
from haefliger.generator import (
    DEFAULT_PARAMS,
    HOPF_PAIRS,
    BorromeanParams,
    LabeledCurve,
    generator_diagram,
    generator_double_point_curves,
    verify_generator,
)


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
        (lambda: BorromeanParams(alpha=4, beta=1, k=0), InvalidParams),
        (lambda: generator_diagram("1"), ParseError),
        (lambda: generator_diagram(True), ParseError),
        (lambda: generator_double_point_curves(n=2.5), InvalidParams),
        (lambda: generator_double_point_curves(n="64"), InvalidParams),
        (lambda: generator_double_point_curves(n=2), InvalidParams),
        (lambda: verify_generator(n=0), InvalidParams),
        (lambda: verify_generator(n=None), InvalidParams),
    ],
    ids=["alpha nan", "alpha inf", "alpha str", "beta bool", "alpha None", "k str",
         "k float", "k 0", "diagram k str", "diagram k bool", "n float", "n str",
         "n 2", "verify n 0", "verify n None"],
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
    with pytest.raises(InvalidParams):
        generator_diagram(0)


def test_hopf_pairs_cover_all_crossings():
    lifts = [lift for a, b, _ in HOPF_PAIRS for lift in (a, b)]
    assert len(lifts) == len(set(lifts)) == 12
    spheres = [s for _, _, s in HOPF_PAIRS]
    assert sorted(spheres) == ["X", "X", "Y", "Y", "Z", "Z"]


def test_curves_only_for_k1():
    with pytest.raises(InvalidParams):
        generator_double_point_curves(BorromeanParams(alpha=4, beta=1, k=2))


def test_curve_geometry():
    params = DEFAULT_PARAMS
    alpha, beta = float(params.alpha), float(params.beta)
    diagonal = beta / np.sqrt(2.0)
    offsets = {"X": 0.0, "Y": 8.0 * alpha, "Z": 16.0 * alpha}
    labeled = generator_double_point_curves(params, n=48)
    assert len(labeled) == 12
    assert sorted(c.lift for c in labeled) == sorted(
        LiftId(i, e) for i in range(1, 7) for e in (0, 1)
    )
    for entry in labeled:
        pts = entry.curve.as_array()
        assert len(pts) == 48
        pts = pts - np.array([offsets[entry.sphere], 0.0, 0.0])
        # Face coordinates of the solid torus: angle, then disc point
        # (radial distance minus ring radius, height).
        radial = np.hypot(pts[:, 0], pts[:, 1]) - 2.0 * alpha
        height = pts[:, 2]
        disc = np.stack([radial, height], axis=1)
        if disc.std(axis=0).max() < 1e-9:
            # Fiber: fixed disc point at +-(diagonal, diagonal).
            assert np.allclose(np.abs(disc[0]), [diagonal, diagonal])
        else:
            # Cross-section: a radius-beta circle about +-(diagonal,
            # diagonal) in one disc slice, so the angle is constant.
            theta = np.arctan2(pts[:, 1], pts[:, 0])
            assert np.allclose(theta, theta[0], atol=1e-9)
            center = disc.mean(axis=0)
            assert np.allclose(np.abs(center), [diagonal, diagonal], atol=1e-9)
            assert np.allclose(
                np.hypot(*(disc - center).T), beta, atol=1e-9
            )


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
