"""Construction of the order-one generator's crossing data.

The generator of the isotopy classes is a connected sum of three
bidisc-boundary spheres arranged as a Borromean ring.  Its projection
has six crossings whose double point sets pair up into six Hopf links,
two inside each sphere.  ``generator_diagram`` returns that shadow for
any dimension parameter k (the combinatorics is k-independent);
``generator_double_point_curves`` realizes the twelve double point
circles as explicit polylines for k = 1, with each sphere's relevant
solid-torus face embedded standardly in R^3 at three separated sites.
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, pi, sin, sqrt

from ._record import Record
from .diagram import CrossingDiagram, LiftId, make_diagram
from .errors import InvalidParams, ParseError
from .linking import PolyCurve, linking_matrix
from .calculus import delta_h_reduced

# The six Hopf-linked pairs of double point components, grouped by the
# sphere containing them.
HOPF_PAIRS: tuple[tuple[LiftId, LiftId, str], ...] = (
    (LiftId(1, 1), LiftId(6, 1), "X"),
    (LiftId(2, 0), LiftId(5, 0), "X"),
    (LiftId(1, 0), LiftId(4, 0), "Y"),
    (LiftId(2, 1), LiftId(3, 1), "Y"),
    (LiftId(3, 0), LiftId(6, 0), "Z"),
    (LiftId(4, 1), LiftId(5, 1), "Z"),
)


class BorromeanParams(Record):
    """Radii of the Borromean bidisc spheres; requires 2*beta < alpha.

    A radius is any finite number ``Fraction`` takes but a string or a
    bool, and k an int >= 1 (else ParseError, or InvalidParams for k < 1).
    """

    alpha: Fraction
    beta: Fraction
    k: int
    __slots__ = _fields = ("alpha", "beta", "k")

    def __init__(self, alpha: Fraction, beta: Fraction, k: int = 1) -> None:
        alpha, beta = _radius("alpha", alpha), _radius("beta", beta)
        _check_k(k)
        if alpha <= 0 or beta <= 0 or 2 * beta >= alpha:
            raise InvalidParams(
                f"need 0 < 2*beta < alpha, got alpha={alpha}, beta={beta}"
            )
        self._set(alpha, beta, k)


def _radius(name: str, value) -> Fraction:
    if not isinstance(value, (str, bool)):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):  # None, NaN, an infinity
            pass
    raise ParseError(f"{name} must be a finite number, not {value!r}")


def _check_k(k) -> None:
    if type(k) is not int:
        raise ParseError(f"k must be an int, not {k!r}")
    if k < 1:
        raise InvalidParams("k must be a positive integer")


DEFAULT_PARAMS = BorromeanParams(alpha=4, beta=1, k=1)


def generator_diagram(k: int) -> CrossingDiagram:
    """Six-crossing diagram with the six unit Hopf entries (all +1)."""
    _check_k(k)
    return make_diagram(
        k=k, m=6, lk=[(a, b, 1) for a, b, _ in HOPF_PAIRS]
    )


class LabeledCurve(Record):
    """A double point circle with its lift label and ambient sphere."""

    lift: LiftId
    sphere: str
    curve: PolyCurve
    __slots__ = _fields = ("lift", "sphere", "curve")

    def __init__(self, lift: LiftId, sphere: str, curve: PolyCurve) -> None:
        self._set(lift, sphere, curve)


Point2 = tuple[float, float]


def _torus_embed(
    face: list[tuple[float, Point2]], ring_radius: float,
    offset: tuple[float, float, float],
) -> PolyCurve:
    """Embed face coordinates (angle, disc point) as a solid torus in R^3."""
    ox, oy, oz = offset
    return PolyCurve([
        ((ring_radius + a) * cos(theta) + ox, (ring_radius + a) * sin(theta) + oy, b + oz)
        for theta, (a, b) in face
    ])


def _fiber(d0: Point2, ring_radius, offset, n) -> PolyCurve:
    face = [(2.0 * pi * (t + 0.31) / n, d0) for t in range(n)]
    return _torus_embed(face, ring_radius, offset)


def _cross_section(theta0, center: Point2, radius, ring_radius, offset, n) -> PolyCurve:
    c0, c1 = center
    # Reversed so every Hopf pair computes to +1, pinning the global sign
    # convention.
    psis = [2.0 * pi * (t + 0.17) / n for t in reversed(range(n))]
    face = [(theta0, (c0 + radius * cos(psi), c1 + radius * sin(psi))) for psi in psis]
    return _torus_embed(face, ring_radius, offset)


def generator_double_point_curves(
    params: BorromeanParams = DEFAULT_PARAMS, n: int = 64
) -> list[LabeledCurve]:
    """Twelve labeled polyline circles realizing the double point sets.

    Each circle is either a fiber of its sphere's solid-torus face
    (angle coordinate runs around the torus) or a cross-section circle
    in one disc slice.  Orientations are pinned so every Hopf pair
    carries linking number +1.
    """
    if params.k != 1:
        raise InvalidParams("explicit curves are only constructed for k = 1")
    if type(n) is not int or n < 3:
        raise InvalidParams(f"n must be an int >= 3, not {n!r}")
    alpha = float(params.alpha)
    beta = float(params.beta)
    bp = beta / sqrt(2.0)  # offset magnitude along the diagonal direction
    plus, minus = (bp, bp), (-bp, -bp)
    ring = 2.0 * alpha
    offsets = {
        "X": (0.0, 0.0, 0.0),
        "Y": (8.0 * alpha, 0.0, 0.0),
        "Z": (16.0 * alpha, 0.0, 0.0),
    }
    quarter = pi / 4.0

    # (lift, sphere, kind, placement); fibers sit at a disc point, cross
    # sections at an angle with a disc-circle center.
    spec: list[tuple[LiftId, str, str, Point2, float]] = [
        (LiftId(1, 1), "X", "fiber", plus, 0.0),
        (LiftId(2, 0), "X", "fiber", minus, 0.0),
        (LiftId(6, 1), "X", "section", plus, quarter),
        (LiftId(5, 0), "X", "section", minus, quarter + pi),
        (LiftId(3, 1), "Y", "fiber", plus, 0.0),
        (LiftId(4, 0), "Y", "fiber", minus, 0.0),
        (LiftId(2, 1), "Y", "section", plus, quarter),
        (LiftId(1, 0), "Y", "section", minus, quarter + pi),
        (LiftId(5, 1), "Z", "fiber", plus, 0.0),
        (LiftId(6, 0), "Z", "fiber", minus, 0.0),
        (LiftId(4, 1), "Z", "section", plus, quarter),
        (LiftId(3, 0), "Z", "section", minus, quarter + pi),
    ]
    out = []
    for lift, sphere, kind, place, angle in spec:
        if kind == "fiber":
            curve = _fiber(place, ring, offsets[sphere], n)
        else:
            curve = _cross_section(angle, place, beta, ring, offsets[sphere], n)
        out.append(LabeledCurve(lift=lift, sphere=sphere, curve=curve))
    return out


class GeneratorReport(Record):
    """End-to-end verification of the generator's linking data.

    ``linking_matrix`` keys are canonical ``pair_key`` pairs; zeros are left out.
    """

    linking_matrix: dict[tuple[LiftId, LiftId], int]
    matches_diagram: bool
    h_value: Fraction
    singleton_deltas: dict[int, Fraction]
    __slots__ = _fields = (
        "linking_matrix", "matches_diagram", "h_value", "singleton_deltas")

    def __init__(self, linking_matrix: dict[tuple[LiftId, LiftId], int],
                 matches_diagram: bool, h_value: Fraction,
                 singleton_deltas: dict[int, Fraction]) -> None:
        self._set(linking_matrix, matches_diagram, h_value, singleton_deltas)


def verify_generator(
    params: BorromeanParams = DEFAULT_PARAMS, n: int = 64
) -> GeneratorReport:
    """Build the diagram of the k=1 circles and compare it with the generator's.

    One ``linking_matrix`` call gives all 66 pairwise linking numbers.
    ``matches_diagram`` reports whether the diagram they build equals
    ``generator_diagram(1)`` up to a global sign; nothing is raised on a
    mismatch.  ``h_value`` and ``singleton_deltas`` are that diagram's
    single-crossing Δh, so they follow the curves.
    """
    curves = generator_double_point_curves(params, n)
    lk = linking_matrix([c.curve for c in curves])
    built = make_diagram(
        k=1,
        m=6,
        lk=[(curves[i].lift, curves[j].lift, v) for (i, j), v in lk.items()],
    )
    expected = generator_diagram(1).lk
    deltas = {i: delta_h_reduced(built, {i}) for i in range(1, 7)}
    return GeneratorReport(
        linking_matrix=dict(built.lk),
        matches_diagram=built.lk in (expected, {a: -v for a, v in expected.items()}),
        h_value=deltas[1],
        singleton_deltas=deltas,
    )
