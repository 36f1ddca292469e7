"""Construction of the order-one generator's crossing data.

The generator of the isotopy classes is a connected sum of three
bidisc-boundary spheres arranged as a Borromean ring.  Its projection
has six crossings whose double point sets pair up into six Hopf links,
two inside each sphere.  ``generator_diagram`` returns that shadow for
any dimension parameter k (the combinatorics is k-independent);
``generator_double_point_curves`` realizes the twelve double point
circles as explicit polylines for k = 1: in each of three spheres, set
apart along x, two fibers of a solid torus, drawn as squares around the
z axis, and two cross-sections, drawn as small squares in meridian
planes.  Every vertex has int coordinates, so the circles are exactly
planar and their linking numbers and writhes are exact.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .diagram import CrossingDiagram, LiftId, _check_k, make_diagram
from .errors import InvalidParams
from .linking import PolyCurve, _ratio, linking_matrix
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

    The radii are read by ``linking._ratio`` (else ParseError), and k is
    an int >= 1 (else ParseError, or IndexOutOfRange for k < 1).
    """

    alpha: Fraction
    beta: Fraction
    k: int
    __slots__ = _fields = ("alpha", "beta", "k")

    def __init__(self, alpha: Fraction, beta: Fraction, k: int = 1) -> None:
        alpha, beta = Fraction(*_ratio(alpha)), Fraction(*_ratio(beta))
        _check_k(k)
        if alpha <= 0 or beta <= 0 or 2 * beta >= alpha:
            raise InvalidParams(
                f"need 0 < 2*beta < alpha, got alpha={alpha}, beta={beta}"
            )
        self._set(alpha, beta, k)


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


def _loop(corners: list[tuple[int, int, int]], h: int) -> PolyCurve:
    """The closed polyline through the corners, each edge split into h
    equal integer steps (every edge vector must be divisible by h)."""
    points = []
    for (x, y, z), (x1, y1, z1) in zip(corners, corners[1:] + corners[:1]):
        dx, dy, dz = (x1 - x) // h, (y1 - y) // h, (z1 - z) // h
        points += [(x + t * dx, y + t * dy, z + t * dz) for t in range(h)]
    return PolyCurve._from_grid(1, tuple(points))


def generator_double_point_curves(
    params: BorromeanParams = DEFAULT_PARAMS, n: int = 64
) -> list[LabeledCurve]:
    """Twelve labeled polyline circles realizing the double point sets.

    Coordinates are ints in units of 1/s, s = lcm(denominators of alpha
    and beta) * n/2.  Each sphere holds two fibers, the squares of
    half-side 2*alpha +- beta around the z axis at height +-beta, and two
    cross-sections, squares of half-diagonal beta tilted 45 degrees in
    the planes y = +-1 (one unit), each about the point one unit outside
    where its fiber's edge crosses that plane.  Every edge is split into
    n/4 equal steps, so n, a positive multiple of 4, is the number of
    vertices per circle.  Fiber vertices have even coordinates and
    section vertices odd x and y, so along EZ no vertex lies over another
    circle's edge.  Orientations are pinned so every Hopf pair carries
    linking number +1.
    """
    if params.k != 1:
        raise InvalidParams("explicit curves are only constructed for k = 1")
    if type(n) is not int or n < 4 or n % 4:
        raise InvalidParams(f"n must be a positive multiple of 4, not {n!r}")
    alpha, beta = params.alpha, params.beta
    h = n // 4
    # d * (d' / gcd(d, d')) is lcm(d, d') without math, which stays out
    # of this module.
    d = alpha.denominator
    s = d * Fraction(d, beta.denominator).denominator * 2 * h
    a, b = int(alpha * s), int(beta * s)
    # No coordinate is larger than sphere Z's outermost section corner,
    # so reading that one by the number rule keeps every one in range.
    _ratio(18 * a + 2 * b + 1)

    def fiber(sign: int, ox: int) -> PolyCurve:
        r, z = 2 * a + sign * b, sign * b
        return _loop([(ox + r, -r, z), (ox + r, r, z),
                      (ox - r, r, z), (ox - r, -r, z)], h)

    def section(sign: int, ox: int) -> PolyCurve:
        # Centred one unit outside the fiber's edge x = sign * r; ordered so
        # every Hopf pair computes to +1, pinning the global sign convention.
        r, z = 2 * a + sign * b, sign * b
        x, dx = ox + sign * (r + 1), sign * b
        return _loop([(x, sign, z - b), (x - dx, sign, z),
                      (x, sign, z + b), (x + dx, sign, z)], h)

    # (lift, sphere, builder, sign): the plus pair sits at disc point
    # (+beta, +beta), the minus pair at (-beta, -beta), on opposite sides.
    spec = [
        (LiftId(1, 1), "X", fiber, 1),
        (LiftId(2, 0), "X", fiber, -1),
        (LiftId(6, 1), "X", section, 1),
        (LiftId(5, 0), "X", section, -1),
        (LiftId(3, 1), "Y", fiber, 1),
        (LiftId(4, 0), "Y", fiber, -1),
        (LiftId(2, 1), "Y", section, 1),
        (LiftId(1, 0), "Y", section, -1),
        (LiftId(5, 1), "Z", fiber, 1),
        (LiftId(6, 0), "Z", fiber, -1),
        (LiftId(4, 1), "Z", section, 1),
        (LiftId(3, 0), "Z", section, -1),
    ]
    offsets = {"X": 0, "Y": 8 * a, "Z": 16 * a}
    return [
        LabeledCurve(lift=lift, sphere=sphere, curve=build(sign, offsets[sphere]))
        for lift, sphere, build, sign in spec
    ]


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
