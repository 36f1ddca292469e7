"""Linking numbers and writhes of closed oriented polylines in R^3.

Two routes to the linking number are provided and cross-checked in the
test suite:

* ``linking_matrix`` -- half the exact signed crossing count of each pair
  of a curve set in one projection, its axis tilted infinitesimally so
  that none is refused; ``linking_number_pl`` is its two-curve case.
* ``gauss_linking_quadrature`` -- midpoint-rule evaluation of the Gauss
  double integral, floating point.

Both refuse curves that meet (CurvesIntersect); the crossing predicate
decides it exactly on the candidate pairs whose projected boxes touch,
since segments that meet in R^3 meet in projection too.  The exact
predicates are division-free and run on one integer grid for all curves
of a call (the lcm of their denominators; a power of two for float
input).  A curve stores its vertices as such a grid, built once when it
is constructed; its ``Fraction`` vertices and its float array are made on
first use.  A grid the library makes itself (the generator's integer
circles, a reversed or moved curve) goes onto the curve as it is, with
no coordinate read again.

Every real input of the geometric layer, from a vertex coordinate to the
generator's radii, is read by one rule, ``_ratio``; anything it refuses
(a bool, a string, None, np.float32) raises ParseError, never coerced.
So does a linking number or writhe asked of something other than a
``PolyCurve``, or along something other than a ``ProjectionAxis``.

Crossings are counted in one place, ``_crossing_sums``: the signed count
of each pair of a curve set, or of one curve's own crossings.  Its
candidates come from one of two finders, which keep the same pairs that
touch and so give the same results.  A call that compares at most
``_DENSE_PAIRS`` = 1024 segment pairs (n*m for two curves, the sum of
n_i*n_j over the pairs of a set, n(n-1)/2 for a writhe) compares every
pair's integer projected boxes, in pure Python with no float and no
margin.  The bound is there because importing numpy costs a fresh process
about 100 ms, far more than such a call takes either way, while above it
the dense comparison soon costs more than numpy's sweep.  A larger call
uses floats only in a box prefilter, one numpy sort-and-sweep over the
projections of every segment of the set.

``writhe_pl`` is the one-curve count: the same finders and predicate along
the same tilted axis, so no projection is refused anywhere, with the
adjacent segment pairs left out.  Whether a curve folds back along an
edge is a fact of the curve alone, decided on its first writhe and cached.

numpy is imported only inside the four float functions: ``_array``,
``_box_pairs``, ``_resample`` and ``gauss_linking_quadrature``.  Building
and writing curves needs none of it, so ``import haefliger``, the
pure-arithmetic commands and the linking numbers and writhes of small
curves never load it.

Crossing sign convention: the sign of a crossing is the orientation of
the frame (over-strand tangent, under-strand tangent, projection axis),
fixed so that the standard positively-oriented Hopf link has linking
number +1.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, repeat
from math import cos, gcd, inf, lcm, pi, sin, sqrt
from numbers import Rational
from typing import TYPE_CHECKING, Iterable, Sequence

from ._record import Record
from .errors import CurvesIntersect, HaefligerError, InvalidParams, ParseError

if TYPE_CHECKING:
    import numpy as np

# A vertex on a call's integer grid, as the exact predicates take it.
Vec3 = tuple[int, int, int]
Segment = tuple[Vec3, Vec3]
# A segment's ends on its curve's grid, and the factor onto the call's.
GridSegment = tuple[Vec3, Vec3, int]

_MEET = "curves meet in R^3; not a valid link"

# The most segment pairs a call compares without numpy (see the module
# docstring).
_DENSE_PAIRS = 1024


def _ratio(x) -> tuple[int, int]:
    """The one number rule: a non-bool int, a float (numpy's float64
    included), a ``numbers.Rational`` (Fraction, numpy integers) or a
    ``Decimal``, finite and in the float range (the float prefilter needs
    every coordinate as a float, and a nonzero one as a nonzero float), as
    a reduced (numerator, denominator > 0) of Python ints; ParseError
    otherwise.  A Decimal's exponent is judged before its ratio is built."""
    # Fraction is a Rational too; named first, it skips the slower ABC check.
    if isinstance(x, (int, float, Fraction, Decimal, Rational)) and not isinstance(x, bool):
        try:
            if isinstance(x, Decimal) and x and not -324 <= x.adjusted() <= 308:
                raise OverflowError
            if isinstance(x, (float, Decimal)):
                n, d = x.as_integer_ratio()
            else:  # a Rational, in lowest terms; int() unwraps numpy integers
                n, d = int(x.numerator), int(x.denominator)
            if n / d or not n:  # OverflowError above the float range, 0.0 below it
                return n, d
        except (ValueError, OverflowError):  # NaN, an infinity, out of range
            pass
    raise ParseError(f"{x!r} is not a non-bool int, float, Rational or Decimal in float range")


def _point(value) -> list[tuple[int, int]]:
    """Three coordinates, each read by ``_ratio``; ParseError otherwise."""
    try:
        x, y, z = value
        return [_ratio(x), _ratio(y), _ratio(z)]
    except (TypeError, ValueError, ParseError) as exc:  # no triple, a bad number
        raise ParseError(f"bad point {value!r}: {exc}") from None


class PolyCurve(Record):
    """Closed oriented polyline; the vertex list is implicitly closed.

    Coordinates are held exactly, as one integer grid: the scale D (the lcm
    of the coordinates' reduced denominators) and every vertex times D as
    an int triple, so crossing predicates are error-free.  The grid is
    canonical, so equality and hashing run on it and agree with comparing
    the rational vertices.  Every coordinate given to the constructor is
    read by ``_ratio``; a point of three floats is read inline, without a
    call per coordinate (a grid the library made itself skips the reading:
    ``_from_grid``).  A bad point raises ParseError("[i]: bad point ..."),
    i its index.  ``vertices`` (as Fractions), the float array and whether
    the curve folds back along an edge are decided on first use and cached
    outside the fields.
    """

    _scale: int
    _grid: tuple[Vec3, ...]
    _fields = ("_scale", "_grid")
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached conversions

    def __init__(self, points: Iterable) -> None:
        ratios = []
        point = points  # until a point is read, a failure is the list's own
        try:
            for point in points:
                x, y, z = point
                if isinstance(x, float) and isinstance(y, float) and isinstance(z, float):
                    ratios += (x.as_integer_ratio(), y.as_integer_ratio(),
                               z.as_integer_ratio())
                else:
                    ratios += (_ratio(x), _ratio(y), _ratio(z))
        except (TypeError, ValueError, OverflowError, ParseError) as exc:  # no triple, a bad number
            at = "" if point is points else f"[{len(ratios) // 3}]: "
            raise ParseError(f"{at}bad point {point!r}: {exc}") from exc
        dens = {d for _, d in ratios}
        scale = lcm(*dens)
        factor = {d: scale // d for d in dens}
        ints = [n * factor[d] for n, d in ratios]
        self._assign(scale, tuple(zip(ints[0::3], ints[1::3], ints[2::3])))

    @classmethod
    def _from_grid(cls, scale: int, grid: tuple[Vec3, ...]) -> PolyCurve:
        """A curve of a grid that library code made itself, never of user
        input.  Its contract: ``scale`` is a positive int, ``grid`` a tuple
        of int triples, gcd(scale, every coordinate) = 1 (the canonical
        grid), and every coordinate over ``scale`` is a number ``_ratio``
        accepts.  Only the vertex count and coinciding neighbours are
        checked, as the constructor checks them."""
        curve = object.__new__(cls)
        curve._assign(scale, grid)
        return curve

    def _assign(self, scale: int, grid: tuple[Vec3, ...]) -> None:
        if len(grid) < 3:
            raise ParseError("a closed curve needs at least 3 vertices")
        for a, b in zip(grid, grid[1:] + grid[:1]):
            if a == b:
                raise ParseError("consecutive vertices coincide")
        self._set(scale, grid)

    def __repr__(self) -> str:
        return f"PolyCurve(vertices={self.vertices!r})"

    def __reduce__(self):
        # The constructor takes points, not the grid.
        return type(self), (self.vertices,)

    def __len__(self) -> int:
        return len(self._grid)

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """The vertices as exact Fractions, made once on first use."""
        d = self._scale
        return tuple(
            (Fraction(x, d), Fraction(y, d), Fraction(z, d)) for x, y, z in self._grid
        )

    def reversed(self) -> "PolyCurve":
        return PolyCurve._from_grid(self._scale, self._grid[::-1])

    def translated(self, offset) -> "PolyCurve":
        """The curve moved by ``offset``, read by ``_ratio``.  The shifted
        grid is made canonical again, and its largest and smallest nonzero
        coordinates are read by ``_ratio`` too, so a moved coordinate
        beyond the float range, or nonzero with a float of 0.0, raises
        ParseError as it would at construction."""
        ratios = _point(offset)
        scale = lcm(self._scale, *(d for _, d in ratios))
        f = scale // self._scale
        dx, dy, dz = (n * (scale // d) for n, d in ratios)
        grid = [(x * f + dx, y * f + dy, z * f + dz) for x, y, z in self._grid]
        sizes = [abs(x) for p in grid for x in p]
        g = gcd(scale, *sizes)
        if g > 1:
            scale //= g
            grid = [(x // g, y // g, z // g) for x, y, z in grid]
        for size in (max(sizes), min(x for x in sizes if x)):
            _ratio(Fraction(size // g, scale))
        return PolyCurve._from_grid(scale, tuple(grid))

    def as_array(self) -> np.ndarray:
        """The vertices as an (n, 3) float array, converted once and read-only."""
        return self._array

    @cached_property
    def _array(self) -> np.ndarray:
        # int / int rounds once, so each float is the coordinate's nearest.
        import numpy as np

        d = self._scale
        floats = np.array([x / d for p in self._grid for x in p]).reshape(-1, 3)
        floats.flags.writeable = False
        return floats

    @cached_property
    def _folds_back(self) -> bool:
        """Whether two adjacent edges overlap, the curve turning back along
        an edge; a fact of the curve alone, so walked once."""
        grid = self._grid
        for p0, p1, p2 in zip(grid, grid[1:] + grid[:1], grid[2:] + grid[:2]):
            d1, d2 = _sub(p1, p0), _sub(p2, p1)
            if _cross(d1, d2) == (0, 0, 0) and _dot(d1, d2) < 0:
                return True
        return False


class ProjectionAxis(Record):
    """Any nonzero direction along which curves are projected, kept
    exactly as given (a zero one raises ParseError).  Only the direction
    is read, so (0, 0, 2) projects as (0, 0, 1) does.

    Its integer plane basis is computed on first use and cached outside
    the fields, so equality, hashing and repr see only ``direction``.
    """

    direction: tuple[Fraction, Fraction, Fraction]
    _fields = ("direction",)
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached basis

    def __init__(self, direction) -> None:
        d = tuple(Fraction(n, q) for n, q in _point(direction))
        if not any(d):
            raise ParseError(f"axis direction {direction} is zero")
        self._set(d)

    @cached_property
    def _basis(self) -> tuple[Vec3, Vec3, Vec3]:
        return _plane_basis(self)


EZ = ProjectionAxis((0, 0, 1))


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Vec3, b: Vec3) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _plane_basis(axis: ProjectionAxis) -> tuple[Vec3, Vec3, Vec3]:
    """Right-handed integer basis (u, v, w): w the direction scaled to
    integers, u = e_i x w for the unit vector e_i of w's smallest
    component, and v = w x u.  Only signs are consumed downstream, and a
    positive multiple of the direction gives a positive multiple of each
    vector, so it projects alike."""
    d = axis.direction
    scale = lcm(*(x.denominator for x in d))
    w = tuple(x.numerator * (scale // x.denominator) for x in d)
    i = min(range(3), key=lambda t: abs(w[t]))
    u = _cross(tuple(int(t == i) for t in range(3)), w)
    return u, _cross(w, u), w


def _sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _segments_meet(seg1: Segment, seg2: Segment) -> bool:
    """Whether two closed 3D segments share a point, decided exactly.

    Both segments must have distinct endpoints.  Skew, crossing,
    parallel and collinear-overlap configurations are all covered.
    """
    p0, p1 = seg1
    q0, q1 = seg2
    d1, d2, r = _sub(p1, p0), _sub(q1, q0), _sub(q0, p0)
    normal = _cross(d1, d2)
    if normal == (0, 0, 0):
        if _cross(r, d1) != (0, 0, 0):
            return False  # parallel, on distinct lines
        # Collinear: compare the intervals along d1, p spanning [0, |d1|^2].
        t0, t1 = _dot(r, d1), _dot(_sub(q1, p0), d1)
        return max(min(t0, t1), 0) <= min(max(t0, t1), _dot(d1, d1))
    if _dot(r, normal) != 0:
        return False  # skew
    # Coplanar lines meeting at p0 + s*d1 = q0 + t*d2, with s and t
    # scaled by |normal|^2 > 0.
    scale = _dot(normal, normal)
    s = _dot(_cross(r, d2), normal)
    t = _dot(_cross(r, d1), normal)
    return 0 <= s <= scale and 0 <= t <= scale


def _dets(d1: Vec3, d2: Vec3, r: Vec3, a) -> tuple:
    """det(d1, d2, a), det(r, d2, a) and det(r, d1, a)."""
    c1, c2 = _cross(d1, a), _cross(d2, a)
    return _dot(d1, c2), _dot(r, c2), _dot(r, c1)


def _segment_crossings(seg1: Segment, seg2: Segment, basis) -> int:
    """Sign (+1 or -1) of the crossing of two projected segments, 0 if they miss.

    Along a = w + e*u + e^2*v, e > 0 infinitesimal ("Simulation of
    Simplicity", Edelsbrunner and Muecke, 1990), they meet at S/D on seg1
    and T/D on seg2, for D = det(d1, d2, a), S = det(r, d2, a) and
    T = det(r, d1, a); the sign is -sign det(d1, d2, r).  Raises
    CurvesIntersect iff the segments meet in R^3; otherwise a vertex over
    the other segment along w is decided by the e, then e^2 entries.
    Division-free: it runs in integers.
    """
    (p0, p1), (q0, q1) = seg1, seg2
    d1, d2, r = _sub(p1, p0), _sub(q1, q0), _sub(q0, p0)
    den, s, t = _dets(d1, d2, r, basis[2])
    if den == 0:
        if _segments_meet(seg1, seg2):
            raise CurvesIntersect(_MEET)
        return 0
    sign = 1 if den > 0 else -1
    den, s, t = sign * den, sign * s, sign * t
    if s < 0 or s > den or t < 0 or t > den:
        return 0
    if s == 0 or s == den or t == 0 or t == den:
        if _segments_meet(seg1, seg2):
            raise CurvesIntersect(_MEET)
        # As e -> 0+, each has the sign of its first nonzero (w, u, v) entry.
        D, S, T = zip((den, s, t), *([sign * x for x in _dets(d1, d2, r, a)] for a in basis[:2]))
        if min(S, T, _sub(D, S), _sub(D, T)) <= (0, 0, 0):
            return 0
    side = _dot(r, _cross(d1, d2))
    if side == 0:
        raise CurvesIntersect(_MEET)
    return -1 if side > 0 else 1


def _on_one_grid(curves: Sequence[PolyCurve]) -> list[GridSegment]:
    """Every segment of the curves, in order, as its two ends on its
    curve's grid and the factor that puts them on the lcm of the curves'
    grids (a power of two for floats); ``_scaled`` applies it, so only the
    segments a call reads are rescaled."""
    scale = lcm(*(c._scale for c in curves))
    segs = []
    for c in curves:
        grid = c._grid
        segs += zip(grid, grid[1:] + grid[:1], repeat(scale // c._scale))
    return segs


def _scaled(seg: GridSegment) -> Segment:
    """The segment's ends on the call's one grid."""
    p, q, f = seg
    if f == 1:
        return p, q
    return (p[0] * f, p[1] * f, p[2] * f), (q[0] * f, q[1] * f, q[2] * f)


def _box_pairs(arrays: Sequence[np.ndarray], basis) -> list[tuple[int, int]]:
    """Pairs a < b of segments whose projected boxes overlap, on distinct
    polylines (or, given one polyline, on it), numbered through the set in
    order.

    Takes (n, 3) float vertex arrays and projects them along ``basis``.
    The boxes' bounds are held as four 1-D columns, low and high along the
    wider axis and across it.  Boxes are sorted by their low end on the
    wider axis and ``searchsorted`` finds the boxes starting inside each,
    so those pairs overlap along it and are compared across it only.  The
    margin, 1e-7 of the set's largest 3D coordinate (the float error of a
    projected point is relative to it, however small its projection),
    keeps every pair whose exact projected boxes touch.
    """
    import numpy as np

    margin = 1e-7 * max(float(np.abs(p).max()) for p in arrays)
    rows = np.array([[x / max(map(abs, vec)) for x in vec] for vec in basis[:2]])
    pts = rows @ np.concatenate(arrays).T  # the (u, v) rows of every vertex
    sizes = [len(p) for p in arrays]
    firsts = np.cumsum(sizes) - sizes
    nxt = np.arange(1, len(pts[0]) + 1)  # each segment's second vertex
    nxt[firsts + sizes - 1] = firsts
    ends = pts[:, nxt]
    lo = np.minimum(pts, ends)
    hi = np.maximum(pts, ends) + margin
    axis = int(np.argmax(hi.max(axis=1) - lo.min(axis=1)))
    order = np.argsort(lo[axis], kind="stable")
    lo_s, hi_s, lo_c, hi_c = (b[k, order] for k in (axis, 1 - axis) for b in (lo, hi))
    after = np.arange(1, len(order) + 1)
    count = np.searchsorted(lo_s, hi_s, side="right") - after
    i = np.repeat(after - 1, count)
    j = np.arange(len(i)) + np.repeat(after - np.cumsum(count) + count, count)
    keep = (lo_c[i] <= hi_c[j]) & (lo_c[j] <= hi_c[i])
    if len(arrays) > 1:
        owner = np.repeat(np.arange(len(arrays)), sizes)[order]
        keep &= owner[i] != owner[j]
    a, b = order[i[keep]], order[j[keep]]
    return list(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def _touching_pairs(
    segs: Sequence[GridSegment], sizes: Sequence[int], basis
) -> list[tuple[int, int]]:
    """Pairs a < b of segments whose exact projected boxes touch, on
    distinct polylines of the given sizes (or, given one size, on it),
    numbered through ``segs`` in order, as ``_box_pairs`` numbers them.

    Every pair is compared.  A box spans u.p and v.p over the segment's
    two ends, in integers on the call's one grid, so no margin is needed.
    """
    (u0, u1, u2), (v0, v1, v2) = basis[:2]
    boxes, firsts = [], []  # firsts: the first segment each one is compared with
    for end, size in zip(accumulate(sizes), sizes):
        ring = [(f * (u0 * x + u1 * y + u2 * z), f * (v0 * x + v1 * y + v2 * z))
                for (x, y, z), _, f in segs[end - size:end]]
        for (a, c), (b, d) in zip(ring, ring[1:] + ring[:1]):
            if b < a:
                a, b = b, a
            if d < c:
                c, d = d, c
            boxes.append((a, b, c, d))
            firsts.append(len(boxes) if len(sizes) == 1 else end)
    pairs = []
    for a, ((lu, hu, lv, hv), first) in enumerate(zip(boxes, firsts)):
        pairs += [
            (a, b) for b, (bu, cu, bv, cv) in enumerate(boxes[first:], first)
            if bu <= hu and lu <= cu and bv <= hv and lv <= cv
        ]
    return pairs


def _crossing_sums(
    curves: Sequence[PolyCurve], axis: ProjectionAxis
) -> dict[tuple[int, int], int]:
    """The signed crossing count of every pair i < j of the curves along
    ``axis``, keyed ``(i, j)``; given one curve, its own count, keyed
    ``(0, 0)``.  The one place where crossings are counted.

    The candidate pairs come from ``_touching_pairs`` for a call of at most
    ``_DENSE_PAIRS`` segment pairs, else from ``_box_pairs``, and the exact
    predicate decides each on the call's one grid.  One curve first refuses
    to fold back along an edge, then drops its adjacent segment pairs,
    which share a vertex, and a meeting pair raises "a curve meets itself
    in R^3".  An axis that is not a ProjectionAxis, or a curve that is not
    a PolyCurve, raises ParseError before anything is read.
    """
    if not isinstance(axis, ProjectionAxis):
        raise ParseError(f"an axis must be a ProjectionAxis, not {axis!r}")
    for curve in curves:
        if not isinstance(curve, PolyCurve):
            raise ParseError(f"a curve must be a PolyCurve, not {curve!r}")
    sizes = [len(c) for c in curves]
    if len(sizes) == 1 and curves[0]._folds_back:
        raise CurvesIntersect("a curve folds back along an edge")
    segs, basis = _on_one_grid(curves), axis._basis
    # The sum of n_i*n_j over the pairs of a set, else n(n-1)/2 for one curve.
    count = (sum(sizes) ** 2 - sum(n * n for n in sizes)) // 2 or len(segs) * (len(segs) - 1) // 2
    if count <= _DENSE_PAIRS:
        pairs = _touching_pairs(segs, sizes, basis)
    else:
        pairs = _box_pairs([c.as_array() for c in curves], basis)
    if len(sizes) == 1:
        pairs = [(a, b) for a, b in pairs if b - a not in (1, len(segs) - 1)]
    owner = [k for k, n in enumerate(sizes) for _ in range(n)]
    totals = dict.fromkeys(combinations(range(len(sizes)), 2), 0) or {(0, 0): 0}
    try:
        for a, b in pairs:
            totals[owner[a], owner[b]] += _segment_crossings(
                _scaled(segs[a]), _scaled(segs[b]), basis)
    except CurvesIntersect:
        raise CurvesIntersect(_MEET if len(sizes) > 1 else "a curve meets itself in R^3") from None
    return totals


def linking_matrix(
    curves: Sequence[PolyCurve], axis: ProjectionAxis = EZ
) -> dict[tuple[int, int], int]:
    """Linking number of every pair i < j of the curves, keyed ``(i, j)``.

    A linking number is half the signed crossing count of its pair, from
    ``_crossing_sums``, which raises CurvesIntersect if any two curves
    meet: segments that meet in R^3 meet in projection, the dense finder
    compares exact boxes, and the sweep's margin, taken from the 3D
    coordinates, covers the float error of projecting them, so no meeting
    pair escapes either finder.  Each curve holds its integer grid from
    construction and converts it to floats once, ever, the first time a
    call is large enough to sweep.  An odd count is a defect of the
    engine, not of the input, and raises HaefligerError.
    """
    if len(curves) < 2:
        return {}
    totals = _crossing_sums(curves, axis)
    if any(total % 2 for total in totals.values()):
        raise HaefligerError("odd signed crossing count of two closed curves")
    return {key: total // 2 for key, total in totals.items()}


def linking_number_pl(m: PolyCurve, n: PolyCurve, axis: ProjectionAxis = EZ) -> int:
    """Linking number as half the signed crossing count of the projection."""
    return linking_matrix([m, n], axis)[0, 1]


def writhe_pl(curve: PolyCurve, axis: ProjectionAxis = EZ) -> int:
    """Writhe: signed count of self-crossings of the projection, the
    one-curve case of ``_crossing_sums``.

    The paper-level half-sum over ordered pairs collapses to a plain sum
    over unordered crossings.  A writhe depends on the axis, so it is
    taken along ``axis`` tilted infinitesimally towards u, then v, of its
    plane basis (for EZ, towards -y first): a vertex over a non-adjacent
    edge gets the value of that tilt.  Non-adjacent edges that meet, and
    adjacent edges that overlap (the curve folds back along an edge, which
    is decided once per curve), raise CurvesIntersect.
    """
    return _crossing_sums([curve], axis)[0, 0]


def _resample(verts: np.ndarray, subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and tangent*dl arrays with roughly `subdivisions` samples."""
    import numpy as np

    per_seg = -(-subdivisions // len(verts))
    t = (np.arange(per_seg) + 0.5) / per_seg
    step = np.roll(verts, -1, axis=0) - verts
    mids = verts[:, None, :] + t[None, :, None] * step[:, None, :]
    return mids.reshape(-1, 3), np.repeat(step / per_seg, per_seg, axis=0)


def gauss_linking_quadrature(
    m: PolyCurve, n: PolyCurve, subdivisions: int = 128
) -> float:
    """Gauss double integral (1/4pi) oint oint det(t1, t2, r) / |r|^3.

    ``subdivisions`` (an int >= 1) is the least number of samples per
    curve; each segment gets the same share, rounded up.
    """
    import numpy as np

    if type(subdivisions) is not int or subdivisions < 1:
        raise InvalidParams(f"subdivisions must be an int >= 1, not {subdivisions!r}")
    linking_matrix([m, n])  # CurvesIntersect unless disjoint
    x1, t1 = _resample(m.as_array(), subdivisions)
    x2, t2 = _resample(n.as_array(), subdivisions)
    r = x1[:, None, :] - x2[None, :, :]
    dist = np.sqrt((r * r).sum(axis=2))
    cross = np.cross(t1[:, None, :], t2[None, :, :])
    integrand = (cross * r).sum(axis=2) / dist**3
    # Fixed summation order for reproducibility.
    return float(integrand.sum()) / (4.0 * np.pi)


def circle(
    center, radius, normal, n: int = 64, phase: float = 0.0
) -> PolyCurve:
    """Regular n-gon approximating a circle with the given plane normal.

    Oriented counterclockwise when viewed from the tip of ``normal``.
    ``n`` must be an int >= 3 (else InvalidParams); ``radius``, ``phase``
    and the three coordinates of ``center`` and ``normal`` are read by
    ``_ratio`` and used as floats.
    """
    if type(n) is not int or n < 3:
        raise InvalidParams(f"n must be an int >= 3, not {n!r}")
    (r, rd), (p, pd) = _ratio(radius), _ratio(phase)
    radius, phase = r / rd, p / pd
    c = [x / d for x, d in _point(center)]
    w = _unit([x / d for x, d in _point(normal)])
    i = min(range(3), key=lambda t: abs(w[t]))
    u = _unit(_cross([float(t == i) for t in range(3)], w))
    v = _cross(w, u)
    points = []
    for k in range(n):
        angle = phase + 2.0 * pi * k / n
        ca, sa = cos(angle), sin(angle)
        points.append([c[t] + radius * (ca * u[t] + sa * v[t]) for t in range(3)])
    return PolyCurve(points)


def _unit(vec: list[float]) -> list[float]:
    x, y, z = vec
    norm = sqrt(x * x + y * y + z * z)
    if not 0 < norm < inf:  # zero, or a float norm that under- or overflows
        raise ParseError(f"a circle needs a normal of nonzero finite float length, not {vec}")
    return [x / norm, y / norm, z / norm]


def curves_to_dict(curves: Sequence[PolyCurve]) -> dict:
    # int / int rounds once, as in the float array, so the floats agree.
    return {"components": [[[x / c._scale for x in p] for p in c._grid] for c in curves]}


def curves_from_dict(data: dict) -> list[PolyCurve]:
    """The curves of a document; a bad point reads ``components[c][i]: ...``."""
    try:
        components = list(data["components"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed curve document: {exc}") from exc
    curves = []
    for c, comp in enumerate(components):
        try:
            curves.append(PolyCurve(comp))
        except ParseError as exc:
            msg = str(exc)
            raise ParseError(f"components[{c}]{'' if msg[0] == '[' else ': '}{msg}") from exc
    return curves
