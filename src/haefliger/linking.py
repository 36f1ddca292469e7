"""Linking numbers and writhes of closed oriented polylines in R^3.

Two routes to the linking number are provided and cross-checked in the
test suite:

* ``linking_matrix`` -- exact signed crossing count of a generic
  projection for every pair of a curve set, computed with rational
  arithmetic (half the signed sum of inter-curve crossings);
  ``linking_number_pl`` is its two-curve case.
* ``gauss_linking_quadrature`` -- midpoint-rule evaluation of the Gauss
  double integral, floating point.

Both first decide exactly, in rational arithmetic, that the curves are
pairwise disjoint; floats only serve a bounding-box prefilter that picks
the segment pairs the exact predicates look at.

numpy is imported inside the float functions, not at module level, so
``import haefliger`` and the pure-arithmetic commands never load it.

Crossing sign convention: the sign of a crossing is the orientation of
the frame (over-strand tangent, under-strand tangent, projection axis),
fixed so that the standard positively-oriented Hopf link has linking
number +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite, sqrt
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    BandObstructed,
    CurvesIntersect,
    NonGenericProjection,
    ParseError,
)

if TYPE_CHECKING:
    import numpy as np

Vec3 = tuple[Fraction, Fraction, Fraction]
Segment = tuple[Vec3, Vec3]


def _to_vec3(point) -> Vec3:
    x, y, z = point
    try:
        return (Fraction(x), Fraction(y), Fraction(z))
    except (ValueError, OverflowError) as exc:  # NaN, an infinity, a bad string
        raise ParseError(f"bad point {point!r}: {exc}") from exc


@dataclass(frozen=True)
class PolyCurve:
    """Closed oriented polyline; the vertex list is implicitly closed.

    Coordinates are held exactly (as rationals) so that crossing
    predicates are error-free.
    """

    vertices: tuple[Vec3, ...]

    def __init__(self, points: Iterable) -> None:
        verts = tuple(_to_vec3(p) for p in points)
        if len(verts) < 3:
            raise ParseError("a closed curve needs at least 3 vertices")
        for a, b in zip(verts, verts[1:] + verts[:1]):
            if a == b:
                raise ParseError("consecutive vertices coincide")
        object.__setattr__(self, "vertices", verts)

    def __len__(self) -> int:
        return len(self.vertices)

    def segments(self) -> list[tuple[Vec3, Vec3]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def reversed(self) -> "PolyCurve":
        return PolyCurve(tuple(reversed(self.vertices)))

    def translated(self, offset) -> "PolyCurve":
        dx, dy, dz = _to_vec3(offset)
        return PolyCurve(
            tuple((x + dx, y + dy, z + dz) for x, y, z in self.vertices)
        )

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.vertices, dtype=float)


@dataclass(frozen=True)
class ProjectionAxis:
    """Unit direction along which curves are projected."""

    direction: Vec3

    def __init__(self, direction) -> None:
        d = _to_vec3(direction)
        norm2 = float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        if abs(sqrt(norm2) - 1.0) > 1e-12:
            raise ParseError(f"axis direction {direction} is not unit length")
        object.__setattr__(self, "direction", d)


EZ = ProjectionAxis((0, 0, 1))


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Vec3, b: Vec3) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _plane_basis(axis: ProjectionAxis) -> tuple[Vec3, Vec3, Vec3]:
    """Rational basis (u, v, w) with w the axis and (u, v, w) right-handed.

    u and v are orthogonal to w but not normalized; only orientation
    signs are consumed downstream, so scaling is irrelevant.
    """
    w = axis.direction
    i = min(range(3), key=lambda t: abs(w[t]))
    e = tuple(Fraction(int(t == i)) for t in range(3))
    u = _cross(e, w)
    v = _cross(w, u)
    return u, v, w


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


def _segment_crossings(seg1: Segment, seg2: Segment, basis) -> int:
    """Sign (+1 or -1) of the crossing of two projected segments, 0 if they miss.

    Raises NonGenericProjection on parallel overlaps, endpoint
    touchings, or a segment projecting to a point; raises
    CurvesIntersect if the preimages meet in R^3.
    """
    u, v, w = basis
    p0, p1 = seg1
    q0, q1 = seg2
    d1, d2 = _sub(p1, p0), _sub(q1, q0)
    a1 = (_dot(d1, u), _dot(d1, v))
    a2 = (_dot(d2, u), _dot(d2, v))
    if a1 == (0, 0) or a2 == (0, 0):
        raise NonGenericProjection("segment parallel to projection axis")
    denom = a1[0] * a2[1] - a1[1] * a2[0]
    r = (
        _dot(q0, u) - _dot(p0, u),
        _dot(q0, v) - _dot(p0, v),
    )
    if denom == 0:
        # Parallel projections: collinear overlap is degenerate.
        if r[0] * a1[1] == r[1] * a1[0]:
            raise NonGenericProjection("collinear projected segments")
        return 0
    s = Fraction(r[0] * a2[1] - r[1] * a2[0], denom)
    t = Fraction(r[0] * a1[1] - r[1] * a1[0], denom)
    if s <= 0 or s >= 1 or t <= 0 or t >= 1:
        if (0 <= s <= 1 and t in (0, 1)) or (0 <= t <= 1 and s in (0, 1)):
            raise NonGenericProjection("projected crossing at a vertex")
        return 0
    h1 = _dot(p0, w) + s * _dot(d1, w)
    h2 = _dot(q0, w) + t * _dot(d2, w)
    if h1 == h2:
        raise CurvesIntersect("curves meet in R^3 at a projected crossing")
    over, under = (a1, a2) if h1 > h2 else (a2, a1)
    orient = over[0] * under[1] - over[1] * under[0]
    if orient == 0:
        raise NonGenericProjection("tangential crossing")
    return 1 if orient > 0 else -1


def _project(points: np.ndarray, basis) -> np.ndarray:
    """Float coordinates of the points in the (u, v) projection plane."""
    import numpy as np

    u, v, _ = basis
    return points @ np.array([[float(x) for x in u], [float(x) for x in v]]).T


def _candidate_pairs(pts1: np.ndarray, pts2: np.ndarray) -> np.ndarray:
    """Index pairs of segments of two closed polylines whose boxes overlap.

    Takes the (n, d) float vertex arrays, in any dimension d.  This is a
    float prefilter: its margin, relative to the largest coordinate,
    absorbs conversion and projection rounding, so no pair of exactly
    meeting segments is dropped; exact predicates decide the rest.
    """
    import numpy as np

    margin = 1e-7 * max(float(np.abs(pts1).max()), float(np.abs(pts2).max()))
    ends1 = np.stack([pts1, np.roll(pts1, -1, axis=0)])
    ends2 = np.stack([pts2, np.roll(pts2, -1, axis=0)])
    lo1, hi1 = ends1.min(axis=0)[:, None], ends1.max(axis=0)[:, None]
    lo2, hi2 = ends2.min(axis=0)[None], ends2.max(axis=0)[None]
    return np.argwhere(((lo1 <= hi2 + margin) & (lo2 <= hi1 + margin)).all(axis=2))


def _check_disjoint(segs1, segs2, pts1: np.ndarray, pts2: np.ndarray) -> None:
    """Raise CurvesIntersect unless two closed polylines, given by their
    segments and float vertices, are disjoint in R^3 (decided exactly)."""
    for i, j in _candidate_pairs(pts1, pts2):
        if _segments_meet(segs1[i], segs2[j]):
            raise CurvesIntersect("curves meet in R^3; not a valid link")


def linking_matrix(
    curves: Sequence[PolyCurve], axis: ProjectionAxis = EZ
) -> dict[tuple[int, int], int]:
    """Linking number of every pair i < j of the curves, keyed ``(i, j)``.

    Each curve is converted to floats and projected once.  Every pair is
    first checked disjoint exactly; a linking number is then half the
    signed crossing count over the pair's candidate segment pairs.
    """
    basis = _plane_basis(axis)
    segs = [c.segments() for c in curves]
    pts = [c.as_array() for c in curves]
    flat = [_project(p, basis) for p in pts]
    matrix = {}
    for i, j in combinations(range(len(curves)), 2):
        _check_disjoint(segs[i], segs[j], pts[i], pts[j])
        total = 0
        for a, b in _candidate_pairs(flat[i], flat[j]):
            total += _segment_crossings(segs[i][a], segs[j][b], basis)
        if total % 2 != 0:
            raise NonGenericProjection("odd signed crossing count")
        matrix[i, j] = total // 2
    return matrix


def linking_number_pl(
    m: PolyCurve, n: PolyCurve, axis: ProjectionAxis = EZ
) -> int:
    """Linking number as half the signed crossing count of the projection."""
    return linking_matrix([m, n], axis)[0, 1]


def writhe_pl(curve: PolyCurve, axis: ProjectionAxis = EZ) -> int:
    """Writhe: signed count of self-crossings of the projection.

    The paper-level half-sum over ordered pairs collapses to a plain sum
    over unordered crossings.
    """
    basis = _plane_basis(axis)
    segs = curve.segments()
    nseg = len(segs)
    pts = _project(curve.as_array(), basis)
    total = 0
    for i, j in _candidate_pairs(pts, pts):
        if j <= i or j == i + 1 or (i == 0 and j == nseg - 1):
            continue  # each unordered pair once; adjacent share a vertex
        total += _segment_crossings(segs[i], segs[j], basis)
    return total


def _resample(verts: np.ndarray, subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and tangent*dl arrays with roughly `subdivisions` samples."""
    import numpy as np

    per_seg = max(1, -(-subdivisions // len(verts)))
    t = (np.arange(per_seg) + 0.5) / per_seg
    step = np.roll(verts, -1, axis=0) - verts
    mids = verts[:, None, :] + t[None, :, None] * step[:, None, :]
    return mids.reshape(-1, 3), np.repeat(step / per_seg, per_seg, axis=0)


def gauss_linking_quadrature(
    m: PolyCurve, n: PolyCurve, subdivisions: int = 128
) -> float:
    """Gauss double integral (1/4pi) oint oint det(t1, t2, r) / |r|^3."""
    import numpy as np

    pts1, pts2 = m.as_array(), n.as_array()
    _check_disjoint(m.segments(), n.segments(), pts1, pts2)
    x1, t1 = _resample(pts1, subdivisions)
    x2, t2 = _resample(pts2, subdivisions)
    r = x1[:, None, :] - x2[None, :, :]
    dist = np.sqrt((r * r).sum(axis=2))
    cross = np.cross(t1[:, None, :], t2[None, :, :])
    integrand = (cross * r).sum(axis=2) / dist**3
    # Fixed summation order for reproducibility.
    return float(integrand.sum()) / (4.0 * np.pi)


def connected_sum_pl(
    m1: PolyCurve,
    m2: PolyCurve,
    band: tuple[int, int],
    avoid: Sequence[PolyCurve] = (),
    axis: ProjectionAxis = EZ,
) -> PolyCurve:
    """Join two disjoint closed curves by a band at the given vertices.

    The band replaces the edge entering vertex ``band[0]`` of ``m1`` and
    the edge entering ``band[1]`` of ``m2`` by two straight connector
    segments.  ``m1`` and ``m2`` must be disjoint (decided exactly, else
    :class:`CurvesIntersect`).  If a connector meets the other connector
    or any input curve (decided exactly), or crosses a curve in ``avoid``
    in projection, the band is obstructed and the sum would not satisfy
    the linking-additivity hypothesis.
    """
    i1, i2 = band
    if not (0 <= i1 < len(m1) and 0 <= i2 < len(m2)):
        raise ParseError("band vertex index out of range")
    _check_disjoint(m1.segments(), m2.segments(), m1.as_array(), m2.as_array())
    a = m1.vertices[i1:] + m1.vertices[:i1]
    b = m2.vertices[i2:] + m2.vertices[:i2]
    result = PolyCurve(a + b)

    new_segs = [(a[-1], b[0]), (b[-1], a[0])]
    for curve in (m1, m2, *avoid):
        for seg2 in curve.segments():
            for seg1 in new_segs:
                # Segments sharing a band endpoint legitimately touch.
                if seg1[0] in seg2 or seg1[1] in seg2:
                    continue
                if _segments_meet(seg1, seg2):
                    raise BandObstructed("band passes through a curve")
    if _segments_meet(*new_segs):
        raise BandObstructed("band connectors meet each other")
    basis = _plane_basis(axis)
    for curve in avoid:
        for seg2 in curve.segments():
            for seg1 in new_segs:
                if _segment_crossings(seg1, seg2, basis):
                    raise BandObstructed(
                        "band adds projection crossings with a protected curve"
                    )
    return result


def circle(
    center, radius, normal, n: int = 64, phase: float = 0.0
) -> PolyCurve:
    """Regular n-gon approximating a circle with the given plane normal.

    Oriented counterclockwise when viewed from the tip of ``normal``.
    """
    import numpy as np

    c = np.array(center, dtype=float)
    w = np.array(normal, dtype=float)
    w = w / np.linalg.norm(w)
    ref = np.eye(3)[int(np.argmin(np.abs(w)))]
    u = np.cross(ref, w)
    u /= np.linalg.norm(u)
    v = np.cross(w, u)
    angles = phase + 2.0 * np.pi * np.arange(n) / n
    pts = c + radius * (np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * v)
    return PolyCurve([tuple(p) for p in pts])


def curves_to_dict(curves: Sequence[PolyCurve]) -> dict:
    return {
        "components": [
            [[float(x), float(y), float(z)] for x, y, z in c.vertices]
            for c in curves
        ]
    }


def _finite_float(x: int | float) -> bool:
    try:
        return isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _vertex(point, c: int, v: int) -> tuple:
    coords = tuple(point)
    for x in coords:
        # bool is an int subclass; Fraction would also take strings.  The
        # float prefilter needs every coordinate as a finite float.
        if (isinstance(x, bool) or not isinstance(x, (int, float))
                or not _finite_float(x)):
            raise ParseError(
                f"components[{c}][{v}]: coordinate {x!r} is not a finite"
                " number in float range"
            )
    return coords


def curves_from_dict(data: dict) -> list[PolyCurve]:
    try:
        return [
            PolyCurve([_vertex(p, c, v) for v, p in enumerate(comp)])
            for c, comp in enumerate(data["components"])
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed curve document: {exc}") from exc
