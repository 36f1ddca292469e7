"""Shared builders and oracles for the test suite.

Everything here is an independent construction path from the library
code under test: Gauss codes come from braid closures, curves from
direct parametrizations, crossing signs from a rational-division
crossing test that shares no code with the library's integer one, and
signed pair sums from a walk of a diagram's ``lk`` mapping, key by key,
which the library's integer columns replaced.  Band sums, which the
library does not provide, are built here from ``Fraction`` vertices;
only their exact 3D disjointness tests are the library's.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from haefliger.errors import CurvesIntersect, ParseError
from haefliger.linking import PolyCurve, _segments_meet, circle, linking_matrix


def braid_closure_code(word, strands):
    """Extended Gauss code of the closure of a braid word.

    ``word`` is a list of nonzero ints: ``+i`` is the positive generator
    (strand at position i crosses over position i+1), ``-i`` its
    inverse.  The closure must be a knot (single component).
    """
    position = list(range(strands))  # strand id occupying each position
    per_strand = {s: [] for s in range(strands)}
    for label, gen in enumerate(word, start=1):
        i = abs(gen) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"generator {gen} out of range for {strands} strands")
        a, b = position[i], position[i + 1]
        if gen > 0:
            per_strand[a].append(("O", label, 1))
            per_strand[b].append(("U", label, 1))
        else:
            per_strand[a].append(("U", label, -1))
            per_strand[b].append(("O", label, -1))
        position[i], position[i + 1] = b, a
    # Closure: strand ending at bottom position p continues from top position p.
    next_strand = {position[p]: p for p in range(strands)}
    tokens = []
    strand = 0
    for _ in range(strands):
        tokens.extend(per_strand[strand])
        strand = next_strand[strand]
        if strand == 0:
            break
    else:
        raise ValueError("closure has more than one component")
    if sum(len(v) for v in per_strand.values()) != len(tokens):
        raise ValueError("closure has more than one component")
    return "".join(
        f"{kind}{label}{'+' if sign > 0 else '-'}" for kind, label, sign in tokens
    )


def torus_knot_code(n):
    """Alternating extended Gauss code of the (2, n) torus knot, n odd."""
    return "".join(
        f"{'O' if t % 2 == 0 else 'U'}{(t % n) + 1}+" for t in range(2 * n)
    )


def connect_sum_code(code1, code2):
    """Connected sum at the basepoints: concatenation with fresh labels."""
    import re

    relabeled = re.sub(
        r"([OUou])([A-Za-z0-9]+?)([+-])", r"\1s\2\3", code2
    )
    return code1 + relabeled


FIGURE_EIGHT = "O1+U2-O4-U1+O3+U4-O2-U3+"

# Gauss codes of no planar diagram.  The first passes the parity test below.
NON_PLANAR_CODES = ("O1+U2+O3-U1+O2+U3-", "O1+U2+U1+O2+", "O1+O2+U1+U2+")


def interleaving_parity(arrows):
    """Gauss's necessary condition for planarity: every arrow interleaves
    evenly many others.  Between an arrow's two ends lie one end of each
    arrow it interleaves and both ends of each arrow nested inside it, so
    the condition is that the two ends lie an odd distance apart."""
    return all((a.over - a.under) % 2 for a in arrows)


def hopf_link(n_vertices=48):
    """The positively oriented Hopf link as two polygonal circles."""
    c1 = circle((0, 0, 0), 2.0, (0, 0, 1), n=n_vertices, phase=0.13)
    c2 = circle((2, 0, 0), 2.0, (0, 1, 0.2), n=n_vertices, phase=0.29)
    return c1, c2


def torus_link_curves(n, samples=96):
    """(2, 2n) torus link: a core circle and an n-times winding companion."""
    core = circle((0, 0, 0), 3.0, (0, 0, -1), n=samples, phase=0.07)
    t = 2.0 * np.pi * (np.arange(samples) + 0.21) / samples
    w = n * t + 0.4
    pts = np.stack(
        [
            (3.0 + np.cos(w)) * np.cos(t),
            (3.0 + np.cos(w)) * np.sin(t),
            np.sin(w),
        ],
        axis=1,
    )
    companion = PolyCurve([tuple(p) for p in pts])
    return core, companion


def trefoil_curve(samples=60):
    """Polygonal trefoil from the standard trigonometric parametrization."""
    t = 2.0 * np.pi * (np.arange(samples) + 0.11) / samples
    pts = np.stack(
        [
            np.sin(t) + 2.0 * np.sin(2.0 * t),
            np.cos(t) - 2.0 * np.cos(2.0 * t),
            -np.sin(3.0 * t),
        ],
        axis=1,
    )
    return PolyCurve([tuple(p) for p in pts])


def random_loop(rng, n_vertices=36):
    """Closed trigonometric-polynomial loop with decaying harmonics."""
    t = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    a1, b1 = rng.normal(size=3), rng.normal(size=3)
    a1 *= 2.0 / np.linalg.norm(a1)
    b1 *= 2.0 / np.linalg.norm(b1)
    pts = np.outer(np.cos(t), a1) + np.outer(np.sin(t), b1)
    for k in (2, 3):
        pts += np.outer(np.cos(k * t), rng.normal(size=3)) / k**2.5
        pts += np.outer(np.sin(k * t), rng.normal(size=3)) / k**2.5
    return pts


def random_link(rng, min_separation=0.1, max_tries=200):
    """Two disjoint random loops with relative separation >= the given
    fraction of the configuration diameter."""
    for _ in range(max_tries):
        a = random_loop(rng)
        b = random_loop(rng) + rng.normal(scale=0.8, size=3)
        both = np.concatenate([a, b])
        diameter = float(np.linalg.norm(both.max(axis=0) - both.min(axis=0)))
        gap = np.sqrt(
            ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        ).min()
        if gap >= min_separation * diameter:
            return (
                PolyCurve([tuple(p) for p in a]),
                PolyCurve([tuple(p) for p in b]),
            )
    raise RuntimeError("could not sample a separated link")


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def plane_basis_oracle(direction):
    """Rational (u, v, w): w the direction, u and v orthogonal to it, and
    (u, v, w) right-handed."""
    w = tuple(Fraction(x) for x in direction)
    i = min(range(3), key=lambda t: abs(w[t]))
    e = tuple(Fraction(int(t == i)) for t in range(3))
    u = _cross(e, w)
    return u, _cross(w, u), w


class OracleDegenerate(Exception):
    """The oracles' own signal that an axis is not generic for them: a
    projected vertex on the other segment, or an odd crossing count.  The
    library decides every axis, so it has no error of this kind."""


def crossing_sign_oracle(seg1, seg2, basis):
    """Sign (+1 or -1) of the crossing of two projected segments, 0 if they
    miss, from the crossing parameters s and t as ``Fraction`` quotients.

    Parallel projections, or one that is a point, miss: they do along
    every nearby axis.  A vertex on the other projected segment raises
    OracleDegenerate, and a crossing whose preimages meet CurvesIntersect.
    """
    u, v, w = basis
    p0, p1 = seg1
    q0, q1 = seg2
    d1 = tuple(b - a for a, b in zip(p0, p1))
    d2 = tuple(b - a for a, b in zip(q0, q1))
    a1 = (_dot(d1, u), _dot(d1, v))
    a2 = (_dot(d2, u), _dot(d2, v))
    denom = a1[0] * a2[1] - a1[1] * a2[0]
    if denom == 0:
        return 0
    r = (_dot(q0, u) - _dot(p0, u), _dot(q0, v) - _dot(p0, v))
    s = Fraction(r[0] * a2[1] - r[1] * a2[0], denom)
    t = Fraction(r[0] * a1[1] - r[1] * a1[0], denom)
    if s <= 0 or s >= 1 or t <= 0 or t >= 1:
        if (0 <= s <= 1 and t in (0, 1)) or (0 <= t <= 1 and s in (0, 1)):
            raise OracleDegenerate("projected crossing at a vertex")
        return 0
    h1 = _dot(p0, w) + s * _dot(d1, w)
    h2 = _dot(q0, w) + t * _dot(d2, w)
    if h1 == h2:
        raise CurvesIntersect("curves meet in R^3 at a projected crossing")
    over, under = (a1, a2) if h1 > h2 else (a2, a1)
    return 1 if over[0] * under[1] - over[1] * under[0] > 0 else -1


def curve_segments(curve):
    """The closed curve's edges, as pairs of consecutive Fraction vertices."""
    v = curve.vertices
    return list(zip(v, v[1:] + v[:1]))


def naive_linking_oracle(m, n, direction=(0, 0, 1)):
    """Half the signed crossing count over all segment pairs of two curves:
    no prefilter, no integer grid, no shared crossing bookkeeping."""
    basis = plane_basis_oracle(direction)
    total = sum(
        crossing_sign_oracle(s1, s2, basis)
        for s1 in curve_segments(m)
        for s2 in curve_segments(n)
    )
    if total % 2:
        raise OracleDegenerate("odd signed crossing count")
    return total // 2


class BandObstructed(Exception):
    """A band connector meets a curve or the other connector, or crosses
    a protected curve in projection."""


def connected_sum_pl(m1, m2, band, avoid=()):
    """Join two disjoint closed curves by a band at the given vertices.

    The band replaces the edge entering vertex ``band[0]`` of ``m1`` and
    the edge entering ``band[1]`` of ``m2`` by two straight connector
    segments.  Summands that meet raise CurvesIntersect.  If a connector
    meets the other connector or an input curve, or crosses a curve in
    ``avoid`` in the projection along z, the band is obstructed: the sum
    would not satisfy the linking-additivity hypothesis.
    """
    i1, i2 = band
    if not (0 <= i1 < len(m1) and 0 <= i2 < len(m2)):
        raise ParseError("band vertex index out of range")
    linking_matrix([m1, m2])  # CurvesIntersect unless disjoint
    a, b = m1.vertices, m2.vertices
    joined = PolyCurve(a[i1:] + a[:i1] + b[i2:] + b[:i2])
    connectors = [(a[i1 - 1], b[i2]), (b[i2 - 1], a[i1])]
    for seg2 in [s for c in (m1, m2, *avoid) for s in curve_segments(c)]:
        for seg1 in connectors:
            # Segments sharing a band endpoint legitimately touch.
            if seg1[0] in seg2 or seg1[1] in seg2:
                continue
            if _segments_meet(seg1, seg2):
                raise BandObstructed("band passes through a curve")
    if _segments_meet(*connectors):
        raise BandObstructed("band connectors meet each other")
    basis = plane_basis_oracle((0, 0, 1))
    for curve in avoid:
        for seg2 in curve_segments(curve):
            for seg1 in connectors:
                if crossing_sign_oracle(seg1, seg2, basis):
                    raise BandObstructed(
                        "band adds projection crossings with a protected curve"
                    )
    return joined


def signed_pair_sum_oracle(d, switched=frozenset()):
    """Sum of (-1)^(e+f) lk((i,e),(j,f)) over ``d.lk``, read key by key,
    after swapping the two levels of every crossing in ``switched``: the
    signed pair sum of the switched diagram, with no diagram built."""
    total = 0
    for (a, b), value in d.lk.items():
        e = 1 - a.level if a.crossing in switched else a.level
        f = 1 - b.level if b.crossing in switched else b.level
        total += (-1) ** (e + f) * value
    return total


def _project(points, basis):
    """Float coordinates of the points in the (u, v) projection plane."""
    rows = [[x / max(map(abs, vec)) for x in vec] for vec in basis[:2]]
    return points @ np.array(rows).T


def dense_box_pairs(pts1, pts2, basis, margin=None):
    """Index pairs of segments of two closed polylines whose projected boxes
    overlap, by the dense n x m comparison the sweep replaced, with the
    given margin or, by default, the sweep's margin rule: 1e-7 of the
    largest 3D coordinate of the two."""
    if margin is None:
        margin = 1e-7 * max(float(np.abs(pts1).max()), float(np.abs(pts2).max()))
    pts1, pts2 = _project(pts1, basis), _project(pts2, basis)
    ends1 = np.stack([pts1, np.roll(pts1, -1, axis=0)])
    ends2 = np.stack([pts2, np.roll(pts2, -1, axis=0)])
    lo1, hi1 = ends1.min(axis=0)[:, None], ends1.max(axis=0)[:, None]
    lo2, hi2 = ends2.min(axis=0)[None], ends2.max(axis=0)[None]
    overlap = ((lo1 <= hi2 + margin) & (lo2 <= hi1 + margin)).all(axis=2)
    return {(int(i), int(j)) for i, j in np.argwhere(overlap)}


def exact_box_pairs(curves, basis):
    """Pairs a < b of segments, numbered through the curves in order, whose
    projected boxes touch, from the Fraction vertices: on distinct curves,
    or, given one curve, on it.  A box spans the ends' dot products with
    the plane vectors basis[0] and basis[1]."""
    boxes, owner = [], []
    for k, curve in enumerate(curves):
        vs = curve.vertices
        for p, q in zip(vs, vs[1:] + vs[:1]):
            box = []
            for vec in basis[:2]:
                s, t = (sum(Fraction(a) * x for a, x in zip(vec, end)) for end in (p, q))
                box.append((min(s, t), max(s, t)))
            boxes.append(box)
            owner.append(k)
    return {
        (a, b) for a, b in combinations(range(len(boxes)), 2)
        if (len(curves) == 1 or owner[a] != owner[b])
        and all(lo1 <= hi2 and lo2 <= hi1
                for (lo1, hi1), (lo2, hi2) in zip(boxes[a], boxes[b]))
    }


def subdivided(curve):
    """The curve with every edge split at its exact midpoint."""
    vs = curve.vertices
    points = []
    for p, q in zip(vs, vs[1:] + vs[:1]):
        points += [p, tuple((x + y) / 2 for x, y in zip(p, q))]
    return PolyCurve(points)
