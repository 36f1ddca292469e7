"""Exact evaluation of the crossing-change calculus on diagrams.

Everything here is exact rational arithmetic (quarter-integers
throughout); floating point never enters.  The two difference formulas
(`delta_h_full` over all lift pairs of both diagrams, `delta_h_reduced`
over pairs touching the switched set exactly once) agree identically,
which the test suite asserts on random diagrams.

A crossing change only swaps the two levels of each switched crossing,
so the switched diagram's signed pair sum is read from the original
diagram with those levels flipped: no switched diagram is ever built.

No query reads the ``lk`` mapping: a `CrossingDiagram` is read once, at
construction, into integer columns (the crossings of each entry's two
lifts and its signed value) plus the signed pair sum and total writhe.
`e_invariant` and `i_x_dirac` read the totals, O(1); `delta_h_full` and
`delta_h_reduced` make one pass over the columns, looking each crossing
up in the switched set; `v_alternating` walks all 2^r subsets in
Gray-code order, O(r) each, after one pass (see `_straddles`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from numbers import Rational
from operator import mul, ne
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Literal,
    Sequence,
    get_args,
)

from ._record import Record
from .diagram import CrossingDiagram, LiftId, _check_k, make_diagram
from .errors import DuplicateIndex, HaefligerError, InconsistentEvent, ParseError

if TYPE_CHECKING:
    from .linking import PolyCurve, ProjectionAxis


def delta_h_full(d: CrossingDiagram, switched: Iterable[int]) -> Fraction:
    """Invariant difference H(f) - H(f_S) from both diagrams' linking sums.

    Equals (1/4) (signed pair sum P of d minus signed pair sum P_S of the
    switched diagram).  A crossing change swaps the two levels of its
    crossing, so a term of P_S is the term of P with its sign flipped
    once per switched crossing among its two lifts' crossings: a term
    on one switched crossing, or with both crossings switched, keeps its
    sign.  P_S is one pass over the diagram's columns; no diagram is
    built.
    """
    c = d._columns
    sign = dict.fromkeys(d.checked_crossings(switched), -1)
    signs = map(mul, map(sign.get, c.lower, repeat(1)), map(sign.get, c.upper, repeat(1)))
    switched_sum = sum(map(mul, c.signed, signs))
    return Fraction(c.pair_sum - switched_sum, 4)


def delta_h_reduced(d: CrossingDiagram, switched: Iterable[int]) -> Fraction:
    """Same difference via the reduced sum over pairs straddling the set.

    Only pairs with exactly one crossing index in the switched set
    contribute, each with weight 1/2.
    """
    c = d._columns
    s = d.checked_crossings(switched)
    straddles = map(ne, map(s.__contains__, c.lower), map(s.__contains__, c.upper))
    return Fraction(sum(compress(c.signed, straddles)), 2)


def i_x_dirac(d: CrossingDiagram) -> Fraction:
    """Dirac-limit value of the crossing-count integral I(X).

    (1/2) signed pair sum + (1/4) total writhe.
    """
    c = d._columns
    return Fraction(c.pair_sum, 2) + Fraction(c.writhe_sum, 4)


def _straddles(
    d: CrossingDiagram, indices: Sequence[int]
) -> Iterator[tuple[list[bool], int]]:
    """Yield (inside, 2 delta_h(d, S)) for every subset S of the given crossings.

    ``inside`` flags which of ``indices`` are in S; it is one list,
    updated in place between steps.  Subsets come in Gray-code order,
    starting from the empty one: step n toggles the lowest set bit of
    n, so the n-th subset has the parity of n.  One pass over the
    diagram's columns sums C_tj = sum of (-1)^(e+f) lk((t,e),(j,f)) for
    the chosen crossings t and every j != t: the row sums row_t over all
    j, and the block C_tu between chosen crossings (a pair on one
    crossing never straddles).  Toggling t moves the straddle sum by
    +-(row_t - 2 sum of C_tu over the other u in S); delta_h is half of it.
    """
    idx = list(indices)
    d.checked_crossings(idx)
    if len(set(idx)) != len(idx):
        raise DuplicateIndex(f"repeated crossing index in {idx}")
    c = d._columns
    pos = {i: t for t, i in enumerate(idx)}
    row = [0] * len(idx)
    block = [[0] * len(idx) for _ in idx]
    for i, j, value in zip(c.lower, c.upper, c.signed):
        t, u = pos.get(i), pos.get(j)
        if (t is None and u is None) or i == j:
            continue
        for x, y in ((t, u), (u, t)):
            if x is not None:
                row[x] += value
                if y is not None:
                    block[x][y] += value
    inside = [False] * len(idx)
    straddle = 0
    yield inside, 0
    for step in range(1, 2 ** len(idx)):
        t = (step & -step).bit_length() - 1
        change = row[t] - 2 * sum(compress(block[t], inside))
        inside[t] = not inside[t]
        straddle += change if inside[t] else -change
        yield inside, straddle


def _exact(h) -> Fraction:
    """An invariant value h as a Fraction: any ``numbers.Rational`` but a
    bool (an int, a Fraction, a numpy integer); ParseError otherwise."""
    if isinstance(h, Rational) and not isinstance(h, bool):
        return Fraction(int(h.numerator), int(h.denominator))
    raise ParseError(f"h must be a rational number (an int or a Fraction), not {h!r}")


def _subset_values(
    h0: Fraction | int, d: CrossingDiagram, indices: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield (S, h0 - delta_h(d, S)) for every subset S, as ``_straddles``.

    The members of each S keep the order of ``indices``.
    """
    h0 = _exact(h0)
    idx = list(indices)
    for inside, straddle in _straddles(d, idx):
        yield tuple(compress(idx, inside)), h0 - Fraction(straddle, 2)


def v_alternating(
    h0: Fraction | int, d: CrossingDiagram, indices: Sequence[int]
) -> Fraction:
    """Alternating subset sum testing finite-type behaviour.

    Sums (-1)^|S| u(f_S) over all 2^r subsets S of the given crossings,
    where u(f_S) = h0 - delta_h(d, S).  The base value h0 cancels as
    soon as the index list is nonempty; vanishing for 3 indices is the
    order-2 property.  Every subset is evaluated: O(nnz + r 2^r), on
    integers, with one ``Fraction`` at the end.  The n-th subset of the
    Gray-code walk has the parity of n, so no subset is built.
    """
    h0 = _exact(h0)
    sign, signs, straddles = 1, 0, 0
    for _, straddle in _straddles(d, indices):
        signs += sign
        straddles += sign * straddle
        sign = -sign
    return signs * h0 - Fraction(straddles, 2)


def e_invariant(h_of_f: Fraction | int, d: CrossingDiagram) -> Fraction:
    """Immersion invariant: lift value minus a quarter of the pair sum.

    Independent of which lift supplied ``h_of_f``: replacing (h, d) by
    (h - delta_h(d, S), crossing_change(d, S)) gives the same value.
    """
    return _exact(h_of_f) - Fraction(d._columns.pair_sum, 4)


EventKind = Literal["definite_tangency", "indefinite_tangency", "triple_point"]
TriplePattern = Literal["all_distinct", "i_eq_j", "p_eq_i", "j_eq_p", "all_equal"]
EVENT_KINDS: tuple[str, ...] = get_args(EventKind)
TRIPLE_PATTERNS: tuple[str, ...] = get_args(TriplePattern)


class HomotopyEvent(Record):
    """A codimension-1 event of a regular homotopy of immersions.

    ``kind`` is one of ``EVENT_KINDS``.  For indefinite tangencies:
    ``index`` is the index of the local quadratic form (1..2k-1),
    ``joins_components`` tells whether the deformation merges two
    components of the self-intersection, and lk00/lk11 are the
    same-level linking numbers of the merging pair.  For triple points:
    ``pattern`` (one of ``TRIPLE_PATTERNS``) records which of the three
    double-point components coincide.  ``sign`` is the direction of
    travel through the stratum, supplied by the caller.

    ``sign``, ``index`` (when given), ``lk00`` and ``lk11`` must be
    exactly ``int`` and ``joins_components`` exactly ``bool``; anything
    else (a bool sign, a float index) is ParseError, never coerced.  A
    field of another kind than ``kind`` (a pattern on a tangency, an
    index, a join or a nonzero lk00/lk11 off an indefinite tangency) is
    InconsistentEvent; its default value is allowed on every kind.
    """

    kind: EventKind
    sign: int
    index: int | None
    joins_components: bool
    lk00: int
    lk11: int
    pattern: TriplePattern | None
    __slots__ = _fields = (
        "kind", "sign", "index", "joins_components", "lk00", "lk11", "pattern")

    def __init__(self, kind: EventKind, sign: int = 1, index: int | None = None,
                 joins_components: bool = False, lk00: int = 0, lk11: int = 0,
                 pattern: TriplePattern | None = None) -> None:
        self._set(kind, sign, index, joins_components, lk00, lk11, pattern)
        if self.kind not in EVENT_KINDS:
            raise InconsistentEvent(f"unknown event kind {self.kind!r}")
        index = 0 if self.index is None else self.index
        if ({type(self.sign), type(index), type(self.lk00), type(self.lk11)} != {int}
                or type(self.joins_components) is not bool):
            raise ParseError(f"event fields of the wrong type: {self!r}")
        if self.sign not in (1, -1):
            raise InconsistentEvent("event sign must be +1 or -1")
        if self.kind == "indefinite_tangency":
            if self.index is None:
                raise InconsistentEvent("indefinite tangency needs a quadratic index")
        elif (self.index is not None or self.joins_components
                or self.lk00 or self.lk11):
            raise InconsistentEvent(
                f"index, joins_components, lk00 and lk11 belong to an"
                f" indefinite tangency, not a {self.kind}")
        if self.kind == "triple_point":
            if self.pattern not in TRIPLE_PATTERNS:
                raise InconsistentEvent(f"bad triple-point pattern {self.pattern!r}")
        elif self.pattern is not None:
            raise InconsistentEvent(f"a pattern belongs to a triple point, not a {self.kind}")


def e_jump(event: HomotopyEvent, k: int) -> Fraction:
    """Jump of the immersion invariant across a codimension-1 event.

    Definite tangencies never jump.  Indefinite tangencies jump by
    (lk00 + lk11)/4 only when the quadratic index is extremal (1 or
    2k-1) and the deformation joins two components.  Triple points jump
    by 1/4 except in the two coincidence patterns that cancel.
    """
    _check_k(k)
    if event.kind == "definite_tangency":
        return Fraction(0)
    if event.kind == "indefinite_tangency":
        if not 1 <= event.index <= 2 * k - 1:
            raise InconsistentEvent(
                f"quadratic index {event.index} outside 1..{2 * k - 1}"
            )
        if event.index in (1, 2 * k - 1) and event.joins_components:
            return event.sign * Fraction(event.lk00 + event.lk11, 4)
        return Fraction(0)
    if event.pattern in ("i_eq_j", "j_eq_p"):
        return Fraction(0)
    return event.sign * Fraction(1, 4)


def smale_from_h(h: Fraction | int) -> Fraction:
    """Smale invariant of an embedding factoring through codimension 2."""
    return -12 * _exact(h)


def murai_ohba_certificate(
    l0: PolyCurve, l1: PolyCurve, axis: ProjectionAxis | None = None
) -> tuple[CrossingDiagram, set[int], Fraction]:
    """Single-crossing-change unknotting certificate from a 2-component link.

    Builds the two-crossing diagram whose double point sets are two
    separated copies of the input link (same-level linking numbers equal
    to lk(l0, l1), mixed levels split) and returns it together with the
    switch set {1} and the resulting invariant difference, which equals
    the linking number of the input link.  ``axis`` defaults to ``EZ``.
    """
    # Imported here, its one use, so the exact commands never load linking.
    from .linking import EZ, linking_number_pl

    n = linking_number_pl(l0, l1, EZ if axis is None else axis)
    d = make_diagram(
        k=1,
        m=2,
        lk=[
            (LiftId(1, 0), LiftId(2, 0), n),
            (LiftId(1, 1), LiftId(2, 1), n),
        ],
    )
    switched = {1}
    delta = delta_h_reduced(d, switched)
    if delta != n:
        raise HaefligerError(
            f"certificate diagram gives delta_h {delta}, not the linking number {n}"
        )
    return d, switched, delta


def _jacobian_matrix(k: int) -> list[list[int]]:
    """The (16k-4) x (16k-4) integer block matrix of the Gauss-map Jacobian.

    Row blocks follow the tangent factors of the two big spheres and the
    small sphere; the row order inside the middle sphere block is pinned
    so the basis orientation matches the stated determinant.
    """
    rw = [2 * k - 1, 2 * k, 2 * k, 2 * k - 1, 2 * k - 1, 2 * k + 1, 2 * k - 1, 2 * k - 1]
    cw = [2 * k - 1, 2 * k, 2 * k - 1, 2 * k, 2 * k - 1, 2 * k, 2 * k - 1, 2 * k]
    n = 16 * k - 4
    if sum(rw) != n or sum(cw) != n:
        raise HaefligerError(f"block widths {rw}, {cw} do not add up to {n}")
    ro = [sum(rw[:i]) for i in range(8)]
    co = [sum(cw[:i]) for i in range(8)]
    mat = [[0] * n for _ in range(n)]

    def put_identity(rb: int, cb: int, sign: int, size: int) -> None:
        for t in range(size):
            mat[ro[rb] + t][co[cb] + t] = sign

    put_identity(0, 0, 1, 2 * k - 1)
    put_identity(0, 2, -1, 2 * k - 1)
    put_identity(1, 1, 1, 2 * k)
    put_identity(2, 3, -1, 2 * k)
    put_identity(3, 6, -1, 2 * k - 1)
    put_identity(4, 4, 1, 2 * k - 1)
    # Middle-sphere mixed block, height 2k+1: an identity against the
    # first 2k-1 coordinates of column blocks 5 and 7, plus one +1 row
    # (col block 5) and one -1 row (col block 7).
    for t in range(2 * k - 1):
        mat[ro[5] + t][co[5] + t] = 1
        mat[ro[5] + t][co[7] + t] = -1
    mat[ro[5] + 2 * k - 1][co[7] + 2 * k - 1] = -1
    mat[ro[5] + 2 * k][co[5] + 2 * k - 1] = 1
    put_identity(6, 2, 1, 2 * k - 1)
    put_identity(6, 4, -1, 2 * k - 1)
    put_identity(7, 3, 1, 2 * k - 1)
    put_identity(7, 5, -1, 2 * k - 1)
    return [[-x for x in row] for row in mat]


def _det_exact(mat: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination over the integers."""
    m = [row[:] for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for c in range(n):
        pivot_row = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                m[r][j] = (m[r][j] * m[c][c] - m[r][c] * m[c][j]) // prev
            m[r][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def jacobian_det(k: int) -> int:
    """Determinant of the crossing-count Jacobian; -1 for every k >= 1."""
    _check_k(k)
    return _det_exact(_jacobian_matrix(k))
