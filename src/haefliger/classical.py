"""Classical order-2 invariant from Gauss diagrams.

The dimension-3 counterpart of the crossing-change calculus: a knot
diagram is ingested as an extended Gauss code, the X-pairing sums the
products of signs over linked (interleaved) arrow pairs, and the order-2
invariant v2 is a quarter of the pairing difference between the diagram
and its descending (hence trivial) companion.  ``v2`` computes that in
one pass, in the form of Lin and Wang: half the sign products over the
linked pairs that the descending switch splits.

Every ``GaussDiagramK`` is the code of a planar knot diagram: its
constructor refuses any other code with NonRealizable, so ``v2`` and the
oracle never see a virtual knot, on which the Gauss-diagram v2 is not an
invariant (Goussarov, Polyak and Viro, 2000).

An independent skein-recursion oracle computes the z^2 coefficient of
the Conway polynomial for cross-checking; it shares no code path with
the pairing.
"""

from __future__ import annotations

import re
from typing import Iterable

from ._record import Record
from .errors import HaefligerError, LabelMismatch, MalformedToken, NonRealizable, ParseError


class Arrow(Record):
    """Signed arrow of a Gauss diagram, from over-passage to under-passage."""

    label: str
    over: int
    under: int
    sign: int
    __slots__ = _fields = ("label", "over", "under", "sign")

    def __init__(self, label: str, over: int, under: int, sign: int) -> None:
        self._set(label, over, under, sign)

    def first(self) -> int:
        return min(self.over, self.under)

    def last(self) -> int:
        return max(self.over, self.under)


class GaussDiagramK(Record):
    """Based Gauss diagram of a planar knot diagram: signed arrows on
    positions 0..2n-1.

    ``arrows`` may be any iterable and is stored as a tuple.  Every entry
    must be an :class:`Arrow` with a ``str`` label, ``int`` endpoints that
    cover 0..2n-1 and an ``int`` sign of +1 or -1, and the labels must
    differ (else LabelMismatch, also for a non-iterable); the code must be
    planar (else NonRealizable).
    """

    arrows: tuple[Arrow, ...]
    __slots__ = _fields = ("arrows",)

    @property
    def n(self) -> int:
        return len(self.arrows)

    def __init__(self, arrows: Iterable[Arrow]) -> None:
        try:
            arrows = tuple(arrows)
        except TypeError:
            raise LabelMismatch(f"arrows must be an iterable of Arrows, not {arrows!r}") from None
        self._set(arrows)
        # Types first, so sorting and hashing below cannot fail.
        for a in arrows:
            if not (isinstance(a, Arrow) and isinstance(a.label, str)
                    and type(a.over) is int and type(a.under) is int):
                raise LabelMismatch(
                    f"{a!r} is not an Arrow with a str label and int endpoints")
        positions = [p for a in self.arrows for p in (a.over, a.under)]
        if sorted(positions) != list(range(2 * self.n)):
            raise LabelMismatch("arrow endpoints must be the ints 0..2n-1")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise LabelMismatch("duplicate arrow label")
        for a in self.arrows:
            if type(a.sign) is not int or a.sign not in (1, -1):
                raise LabelMismatch(f"sign of {a.label} must be the int +1 or -1")
        # Planarity.  Half-edge 2p leaves passage p and 2p + 1 arrives at
        # passage p + 1; the sign fixes their counterclockwise order at a
        # crossing: over-out, under-out, over-in, under-in if positive,
        # with under-out and under-in swapped if negative.  With V = n and
        # E = 2n, the surface this ribbon graph spans (the Carter surface)
        # is a sphere iff it has F = n + 2 faces (Kauffman 1999).
        ends = 4 * self.n
        turn = [0] * ends
        for a in self.arrows:
            over_out, over_in = 2 * a.over, (2 * a.over - 1) % ends
            under_out, under_in = 2 * a.under, (2 * a.under - 1) % ends
            if a.sign < 0:
                under_out, under_in = under_in, under_out
            turn[over_out], turn[under_out] = under_out, over_in
            turn[over_in], turn[under_in] = under_in, over_out
        faces, unseen = 0, [True] * ends
        for start in range(ends):
            if unseen[start]:
                faces += 1
                h = start
                while unseen[h]:
                    unseen[h] = False
                    h = turn[h ^ 1]
        if self.n and faces != self.n + 2:
            genus = (self.n + 2 - faces) // 2
            raise NonRealizable(f"not the code of a planar diagram (genus {genus})")


_TOKEN = re.compile(r"([OUou])([A-Za-z0-9]+?)([+-])")


def parse_gauss_code(code: str) -> GaussDiagramK:
    """Parse an extended Gauss code like ``O1+U2+O3+U1+O2+U3+``.

    Tokens are letter O/U, a crossing label, and a sign; whitespace and
    commas between tokens are ignored.  Every label must appear exactly
    once as O and once as U, with the same sign both times.
    """
    stripped = re.sub(r"[\s,]+", "", code)
    pos = 0
    tokens: list[tuple[str, str, int]] = []
    while pos < len(stripped):
        match = _TOKEN.match(stripped, pos)
        if not match:
            raise MalformedToken(f"cannot read token at ...{stripped[pos:pos+8]!r}")
        kind, label, sign = match.groups()
        tokens.append((kind.upper(), label, 1 if sign == "+" else -1))
        pos = match.end()
    seen: dict[str, dict] = {}
    for position, (kind, label, sign) in enumerate(tokens):
        entry = seen.setdefault(label, {})
        if kind in entry:
            raise LabelMismatch(f"label {label} has two {kind} passages")
        entry[kind] = position
        if entry.setdefault("sign", sign) != sign:
            raise LabelMismatch(f"label {label} has inconsistent signs")
    arrows = []
    for label, entry in seen.items():
        if "O" not in entry or "U" not in entry:
            raise LabelMismatch(f"label {label} is missing an O or U passage")
        arrows.append(
            Arrow(label=label, over=entry["O"], under=entry["U"], sign=entry["sign"])
        )
    arrows.sort(key=Arrow.first)
    return GaussDiagramK(arrows)


def _interleaved(a: Arrow, b: Arrow) -> bool:
    return a.first() < b.first() < a.last() < b.last() or (
        b.first() < a.first() < b.last() < a.last()
    )


def x_pairing(diagram: GaussDiagramK) -> int:
    """Sum of sign products over all linked (interleaved) arrow pairs."""
    arrows = diagram.arrows
    total = 0
    for i in range(len(arrows)):
        for j in range(i + 1, len(arrows)):
            if _interleaved(arrows[i], arrows[j]):
                total += arrows[i].sign * arrows[j].sign
    return total


def descending_set(diagram: GaussDiagramK) -> set[str]:
    """Labels met under-first from the basepoint; switching them descends.

    A descending diagram (every crossing met over-first) is a diagram of
    the unknot.
    """
    return {a.label for a in diagram.arrows if a.under < a.over}


def switch(diagram: GaussDiagramK, labels: Iterable[str]) -> GaussDiagramK:
    """Crossing change: swap over/under and negate the sign of each label.

    ``labels`` is any iterable of the diagram's labels; a bare str (not
    read as its characters), a non-iterable or an unknown label is
    LabelMismatch.
    """
    if isinstance(labels, str):
        raise LabelMismatch(f"labels must be an iterable of labels, not the str {labels!r}")
    try:
        labels = set(labels)
    except TypeError:  # not iterable, or an unhashable label
        raise LabelMismatch(f"labels must be an iterable of labels, not {labels!r}") from None
    unknown = labels - {a.label for a in diagram.arrows}
    if unknown:
        raise LabelMismatch(f"unknown labels {sorted(unknown, key=str)}")
    arrows = tuple(
        Arrow(a.label, a.under, a.over, -a.sign) if a.label in labels else a
        for a in diagram.arrows
    )
    return GaussDiagramK(sorted(arrows, key=Arrow.first))


def rotate_basepoint(diagram: GaussDiagramK, shift: int) -> GaussDiagramK:
    """Move the basepoint forward by `shift` positions, an int (else ParseError)."""
    if type(shift) is not int:
        raise ParseError(f"shift must be an int, not {shift!r}")
    size = 2 * diagram.n
    if size == 0:
        return diagram
    arrows = tuple(
        Arrow(a.label, (a.over - shift) % size, (a.under - shift) % size, a.sign)
        for a in diagram.arrows
    )
    return GaussDiagramK(sorted(arrows, key=Arrow.first))


def v2(diagram: GaussDiagramK) -> int:
    """Order-2 invariant: half the sum of sign products over the linked
    arrow pairs with exactly one arrow in ``descending_set``.

    Switching an arrow negates its sign and keeps its endpoints, so the
    descending switch negates just these products: the pairing difference
    ``x_pairing(g) - x_pairing(switch(g, descending_set(g)))`` is twice
    the sum, and v2, a quarter of that difference, is half the sum.  The
    sum of a planar code is even, so an odd one is an internal error.
    """
    arrows = diagram.arrows
    total = 0
    for i, a in enumerate(arrows):
        descends = a.under < a.over
        for b in arrows[i + 1:]:
            if (b.under < b.over) != descends and _interleaved(a, b):
                total += a.sign * b.sign
    if total % 2:
        raise HaefligerError(f"split pairing sum {total} of a planar code is odd")
    return total // 2


# --- Conway polynomial oracle ----------------------------------------------

# A link code is a tuple of components; each component is a tuple of
# (label, over, sign) tokens in traversal order, one token per passage:
# ``over`` is True at the over-passage, and both tokens of a crossing
# carry its sign, +1 or -1.
LinkCode = tuple[tuple[tuple[str, bool, int], ...], ...]

Poly = tuple[int, ...]  # coefficients, index = degree in z

ZERO: Poly = ()
ONE: Poly = (1,)


def _poly_add(a: Poly, b: Poly, scale: int = 1) -> Poly:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += scale * c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mul_z(a: Poly) -> Poly:
    return (0, *a) if a else ZERO


def _first_violation(link: LinkCode) -> tuple[str, bool, int] | None:
    """Token of the first crossing met under-first in the global
    traversal, which carries its label and sign, or None."""
    seen: set[str] = set()
    for comp in link:
        for token in comp:
            if token[0] in seen:
                continue
            seen.add(token[0])
            if not token[1]:
                return token
    return None


def _switch_link(link: LinkCode, label: str) -> LinkCode:
    return tuple(tuple((l, not over, -sign) if l == label else (l, over, sign)
                       for l, over, sign in comp) for comp in link)


def _smooth_link(link: LinkCode, label: str) -> LinkCode:
    """Oriented smoothing: merges two components or splits one in two."""
    hits = [
        (ci, ti)
        for ci, comp in enumerate(link)
        for ti, token in enumerate(comp)
        if token[0] == label
    ]
    (c1, t1), (c2, t2) = hits
    if c1 == c2:
        comp = link[c1]
        first = comp[t1 + 1 : t2]
        second = comp[t2 + 1 :] + comp[:t1]
        rest = link[:c1] + link[c1 + 1 :]
        return rest + (first, second)
    a, b = link[c1], link[c2]
    merged = a[t1 + 1 :] + a[:t1] + b[t2 + 1 :] + b[:t2]
    rest = tuple(c for i, c in enumerate(link) if i not in (c1, c2))
    return rest + (merged,)


def _conway(link: LinkCode, memo: dict[LinkCode, Poly]) -> Poly:
    """Skein step at the first under-first crossing, of sign s:
    ∇(link) = ∇(switched) + s·z·∇(smoothed), memoized by the link alone."""
    if link in memo:
        return memo[link]
    violation = _first_violation(link)
    if violation is None:
        # Descending: an unknot if connected, a split link otherwise.
        return ONE if len(link) <= 1 else ZERO
    label, _, sign = violation
    switched_poly = _conway(_switch_link(link, label), memo)
    smoothed_poly = _conway(_smooth_link(link, label), memo)
    poly = _poly_add(switched_poly, _poly_mul_z(smoothed_poly), scale=sign)
    memo[link] = poly
    return poly


def conway_polynomial(diagram: GaussDiagramK) -> Poly:
    """Conway polynomial coefficients of the knot, by skein recursion.

    Sub-links met twice in one recursion are looked up in a memo that
    lives for this call only, so nothing stays allocated after it returns.
    """
    component = tuple(
        (a.label, p == a.over, a.sign)
        for p, a in sorted(
            (p, a) for a in diagram.arrows for p in (a.over, a.under)
        )
    )
    return _conway((component,), {})


def conway_a2_oracle(diagram: GaussDiagramK) -> int:
    """z^2 coefficient of the Conway polynomial; equals v2 for knots."""
    poly = conway_polynomial(diagram)
    return poly[2] if len(poly) > 2 else 0
