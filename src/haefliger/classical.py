"""Classical order-2 invariant from Gauss diagrams.

The dimension-3 counterpart of the crossing-change calculus: a knot
diagram is ingested as an extended Gauss code, the X-pairing sums the
products of signs over linked (interleaved) arrow pairs, and the order-2
invariant v2 is a quarter of the pairing difference between the diagram
and its descending (hence trivial) companion.  ``v2`` computes that in
one pass, in the form of Lin and Wang: half the sign products over the
linked pairs that the descending switch splits.

An independent skein-recursion oracle computes the z^2 coefficient of
the Conway polynomial for cross-checking; it shares no code path with
the pairing.

Both are defined for realizable codes only, i.e. Gauss codes of planar
knot diagrams.  The oracle's parity check (every arrow interleaves
evenly many arrows) is necessary for planarity but not sufficient, and
``v2`` checks nothing: ``O1+U2+O3-U1+O2+U3-``, the trefoil word with
mixed signs, passes the parity check without being a planar diagram,
and on it ``v2`` returns 0 while ``conway_a2_oracle`` returns 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    LabelMismatch,
    MalformedToken,
    NonIntegerResult,
    NonRealizable,
)


@dataclass(frozen=True)
class Arrow:
    """Signed arrow of a Gauss diagram, from over-passage to under-passage."""

    label: str
    over: int
    under: int
    sign: int

    def first(self) -> int:
        return min(self.over, self.under)

    def last(self) -> int:
        return max(self.over, self.under)


@dataclass(frozen=True)
class GaussDiagramK:
    """Based Gauss diagram of a knot: signed arrows on positions 0..2n-1."""

    arrows: tuple[Arrow, ...]

    @property
    def n(self) -> int:
        return len(self.arrows)

    def __post_init__(self) -> None:
        positions = [p for a in self.arrows for p in (a.over, a.under)]
        if sorted(positions) != list(range(2 * self.n)):
            raise LabelMismatch("arrow endpoints must fill positions 0..2n-1")
        labels = [a.label for a in self.arrows]
        if len(set(labels)) != len(labels):
            raise LabelMismatch("duplicate arrow label")
        for a in self.arrows:
            if a.sign not in (1, -1):
                raise LabelMismatch(f"sign of {a.label} must be +1 or -1")


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
    return GaussDiagramK(tuple(arrows))


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


def switch(diagram: GaussDiagramK, labels: set[str]) -> GaussDiagramK:
    """Crossing change: swap over/under and negate the sign of each label."""
    unknown = labels - {a.label for a in diagram.arrows}
    if unknown:
        raise LabelMismatch(f"unknown labels {sorted(unknown)}")
    arrows = tuple(
        Arrow(a.label, a.under, a.over, -a.sign) if a.label in labels else a
        for a in diagram.arrows
    )
    return GaussDiagramK(tuple(sorted(arrows, key=Arrow.first)))


def rotate_basepoint(diagram: GaussDiagramK, shift: int) -> GaussDiagramK:
    """Move the basepoint forward by `shift` positions."""
    size = 2 * diagram.n
    if size == 0:
        return diagram
    arrows = tuple(
        Arrow(a.label, (a.over - shift) % size, (a.under - shift) % size, a.sign)
        for a in diagram.arrows
    )
    return GaussDiagramK(tuple(sorted(arrows, key=Arrow.first)))


def v2(diagram: GaussDiagramK) -> int:
    """Order-2 invariant: half the sum of sign products over the linked
    arrow pairs with exactly one arrow in ``descending_set``.

    Switching an arrow negates its sign and keeps its endpoints, so the
    descending switch negates just these products: the pairing difference
    ``x_pairing(g) - x_pairing(switch(g, descending_set(g)))`` is twice
    the sum, and v2, a quarter of that difference, is half the sum.  An
    odd sum raises NonIntegerResult.

    Defined for realizable (planar) codes only; a non-realizable code is
    not refused and gives a meaningless value (see the module docstring).
    """
    arrows = diagram.arrows
    total = 0
    for i, a in enumerate(arrows):
        descends = a.under < a.over
        for b in arrows[i + 1:]:
            if (b.under < b.over) != descends and _interleaved(a, b):
                total += a.sign * b.sign
    if total % 2:
        raise NonIntegerResult(f"split pairing sum {total} is odd")
    return total // 2


# --- Conway polynomial oracle ----------------------------------------------

# A link code is a tuple of components; each component is a tuple of
# (label, 'O' | 'U') tokens in traversal order.  Signs map labels to +-1.
LinkCode = tuple[tuple[tuple[str, str], ...], ...]
Signs = tuple[tuple[str, int], ...]

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


def _first_violation(link: LinkCode) -> tuple[int, int] | None:
    """First crossing met under-first in the global traversal, or None."""
    seen: set[str] = set()
    for ci, comp in enumerate(link):
        for ti, (label, kind) in enumerate(comp):
            if label in seen:
                continue
            seen.add(label)
            if kind == "U":
                return ci, ti
    return None


def _switch_link(link: LinkCode, label: str) -> LinkCode:
    return tuple(
        tuple((l, ("U" if k == "O" else "O") if l == label else k) for l, k in comp)
        for comp in link
    )


def _smooth_link(link: LinkCode, label: str) -> LinkCode:
    """Oriented smoothing: merges two components or splits one in two."""
    hits = [
        (ci, ti)
        for ci, comp in enumerate(link)
        for ti, (l, _) in enumerate(comp)
        if l == label
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


def _conway(
    link: LinkCode, signs: Signs, memo: dict[tuple[LinkCode, Signs], Poly]
) -> Poly:
    key = (link, signs)
    if key in memo:
        return memo[key]
    violation = _first_violation(link)
    if violation is None:
        # Descending: an unknot if connected, a split link otherwise.
        return ONE if len(link) <= 1 else ZERO
    ci, ti = violation
    label = link[ci][ti][0]
    sign = dict(signs)[label]
    switched = _switch_link(link, label)
    smoothed = _smooth_link(link, label)
    flipped = tuple((l, s if l != label else -s) for l, s in signs)
    kept = tuple((l, s) for l, s in signs if l != label)
    switched_poly = _conway(switched, flipped, memo)
    smoothed_poly = _conway(smoothed, kept, memo)
    poly = _poly_add(switched_poly, _poly_mul_z(smoothed_poly), scale=sign)
    memo[key] = poly
    return poly


def conway_polynomial(diagram: GaussDiagramK) -> Poly:
    """Conway polynomial coefficients of the knot, by skein recursion.

    Sub-links met twice in one recursion are looked up in a memo that
    lives for this call only, so nothing stays allocated after it returns.
    """
    _check_parity(diagram)
    component = tuple(
        (a.label, "O" if p == a.over else "U")
        for p, a in sorted(
            (p, a) for a in diagram.arrows for p in (a.over, a.under)
        )
    )
    signs = tuple(sorted((a.label, a.sign) for a in diagram.arrows))
    return _conway((component,), signs, {})


def _check_parity(diagram: GaussDiagramK) -> None:
    """Necessary planarity condition: every arrow links evenly many arrows.

    Not sufficient: ``O1+U2+O3-U1+O2+U3-`` passes but is not planar.
    """
    for a in diagram.arrows:
        count = sum(1 for b in diagram.arrows if b is not a and _interleaved(a, b))
        if count % 2 != 0:
            raise NonRealizable(
                f"arrow {a.label} interleaves an odd number of arrows"
            )


def conway_a2_oracle(diagram: GaussDiagramK) -> int:
    """z^2 coefficient of the Conway polynomial; equals v2 for knots.

    Defined for realizable (planar) codes only.  Codes failing the parity
    check raise NonRealizable, but passing it does not make a code
    realizable (see the module docstring).
    """
    poly = conway_polynomial(diagram)
    return poly[2] if len(poly) > 2 else 0
