"""Combinatorial shadow of an almost-planar long embedding.

A diagram records the crossings ``A_1, ..., A_m`` of the projected
embedding together with the pairwise linking numbers of the double point
sets ``L_i^e`` (``e = 0`` lower sheet, ``e = 1`` upper sheet) and,
optionally, their writhes.  The ambient embedding itself is never
represented: the crossing-change calculus only consumes this shadow.

All values are immutable; operations return new diagrams.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import AsymmetricEntry, IndexOutOfRange, ParseError


class LiftId(NamedTuple):
    """One sheet of a crossing: crossing index (1-based) and level 0/1."""

    crossing: int
    level: int


PairKey = tuple[LiftId, LiftId]


def lift_lt(a: LiftId, b: LiftId) -> bool:
    """Strict total order: (i,e) < (j,e') iff i < j, or i = j with e=0, e'=1."""
    if a.crossing != b.crossing:
        return a.crossing < b.crossing
    return a.level == 0 and b.level == 1


def pair_key(a: LiftId, b: LiftId) -> PairKey:
    """Canonical (sorted) key for the unordered pair {a, b}."""
    if a == b:
        raise AsymmetricEntry(f"pair of identical lifts {a}")
    return (a, b) if lift_lt(a, b) else (b, a)


class _Columns(NamedTuple):
    """A diagram's ``lk`` entries as parallel int lists, in ``lk`` order.

    Entry n pairs a lift on crossing ``lower[n]`` with one on crossing
    ``upper[n]`` and has signed value ``signed[n]`` = (-1)^(e+f) lk;
    ``pair_sum`` is the sum of ``signed`` and ``writhe_sum`` the total
    writhe.
    """

    lower: list[int]
    upper: list[int]
    signed: list[int]
    pair_sum: int
    writhe_sum: int


@dataclass(frozen=True)
class CrossingDiagram:
    """Crossing diagram: dimension parameter k, m crossings, linking data.

    ``lk`` maps canonically ordered unordered pairs of lifts to integer
    linking numbers; missing pairs mean linking number 0 (split
    components).  ``writhe`` maps lifts to integer writhes, default 0.

    Construction checks every invariant, so every instance is valid:
    k, m, every crossing index, level and value is exactly an ``int``
    (else :class:`ParseError`, as in the JSON format; bool is refused);
    k >= 1 and m >= 0, and every lift of every key names a crossing in
    1..m and a level 0/1 (else :class:`IndexOutOfRange`); and every
    ``lk`` key is in canonical order (else :class:`AsymmetricEntry`,
    since one pair could otherwise be stored twice).

    The diagram is read once, at construction.  ``lk`` and ``writhe``
    are copied and exposed as read-only mappings, so changing the dicts
    passed in changes nothing here.  The same pass that checks an entry
    also records, in integer columns, the crossings of its two lifts and
    its signed value (-1)^(e+f) lk, plus the signed pair sum and the
    total writhe; the calculus reads only these, so a query costs one
    pass over plain int lists (or O(1) for the totals), never a walk of
    the keyed mapping.
    """

    k: int
    m: int
    lk: Mapping[PairKey, int] = field(default_factory=dict)
    writhe: Mapping[LiftId, int] = field(default_factory=dict)
    _columns: _Columns = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.k) is not int or type(self.m) is not int:
            raise ParseError(f"k and m must be integers, got k={self.k!r}, m={self.m!r}")
        if self.k < 1:
            raise IndexOutOfRange(f"dimension parameter k={self.k} must be positive")
        if self.m < 0:
            raise IndexOutOfRange(f"crossing count m={self.m} must be non-negative")
        m = self.m
        lk = dict(self.lk)
        writhe = dict(self.writhe)
        lower: list[int] = []
        upper: list[int] = []
        signed: list[int] = []
        for key, value in lk.items():
            (i, e), (j, f) = key
            # Every field an int, both lifts in range and lift_lt(a, b), in
            # one test that allocates nothing: every diagram built pays it
            # once per entry.
            if not (type(i) is type(j) is type(e) is type(f) is type(value) is int
                    and 0 < i <= j <= m and e in (0, 1) and f in (0, 1)
                    and (i < j or e < f)):
                a, b = key
                _check_lift(a, m)
                _check_lift(b, m)
                if not lift_lt(a, b):
                    raise AsymmetricEntry(f"key {key} not in canonical order")
                raise ParseError(f"lk value for {key} must be an integer, got {value!r}")
            lower.append(i)
            upper.append(j)
            signed.append(-value if e != f else value)
        for lift, value in writhe.items():
            _check_lift(lift, m)
            if type(value) is not int:
                raise ParseError(f"writhe of {lift} must be an integer, got {value!r}")
        object.__setattr__(self, "lk", MappingProxyType(lk))
        object.__setattr__(self, "writhe", MappingProxyType(writhe))
        object.__setattr__(self, "_columns", _Columns(
            lower, upper, signed, sum(signed), sum(writhe.values())))

    def __reduce__(self):
        # A mappingproxy cannot be pickled; rebuild from plain dicts.
        return type(self), (self.k, self.m, dict(self.lk), dict(self.writhe))

    def lk_value(self, a: LiftId, b: LiftId) -> int:
        return self.lk.get(pair_key(a, b), 0)

    def checked_crossings(self, indices: Iterable[int]) -> set[int]:
        """The given crossing indices as a set of ints in 1..m.

        Each index must be an integer (``operator.index``) other than a
        bool, as in the JSON format; anything else is IndexOutOfRange.
        """
        s = set()
        for i in indices:
            try:
                n = operator.index(i)
            except TypeError:
                n = None
            if n is None or isinstance(i, bool):
                raise IndexOutOfRange(f"crossing index {i!r} is not an integer")
            if not 1 <= n <= self.m:
                raise IndexOutOfRange(f"crossing {n} outside 1..{self.m}")
            s.add(n)
        return s


def _check_lift(lift: LiftId, m: int) -> None:
    if type(lift.crossing) is not int or type(lift.level) is not int:
        raise ParseError(f"crossing and level of {lift!r} must be integers")
    if not 1 <= lift.crossing <= m:
        raise IndexOutOfRange(f"crossing {lift.crossing} outside 1..{m}")
    if lift.level not in (0, 1):
        raise IndexOutOfRange(f"level {lift.level} not in {{0, 1}}")


def make_diagram(
    k: int,
    m: int,
    lk: Iterable[tuple[LiftId, LiftId, int]] = (),
    writhe: Iterable[tuple[LiftId, int]] = (),
) -> CrossingDiagram:
    """Build a diagram from (lift, lift, value) entries in any order.

    Each pair is stored under its canonical key.  Duplicate unordered
    pairs with conflicting values raise :class:`AsymmetricEntry`;
    consistent duplicates are collapsed.  Zero entries are dropped
    (missing means 0).
    """
    table: dict[PairKey, int] = {}
    for a, b, value in lk:
        key = pair_key(a, b)
        if key in table and table[key] != value:
            raise AsymmetricEntry(
                f"conflicting values {table[key]} and {value} for pair {key}"
            )
        table[key] = value
    wr: dict[LiftId, int] = {}
    for lift, value in writhe:
        if lift in wr and wr[lift] != value:
            raise AsymmetricEntry(f"conflicting writhes for {lift}")
        wr[lift] = value
    return CrossingDiagram(
        k=k,
        m=m,
        lk={key: v for key, v in table.items() if v != 0},
        writhe={l: v for l, v in wr.items() if v != 0},
    )


def crossing_change(d: CrossingDiagram, switched: Iterable[int]) -> CrossingDiagram:
    """Diagram of the embedding after crossing changes at the given indices.

    Swaps the two levels of every switched crossing in all linking keys
    and writhe keys; values, m and k are unchanged.  Applying the same
    set twice is the identity.
    """
    s = d.checked_crossings(switched)
    flip = {LiftId(i, e): LiftId(i, 1 - e) for i in s for e in (0, 1)}
    # A key on one crossing maps to itself.  Any other key stays canonical
    # when its levels flip, since the lift order compares crossings first.
    new_lk = {}
    for key, v in d.lk.items():
        a, b = key
        if a.crossing != b.crossing:
            key = (flip.get(a, a), flip.get(b, b))
        new_lk[key] = v
    new_writhe = {flip.get(l, l): v for l, v in d.writhe.items()}
    return CrossingDiagram(k=d.k, m=d.m, lk=new_lk, writhe=new_writhe)


# --- JSON file format -------------------------------------------------------
#
# {"k": int, "m": int,
#  "lk": [{"i": int, "ei": 0|1, "j": int, "ej": 0|1, "value": int}, ...],
#  "writhe": [{"i": int, "e": 0|1, "value": int}, ...]}


def diagram_to_dict(d: CrossingDiagram) -> dict:
    lk = [
        {"i": a.crossing, "ei": a.level, "j": b.crossing, "ej": b.level, "value": v}
        for (a, b), v in sorted(d.lk.items())
    ]
    writhe = [
        {"i": l.crossing, "e": l.level, "value": v}
        for l, v in sorted(d.writhe.items())
    ]
    return {"k": d.k, "m": d.m, "lk": lk, "writhe": writhe}


def _non_integer(where: str, row: dict, keys: tuple[str, ...]) -> ParseError:
    key = next(key for key in keys if type(row[key]) is not int)
    return ParseError(f"{where}: {key} must be an integer, got {row[key]!r}")


def diagram_from_dict(data: dict) -> CrossingDiagram:
    """Diagram from the JSON document above; every field must be an int.

    Types are compared exactly, so floats, strings and bool (an int
    subclass) raise ParseError naming the entry and field.  A pair or
    lift listed twice raises ParseError; zero values are dropped.
    """
    # One LiftId per lift, shared by every key that names it: a LiftId
    # equals and hashes as its (i, e) tuple, so the tuple looks it up.
    lifts: dict[tuple[int, int], LiftId] = {}
    try:
        k, m = data["k"], data["m"]
        if {type(k), type(m)} != {int}:
            raise _non_integer("diagram", data, ("k", "m"))
        lk: dict[PairKey, int] = {}
        for pos, row in enumerate(data.get("lk", [])):
            i, ei, j, ej, value = row["i"], row["ei"], row["j"], row["ej"], row["value"]
            if not type(i) is type(ei) is type(j) is type(ej) is type(value) is int:
                raise _non_integer(f"lk[{pos}]", row, ("i", "ei", "j", "ej", "value"))
            a, b = (i, ei), (j, ej)
            # With both levels 0/1 and two distinct lifts, tuple order is
            # the lift order.  Otherwise pair_key raises, or builds the
            # key that the constructor refuses.
            if ei in (0, 1) and ej in (0, 1) and a != b:
                if b < a:
                    a, b = b, a
                key = (lifts.get(a) or lifts.setdefault(a, LiftId(*a)),
                       lifts.get(b) or lifts.setdefault(b, LiftId(*b)))
            else:
                key = pair_key(LiftId(i, ei), LiftId(j, ej))
            if key in lk:
                raise ParseError(f"duplicate lk entry for pair {key}")
            lk[key] = value
        writhe: dict[LiftId, int] = {}
        for pos, row in enumerate(data.get("writhe", [])):
            i, e, value = row["i"], row["e"], row["value"]
            if not type(i) is type(e) is type(value) is int:
                raise _non_integer(f"writhe[{pos}]", row, ("i", "e", "value"))
            lift = lifts.get((i, e)) or LiftId(i, e)
            if lift in writhe:
                raise ParseError(f"duplicate writhe entry for {lift}")
            writhe[lift] = value
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed diagram document: {exc}") from exc
    return CrossingDiagram(
        k=k,
        m=m,
        lk={key: v for key, v in lk.items() if v},
        writhe={l: v for l, v in writhe.items() if v},
    )
