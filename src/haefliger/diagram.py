"""Combinatorial shadow of an almost-planar long embedding.

A diagram records the crossings ``A_1, ..., A_m`` of the projected
embedding together with the pairwise linking numbers of the double point
sets ``L_i^e`` (``e = 0`` lower sheet, ``e = 1`` upper sheet) and,
optionally, their writhes.  The ambient embedding itself is never
represented: the crossing-change calculus only consumes this shadow.

All values are immutable; operations return new diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class CrossingDiagram:
    """Crossing diagram: dimension parameter k, m crossings, linking data.

    ``lk`` maps canonically ordered unordered pairs of lifts to integer
    linking numbers; missing pairs mean linking number 0 (split
    components).  ``writhe`` maps lifts to integer writhes, default 0.
    """

    k: int
    m: int
    lk: Mapping[PairKey, int] = field(default_factory=dict)
    writhe: Mapping[LiftId, int] = field(default_factory=dict)

    def lk_value(self, a: LiftId, b: LiftId) -> int:
        return self.lk.get(pair_key(a, b), 0)

    def writhe_value(self, lift: LiftId) -> int:
        return self.writhe.get(lift, 0)

    def lifts(self) -> list[LiftId]:
        """All 2m lifts in the canonical order."""
        return [LiftId(i, e) for i in range(1, self.m + 1) for e in (0, 1)]


def _check_lift(lift: LiftId, m: int) -> None:
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
    """Build and validate a diagram from (lift, lift, value) entries.

    Duplicate unordered pairs with conflicting values raise
    :class:`AsymmetricEntry`; consistent duplicates are collapsed.
    Zero entries are dropped (missing means 0).
    """
    if k < 1:
        raise IndexOutOfRange(f"dimension parameter k={k} must be positive")
    if m < 0:
        raise IndexOutOfRange(f"crossing count m={m} must be non-negative")
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
    d = CrossingDiagram(
        k=k,
        m=m,
        lk={key: v for key, v in table.items() if v != 0},
        writhe={l: v for l, v in wr.items() if v != 0},
    )
    return validate_diagram(d)


def validate_diagram(d: CrossingDiagram) -> CrossingDiagram:
    """Check all diagram invariants and return the diagram unchanged.

    Idempotent.  Raises :class:`IndexOutOfRange` if any key references a
    crossing outside 1..m, :class:`AsymmetricEntry` if a key is not in
    canonical order (which would allow two storages of one pair).
    """
    for (a, b) in d.lk:
        _check_lift(a, d.m)
        _check_lift(b, d.m)
        if not lift_lt(a, b):
            raise AsymmetricEntry(f"key {(a, b)} not in canonical order")
    for lift in d.writhe:
        _check_lift(lift, d.m)
    return d


def crossing_change(d: CrossingDiagram, switched: Iterable[int]) -> CrossingDiagram:
    """Diagram of the embedding after crossing changes at the given indices.

    Swaps the two levels of every switched crossing in all linking keys
    and writhe keys; values, m and k are unchanged.  Applying the same
    set twice is the identity.
    """
    s = set(switched)
    for i in s:
        if not 1 <= i <= d.m:
            raise IndexOutOfRange(f"crossing {i} outside 1..{d.m}")

    def flip(lift: LiftId) -> LiftId:
        if lift.crossing in s:
            return LiftId(lift.crossing, 1 - lift.level)
        return lift

    new_lk = {pair_key(flip(a), flip(b)): v for (a, b), v in d.lk.items()}
    new_writhe = {flip(l): v for l, v in d.writhe.items()}
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
    subclass) raise ParseError naming the entry and field.
    """
    try:
        k, m = data["k"], data["m"]
        if {type(k), type(m)} != {int}:
            raise _non_integer("diagram", data, ("k", "m"))
        entries = []
        seen: set[PairKey] = set()
        for pos, row in enumerate(data.get("lk", [])):
            i, ei, j, ej, value = row["i"], row["ei"], row["j"], row["ej"], row["value"]
            if {type(i), type(ei), type(j), type(ej), type(value)} != {int}:
                raise _non_integer(f"lk[{pos}]", row, ("i", "ei", "j", "ej", "value"))
            a, b = LiftId(i, ei), LiftId(j, ej)
            key = pair_key(a, b)
            if key in seen:
                raise ParseError(f"duplicate lk entry for pair {key}")
            seen.add(key)
            entries.append((a, b, value))
        writhes = []
        seen_w: set[LiftId] = set()
        for pos, row in enumerate(data.get("writhe", [])):
            i, e, value = row["i"], row["e"], row["value"]
            if {type(i), type(e), type(value)} != {int}:
                raise _non_integer(f"writhe[{pos}]", row, ("i", "e", "value"))
            lift = LiftId(i, e)
            if lift in seen_w:
                raise ParseError(f"duplicate writhe entry for {lift}")
            seen_w.add(lift)
            writhes.append((lift, value))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed diagram document: {exc}") from exc
    return make_diagram(k, m, entries, writhes)
