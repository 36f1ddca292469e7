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
from collections.abc import Mapping
from types import MappingProxyType
from typing import Iterable, NamedTuple

from ._record import Record
from .errors import AsymmetricEntry, HaefligerError, IndexOutOfRange, ParseError


class LiftId(NamedTuple):
    """One sheet of a crossing: crossing index (1-based) and level 0/1,
    ordered as a tuple: by crossing, then level 0 before 1."""

    crossing: int
    level: int


PairKey = tuple[LiftId, LiftId]


def pair_key(a: LiftId, b: LiftId) -> PairKey:
    """Canonical (sorted) key for the unordered pair {a, b}."""
    if a == b:
        raise AsymmetricEntry(f"pair of identical lifts {a}")
    return (a, b) if a < b else (b, a)


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


_EMPTY: Mapping = MappingProxyType({})


class CrossingDiagram(Record):
    """Crossing diagram: dimension parameter k, m crossings, linking data.

    ``lk`` maps canonically ordered unordered pairs of lifts to integer
    linking numbers; missing pairs mean linking number 0 (split
    components).  ``writhe`` maps lifts to integer writhes, default 0.

    Construction checks every invariant, so every instance is valid:
    ``lk`` and ``writhe`` are mappings (rows go to :func:`make_diagram`),
    every lift is a :class:`LiftId`, and k, m, every crossing index, level
    and value is exactly an ``int`` (else :class:`ParseError`, as in the
    JSON format; bool is refused);
    k >= 1 and m >= 0, and every lift of every key names a crossing in
    1..m and a level 0/1 (else :class:`IndexOutOfRange`); and every
    ``lk`` key is in canonical order (else :class:`AsymmetricEntry`,
    since one pair could otherwise be stored twice).

    The diagram is read once, at construction.  ``lk`` and ``writhe``
    are copied and exposed as read-only mappings, so changing the dicts
    passed in changes nothing here.  A zero value is checked like any
    other, then left out of the copy (missing means 0), so every route
    drops zeros.  The same pass that checks an entry
    also records, in integer columns, the crossings of its two lifts and
    its signed value (-1)^(e+f) lk, plus the signed pair sum and the
    total writhe; the calculus reads only these, so a query costs one
    pass over plain int lists (or O(1) for the totals), never a walk of
    the keyed mapping.  The columns are not a field, so equality and
    repr skip them.

    Three routes build a diagram, and each checks every entry once:

    * the constructor (and :func:`make_diagram`, which calls it) checks
      everything above;
    * :func:`diagram_from_dict` checks the same rules in its own row loop,
      where it also drops zero rows and builds the columns;
    * :func:`crossing_change` derives the switched diagram from a valid
      one, which keeps every rule true, and updates the columns.

    The last two hand their finished parts to the private classmethod
    ``_from_checked``.  Its contract: ``k`` and ``m`` are valid, ``lk``
    and ``writhe`` are fresh dicts that satisfy every rule above, hold
    no zero value and are not used by the caller afterwards, and
    ``columns`` lists ``lk``'s entries in its order, with the sums (its
    lists are never changed, so diagrams may share them).  It checks
    nothing and only assigns, with the code that ends the constructor.
    """

    k: int
    m: int
    lk: Mapping[PairKey, int]
    writhe: Mapping[LiftId, int]
    _columns: _Columns
    _fields = ("k", "m", "lk", "writhe")
    __slots__ = (*_fields, "_columns")

    def __init__(self, k: int, m: int, lk: Mapping[PairKey, int] = _EMPTY,
                 writhe: Mapping[LiftId, int] = _EMPTY) -> None:
        if type(m) is not int:
            raise ParseError(f"m must be an int, got {m!r}")
        _check_k(k)
        if m < 0:
            raise IndexOutOfRange(f"crossing count m={m} must be non-negative")
        for name, table in (("lk", lk), ("writhe", writhe)):
            if not isinstance(table, Mapping):
                raise ParseError(f"{name} must be a mapping, not {type(table).__name__};"
                                 " make_diagram builds a diagram from rows")
        kept_lk = {}
        kept_writhe = {}
        lower: list[int] = []
        upper: list[int] = []
        signed: list[int] = []
        for key, value in lk.items():
            try:
                (i, e), (j, f) = a, b = key
            except (TypeError, ValueError):
                raise ParseError(f"lk key {key!r} is not a pair of LiftIds") from None
            # Both lifts LiftIds, every field an int, both lifts in range and
            # a < b, in one test that allocates nothing: every
            # diagram constructed pays it once per entry.
            if not (type(a) is type(b) is LiftId
                    and type(i) is type(j) is type(e) is type(f) is type(value) is int
                    and 0 < i <= j <= m and e in (0, 1) and f in (0, 1)
                    and (i < j or e < f)):
                _check_lift(a, m)
                _check_lift(b, m)
                if not a < b:
                    raise AsymmetricEntry(f"key {key} not in canonical order")
                raise ParseError(f"lk value for {key} must be an integer, got {value!r}")
            if value:
                kept_lk[key] = value
                lower.append(i)
                upper.append(j)
                signed.append(-value if e != f else value)
        for lift, value in writhe.items():
            _check_lift(lift, m)
            if type(value) is not int:
                raise ParseError(f"writhe of {lift} must be an integer, got {value!r}")
            if value:
                kept_writhe[lift] = value
        self._assign(k, m, kept_lk, kept_writhe, _Columns(
            lower, upper, signed, sum(signed), sum(kept_writhe.values())))

    @classmethod
    def _from_checked(cls, k: int, m: int, lk: dict[PairKey, int],
                      writhe: dict[LiftId, int], columns: _Columns) -> CrossingDiagram:
        """A diagram of parts that already satisfy every rule (see the
        class docstring); nothing is checked or copied."""
        d = object.__new__(cls)
        d._assign(k, m, lk, writhe, columns)
        return d

    def _assign(self, k: int, m: int, lk: dict[PairKey, int],
                writhe: dict[LiftId, int], columns: _Columns) -> None:
        self._set(k, m, MappingProxyType(lk), MappingProxyType(writhe))
        object.__setattr__(self, "_columns", columns)

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


def _check_k(k: int) -> None:
    """k is an int (else ParseError) and at least 1 (else IndexOutOfRange)."""
    if type(k) is not int:
        raise ParseError(f"k must be an int, got {k!r}")
    if k < 1:
        raise IndexOutOfRange(f"dimension parameter k={k} must be positive")


def _lift_error(lift: LiftId, m: int) -> HaefligerError | None:
    """The error that ``lift`` breaks as part of an m-crossing diagram, if any."""
    if type(lift.crossing) is not int or type(lift.level) is not int:
        return ParseError(f"crossing and level of {lift!r} must be integers")
    if not 1 <= lift.crossing <= m:
        return IndexOutOfRange(f"crossing {lift.crossing} outside 1..{m}")
    if lift.level not in (0, 1):
        return IndexOutOfRange(f"level {lift.level} not in {{0, 1}}")
    return None


def _check_lift(lift: LiftId, m: int) -> None:
    if type(lift) is not LiftId:
        raise ParseError(f"{lift!r} is not a LiftId")
    error = _lift_error(lift, m)
    if error:
        raise error


def make_diagram(
    k: int,
    m: int,
    lk: Iterable[tuple[LiftId, LiftId, int]] = (),
    writhe: Iterable[tuple[LiftId, int]] = (),
) -> CrossingDiagram:
    """Build a diagram from (lift, lift, value) entries in any order.

    Each pair is stored under its canonical key.  Duplicate unordered
    pairs with conflicting values raise :class:`AsymmetricEntry`;
    consistent duplicates are collapsed.  An entry that is not a
    (LiftId, LiftId, value) or (LiftId, value) row raises ParseError; the
    constructor checks every entry and drops the zero ones.
    """
    table: dict[PairKey, int] = {}
    for row in lk:
        try:
            a, b, value = row
        except (TypeError, ValueError):
            a = b = None
        if type(a) is not LiftId or type(b) is not LiftId:
            raise ParseError(f"lk entry {row!r} is not (LiftId, LiftId, value)")
        key = pair_key(a, b)
        if key in table and table[key] != value:
            raise AsymmetricEntry(
                f"conflicting values {table[key]} and {value} for pair {key}"
            )
        table[key] = value
    wr: dict[LiftId, int] = {}
    for row in writhe:
        try:
            lift, value = row
        except (TypeError, ValueError):
            lift = None
        if type(lift) is not LiftId:
            raise ParseError(f"writhe entry {row!r} is not (LiftId, value)")
        if lift in wr and wr[lift] != value:
            raise AsymmetricEntry(f"conflicting writhes for {lift}")
        wr[lift] = value
    return CrossingDiagram(k=k, m=m, lk=table, writhe=wr)


def crossing_change(d: CrossingDiagram, switched: Iterable[int]) -> CrossingDiagram:
    """Diagram of the embedding after crossing changes at the given indices.

    Swaps the two levels of every switched crossing in all linking keys
    and writhe keys; values, m and k are unchanged.  Applying the same
    set twice is the identity.

    The result is derived from ``d`` in one pass and not checked again:
    the swap keeps every key in range and canonical, the crossing columns
    and the total writhe carry over, and a signed value changes sign
    exactly when one of its entry's two crossings is switched.
    """
    s = d.checked_crossings(switched)
    flip = {LiftId(i, e): LiftId(i, 1 - e) for i in s for e in (0, 1)}
    c = d._columns
    lk = {}
    signed = []
    # A key on one crossing, or on two switched ones, keeps its signed
    # value; a key on one crossing also maps to itself.  Any other key
    # stays canonical when its levels flip, since the lift order compares
    # crossings first.
    for (key, value), i, j, x in zip(d.lk.items(), c.lower, c.upper, c.signed):
        if i in s:
            a, b = key
            if j not in s:
                key, x = (flip[a], b), -x
            elif i != j:
                key = (flip[a], flip[b])
        elif j in s:
            a, b = key
            key, x = (a, flip[b]), -x
        lk[key] = value
        signed.append(x)
    writhe = {flip.get(l, l): v for l, v in d.writhe.items()}
    return CrossingDiagram._from_checked(d.k, d.m, lk, writhe, _Columns(
        c.lower, c.upper, signed, sum(signed), c.writhe_sum))


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

    The row loop checks every rule of the constructor and builds the
    columns itself, so each row is read once.  Errors come in the order
    of reading the whole document first and checking ranges after: any
    ParseError or AsymmetricEntry of a row wins over a range error
    (IndexOutOfRange) of an earlier one.  A zero row is checked like any
    other, repeats included, and dropped once every row is read.
    """
    # One LiftId per lift, shared by every key that names it, found by
    # 2i + e: with levels 0/1 that number orders lifts as tuples do.
    lifts: dict[int, LiftId] = {}
    lk: dict[PairKey, int] = {}
    writhe: dict[LiftId, int] = {}
    lower: list[int] = []
    upper: list[int] = []
    signed: list[int] = []
    deferred: HaefligerError | None = None
    try:
        k, m = data["k"], data["m"]
        if {type(k), type(m)} != {int}:
            raise _non_integer("diagram", data, ("k", "m"))
        top = m + m + 1
        for pos, row in enumerate(data.get("lk", [])):
            i, ei, j, ej, value = row["i"], row["ei"], row["j"], row["ej"], row["value"]
            if not type(i) is type(ei) is type(j) is type(ej) is type(value) is int:
                raise _non_integer(f"lk[{pos}]", row, ("i", "ei", "j", "ej", "value"))
            x, y = i + i + ei, j + j + ej
            if y < x:
                x, y, i, j = y, x, j, i
            if 1 < x < y <= top and 0 <= ei <= 1 and 0 <= ej <= 1:
                key = (lifts.get(x) or lifts.setdefault(x, LiftId(i, x - i - i)),
                       lifts.get(y) or lifts.setdefault(y, LiftId(j, y - j - j)))
            else:
                # pair_key refuses identical lifts now; a range error waits
                # until the whole document is read.
                a, b = key = pair_key(LiftId(row["i"], ei), LiftId(row["j"], ej))
                deferred = deferred or _lift_error(a, m) or _lift_error(b, m)
            if key in lk:
                raise ParseError(f"duplicate lk entry for pair {key}")
            lk[key] = value
            if value:
                lower.append(i)
                upper.append(j)
                signed.append(value if ei == ej else -value)
        for pos, row in enumerate(data.get("writhe", [])):
            i, e, value = row["i"], row["e"], row["value"]
            if not type(i) is type(e) is type(value) is int:
                raise _non_integer(f"writhe[{pos}]", row, ("i", "e", "value"))
            lift = 0 <= e <= 1 and lifts.get(i + i + e) or LiftId(i, e)
            if lift in writhe:
                raise ParseError(f"duplicate writhe entry for {lift}")
            deferred = deferred or _lift_error(lift, m)
            writhe[lift] = value
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed diagram document: {exc}") from exc
    _check_k(k)
    if m < 0:
        raise IndexOutOfRange(f"crossing count m={m} must be non-negative")
    if deferred:
        raise deferred
    if len(lk) > len(signed):  # zero rows were read; missing means 0
        lk = {key: value for key, value in lk.items() if value}
    if 0 in writhe.values():
        writhe = {lift: value for lift, value in writhe.items() if value}
    return CrossingDiagram._from_checked(k, m, lk, writhe, _Columns(
        lower, upper, signed, sum(signed), sum(writhe.values())))
