"""Knot inputs for the classical workload and their known v2 values.

Everything here is independent of ``haefliger.classical``: Gauss codes
are written out directly or read off braid closures, and the expected
value of a braid closure comes from its reduced Burau matrix (Alexander
polynomial), not from the X-pairing or the skein recursion.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"([OU])([A-Za-z0-9]+?)([+-])")

FIGURE_EIGHT = "O1+U2-O4-U1+O3+U4-O2-U3+"


def torus_code(n: int) -> str:
    """Alternating Gauss code of the (2, n) torus knot, n odd."""
    return "".join(f"{'OU'[t % 2]}{t % n + 1}+" for t in range(2 * n))


def torus_v2(n: int) -> int:
    """v2 of T(2, n), the a2 coefficient of its Conway polynomial."""
    return (n * n - 1) // 8


def mirror(code: str) -> str:
    """Mirror image: every passage swapped and every sign negated."""
    return _TOKEN.sub(
        lambda t: ("U" if t[1] == "O" else "O") + t[2] + ("-" if t[3] == "+" else "+"),
        code,
    )


def relabel(code: str, prefix: str) -> str:
    return _TOKEN.sub(lambda t: f"{t[1]}{prefix}{t[2]}{t[3]}", code)


def connected_sum(*codes: str) -> str:
    """Connected sum at the basepoints: concatenation with fresh labels."""
    return "".join(relabel(code, f"s{i}x") for i, code in enumerate(codes))


def under_first(code: str) -> int:
    """Crossings whose first passage from the basepoint is the under one.

    The skein oracle recurses on exactly these, so for a fixed crossing
    count they set most of its cost.
    """
    seen: set[str] = set()
    count = 0
    for kind, label, _ in _TOKEN.findall(code):
        if label not in seen:
            seen.add(label)
            count += kind == "U"
    return count


def braid_code(word: list[int], strands: int) -> str | None:
    """Gauss code of the closure of a braid word, or None for a link.

    ``+i`` is the positive generator (strand at position i crosses over
    position i + 1), ``-i`` its inverse.
    """
    position = list(range(strands))
    passages: dict[int, list[str]] = {s: [] for s in range(strands)}
    for label, gen in enumerate(word, start=1):
        i = abs(gen) - 1
        a, b = position[i], position[i + 1]
        sign = "+" if gen > 0 else "-"
        over, under = (a, b) if gen > 0 else (b, a)
        passages[over].append(f"O{label}{sign}")
        passages[under].append(f"U{label}{sign}")
        position[i], position[i + 1] = b, a
    next_strand = {position[p]: p for p in range(strands)}
    tokens, strand, visited = [], 0, 0
    while True:
        tokens.extend(passages[strand])
        visited += 1
        strand = next_strand[strand]
        if strand == 0:
            break
    if visited != strands:
        return None
    return "".join(tokens)


# --- Laurent polynomials in t as {exponent: coefficient} ------------------


def _add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _det(mat: list[list[dict]]) -> dict:
    if len(mat) == 1:
        return mat[0][0]
    total: dict = {}
    for j, entry in enumerate(mat[0]):
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total = _add(total, _mul(entry, _det(minor)), (-1) ** j)
    return total


def _burau_generator(gen: int, size: int) -> list[list[dict]]:
    """Reduced Burau matrix of sigma_i^(+-1), of order strands - 1."""
    one, t, tinv = {0: 1}, {1: 1}, {-1: 1}
    mat = [[one if r == c else {} for c in range(size)] for r in range(size)]
    i = abs(gen) - 1  # 0-based generator index; row i is the changed one
    if gen > 0:
        mat[i][i] = {1: -1}
        if i > 0:
            mat[i][i - 1] = t
        if i + 1 < size:
            mat[i][i + 1] = one
    else:
        mat[i][i] = {-1: -1}
        if i > 0:
            mat[i][i - 1] = one
        if i + 1 < size:
            mat[i][i + 1] = tinv
    return mat


def braid_v2(word: list[int], strands: int) -> int:
    """a2 of the Conway polynomial of a braid closure that is a knot.

    Uses det(I - B(word)) = Delta(t) (1 + t + ... + t^(s-1)) up to a unit,
    with B the reduced Burau representation, then reads a2 off the
    symmetrised Alexander polynomial as sum(c_k k^2) / 2.
    """
    size = strands - 1
    prod = [[{0: 1} if r == c else {} for c in range(size)] for r in range(size)]
    for gen in word:
        g = _burau_generator(gen, size)
        prod = [
            [
                _sum_products([(prod[r][k], g[k][c]) for k in range(size)])
                for c in range(size)
            ]
            for r in range(size)
        ]
    ident_minus = [
        [_add({0: 1} if r == c else {}, prod[r][c], -1) for c in range(size)]
        for r in range(size)
    ]
    numerator = _det(ident_minus)
    low = min(numerator)
    coeffs = [numerator.get(low + k, 0) for k in range(max(numerator) - low + 1)]
    quotient = _divide_by_repunit(coeffs, strands)
    width = len(quotient) - 1
    sign = 1 if sum(quotient) > 0 else -1
    # Exponent k - width/2 after centring, so (k - width/2)^2 = (2k - width)^2 / 4.
    scaled = sum(c * (2 * k - width) ** 2 for k, c in enumerate(quotient))
    return sign * scaled // 8


def _sum_products(pairs) -> dict:
    total: dict = {}
    for a, b in pairs:
        if a and b:
            total = _add(total, _mul(a, b))
    return total


def _divide_by_repunit(coeffs: list[int], strands: int) -> list[int]:
    """Exact division of a polynomial by 1 + t + ... + t^(strands-1)."""
    rem = list(coeffs)
    out = [0] * (len(rem) - strands + 1)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + strands - 1]
        out[k] = c
        for j in range(strands):
            rem[k + j] -= c
    if any(rem):
        raise ValueError("Burau determinant is not divisible by the repunit")
    return out
