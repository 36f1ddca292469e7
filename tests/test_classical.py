import gc
import tracemalloc
from itertools import product
from math import comb

import pytest

from haefliger.classical import (
    Arrow,
    GaussDiagramK,
    conway_a2_oracle,
    conway_polynomial,
    descending_set,
    parse_gauss_code,
    rotate_basepoint,
    switch,
    v2,
    x_pairing,
)
from haefliger.errors import LabelMismatch, MalformedToken, NonRealizable, ParseError

from helpers import (
    FIGURE_EIGHT,
    NON_PLANAR_CODES,
    braid_closure_code,
    connect_sum_code,
    interleaving_parity,
    torus_knot_code,
)

TREFOIL = "O1+U2+O3+U1+O2+U3+"


def test_parse_empty():
    assert parse_gauss_code("").n == 0
    assert v2(parse_gauss_code("")) == 0


def test_parse_trefoil():
    g = parse_gauss_code(TREFOIL)
    assert g.n == 3
    assert all(a.sign == 1 for a in g.arrows)
    assert parse_gauss_code("O1+ U2+, O3+ U1+ O2+ U3+").arrows == g.arrows


def test_parse_errors():
    with pytest.raises(MalformedToken):
        parse_gauss_code("O1+X2-")
    with pytest.raises(LabelMismatch):
        parse_gauss_code("O1+U1-")  # inconsistent signs
    with pytest.raises(LabelMismatch):
        parse_gauss_code("O1+O1+")  # two over passages
    with pytest.raises(LabelMismatch):
        parse_gauss_code("O1+U2+O2+")  # missing under passage of 1
    with pytest.raises(LabelMismatch):
        GaussDiagramK(parse_gauss_code(TREFOIL).arrows[:2])
    for over, sign in ((0.0, 1), (0, 1.0), (0, True)):
        with pytest.raises(LabelMismatch):
            GaussDiagramK((Arrow("1", over, 1, sign),))
    # Entry types are checked before anything is sorted or hashed.
    for entry in (Arrow("1", "a", 0, 1), Arrow(["x"], 0, 1, 1), Arrow(1, 0, 1, 1),
                  ("1", 0, 1, 1)):
        with pytest.raises(LabelMismatch):
            GaussDiagramK((entry,))


def test_arrows_are_stored_as_a_tuple_from_any_iterable():
    g = parse_gauss_code(TREFOIL)
    for arrows in (list(g.arrows), iter(g.arrows), (a for a in g.arrows)):
        built = GaussDiagramK(arrows)
        assert type(built.arrows) is tuple
        assert built == g and hash(built) == hash(g)
        assert v2(built) == v2(g)
    for bad in (None, 3, Arrow("1", 0, 1, 1)):
        with pytest.raises(LabelMismatch, match="iterable"):
            GaussDiagramK(bad)


def test_x_pairing_values():
    assert x_pairing(parse_gauss_code("")) == 0
    assert x_pairing(parse_gauss_code("O1+U1+")) == 0
    assert x_pairing(parse_gauss_code(TREFOIL)) == 3
    # Mirroring negates every sign, so products are unchanged.
    g = parse_gauss_code(TREFOIL)
    assert x_pairing(switch(g, {a.label for a in g.arrows})) == 3


def test_descending_set_and_switch():
    g = parse_gauss_code(TREFOIL)
    s = descending_set(g)
    assert s == {"2"}
    descended = switch(g, s)
    assert descending_set(descended) == set()
    with pytest.raises(LabelMismatch):
        switch(g, {"9"})


def test_switch_is_involution():
    g = parse_gauss_code(FIGURE_EIGHT)
    assert switch(switch(g, {"1", "3"}), {"1", "3"}) == g


def test_switch_takes_any_iterable_of_labels_but_a_str():
    g = parse_gauss_code(FIGURE_EIGHT)
    assert switch(g, ["1", "3"]) == switch(g, ("3", "1")) == switch(g, {"1", "3"})
    assert switch(g, []) == g
    for labels in ("1", "13", None, [["1"]], [1], ["1", 3]):
        with pytest.raises(LabelMismatch):
            switch(g, labels)


@pytest.mark.parametrize("shift", ["1", None, True, 1.5, 2.0],
                         ids=["str", "None", "bool", "float", "integral float"])
def test_rotate_basepoint_refuses_a_shift_that_is_not_an_int(shift):
    with pytest.raises(ParseError):
        rotate_basepoint(parse_gauss_code(TREFOIL), shift)


def test_v2_anchor_values():
    assert v2(parse_gauss_code(TREFOIL)) == 1
    assert v2(parse_gauss_code(FIGURE_EIGHT)) == -1
    assert v2(parse_gauss_code(torus_knot_code(5))) == 3
    assert v2(parse_gauss_code(torus_knot_code(7))) == 6
    assert v2(parse_gauss_code("O1+U1+")) == 0  # kinked unknot


def test_v2_mirror_invariance():
    for code in (TREFOIL, FIGURE_EIGHT, torus_knot_code(5)):
        g = parse_gauss_code(code)
        assert v2(switch(g, {a.label for a in g.arrows})) == v2(g)


def test_v2_basepoint_invariance():
    for code in (TREFOIL, FIGURE_EIGHT):
        g = parse_gauss_code(code)
        for shift in range(2 * g.n):
            assert v2(rotate_basepoint(g, shift)) == v2(g)


def test_v2_connect_sum_additive():
    granny = connect_sum_code(TREFOIL, TREFOIL)
    assert v2(parse_gauss_code(granny)) == 2
    square = connect_sum_code(TREFOIL, braid_closure_code([-1, -1, -1], 2))
    assert v2(parse_gauss_code(square)) == 2
    mixed = connect_sum_code(TREFOIL, FIGURE_EIGHT)
    assert v2(parse_gauss_code(mixed)) == 0


def test_v2_difference_identity_for_arbitrary_switch_sets(rng):
    # v2(G) - v2(G_S) = (x(G) - x(G_S)) / 4 for every switch set S, not
    # just the descending one.
    for code in (TREFOIL, FIGURE_EIGHT, torus_knot_code(5)):
        g = parse_gauss_code(code)
        labels = [a.label for a in g.arrows]
        for _ in range(10):
            s = {l for l in labels if rng.random() < 0.5}
            gs = switch(g, s)
            assert 4 * (v2(g) - v2(gs)) == x_pairing(g) - x_pairing(gs)


def test_conway_polynomial_values():
    assert conway_polynomial(parse_gauss_code("")) == (1,)
    assert conway_polynomial(parse_gauss_code(TREFOIL)) == (1, 0, 1)
    assert conway_polynomial(parse_gauss_code(FIGURE_EIGHT)) == (1, 0, -1)
    assert conway_polynomial(parse_gauss_code(torus_knot_code(5))) == (1, 0, 3, 0, 1)


def test_conway_mirror_of_knot_with_symmetric_polynomial():
    # The Conway polynomial of a knot is even; for the trefoil the
    # mirror has the same polynomial.
    g = parse_gauss_code(TREFOIL)
    mirrored = switch(g, {a.label for a in g.arrows})
    assert conway_polynomial(mirrored) == conway_polynomial(g)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_conway_polynomial_of_the_two_strand_torus_knots(n):
    # Closed form: the Conway polynomial of T(2, 2m+1) is the sum over j
    # of C(m+j, 2j) z^(2j).  A knot's polynomial is even, so its mirror
    # (every crossing switched) has the same one.
    m = n // 2
    expected = tuple(comb(m + d // 2, d) if d % 2 == 0 else 0 for d in range(2 * m + 1))
    g = parse_gauss_code(torus_knot_code(n))
    assert conway_polynomial(g) == expected
    assert conway_polynomial(switch(g, {a.label for a in g.arrows})) == expected


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_conway_polynomial_is_multiplicative_under_connected_sum(rng):
    # Every coefficient, not only z^2: the polynomial of K1 # K2 is the
    # product of the two, on random braid closures of at most 8 generators.
    # The recursion on a sum costs about the product of its summands'
    # costs (one sum of 5 + 8 crossings took 3 s), so a sum has at most 12.
    def closure():
        while True:
            strands = int(rng.integers(2, 5))
            word = [int(g) * int(rng.choice((-1, 1)))
                    for g in rng.integers(1, strands, size=int(rng.integers(1, 9)))]
            try:
                return braid_closure_code(word, strands), len(word)
            except ValueError:  # the closure is a link, not a knot
                continue

    pairs = 0
    while pairs < 12:
        (code1, n1), (code2, n2) = closure(), closure()
        if n1 + n2 > 12:
            continue
        pairs += 1
        summed = parse_gauss_code(connect_sum_code(code1, code2))
        assert conway_polynomial(summed) == _poly_product(
            conway_polynomial(parse_gauss_code(code1)),
            conway_polynomial(parse_gauss_code(code2)))


def test_oracle_rejects_nonrealizable():
    with pytest.raises(NonRealizable):
        conway_a2_oracle(parse_gauss_code("O1+O2+U1+U2+"))


@pytest.mark.parametrize("code", NON_PLANAR_CODES)
def test_non_planar_codes_are_refused(code):
    with pytest.raises(NonRealizable):
        parse_gauss_code(code)


def test_direct_construction_refuses_a_non_planar_code():
    # The trefoil's arrows with the sign of crossing 3 changed.
    arrows = tuple(
        Arrow(a.label, a.over, a.under, -1 if a.label == "3" else 1)
        for a in parse_gauss_code(TREFOIL).arrows
    )
    with pytest.raises(NonRealizable):
        GaussDiagramK(arrows)


def _pairings(free):
    """Every way to split the positions in ``free`` into pairs."""
    if not free:
        yield []
        return
    first, rest = free[0], free[1:]
    for i, other in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other), *tail]


def _signed_codes(n):
    """The arrows of every signed Gauss code on n crossings: each pairing
    of the 2n positions, each choice of over end, each choice of signs."""
    for pairs in _pairings(list(range(2 * n))):
        for flips in product((False, True), repeat=n):
            for signs in product((1, -1), repeat=n):
                yield tuple(
                    Arrow(str(i), *(pair[::-1] if flip else pair), sign)
                    for i, (pair, flip, sign) in enumerate(zip(pairs, flips, signs))
                )


def test_every_code_up_to_four_crossings_is_refused_or_gets_the_oracle_v2():
    accepted = 0
    for n in range(5):
        for arrows in _signed_codes(n):
            try:
                g = GaussDiagramK(arrows)
            except NonRealizable:
                continue
            assert interleaving_parity(arrows)
            assert v2(g) == conway_a2_oracle(g)
            accepted += 1
    # Of the 1, 4, 48, 960 and 26 880 codes on 0..4 crossings, 1, 4, 32,
    # 336 and 4160 are planar.
    assert accepted == 4533


def test_switch_and_rotate_keep_braid_closures_planar(rng):
    knots = 0
    while knots < 100:
        strands = int(rng.integers(2, 6))
        word = [int(g) * int(rng.choice((-1, 1)))
                for g in rng.integers(1, strands, size=int(rng.integers(1, 31)))]
        try:
            g = parse_gauss_code(braid_closure_code(word, strands))
        except ValueError:  # the closure is a link, not a knot
            continue
        knots += 1
        labels = [a.label for a in g.arrows]
        for shift in range(2 * g.n):
            rotate_basepoint(g, shift)
        for _ in range(5):
            switch(g, {l for l in labels if rng.random() < 0.5})


def test_v2_matches_oracle_on_braid_closures(rng):
    words = [
        ([1, 1, 1], 2),
        ([-1, -1, -1], 2),
        ([1, -2, 1, -2], 3),
        ([1] * 5, 2),
        ([1] * 7, 2),
        ([1, 1, 1, -2, 1, -2], 3),
        ([1, 1, -2, 1, -2, -2], 3),
        ([-1, 2, -1, 2], 3),
    ]
    for word, strands in words:
        g = parse_gauss_code(braid_closure_code(word, strands))
        assert v2(g) == conway_a2_oracle(g)


def test_v2_equals_the_two_pairing_formula_on_random_braid_closures(rng):
    knots = 0
    for _ in range(400):
        strands = int(rng.integers(2, 5))
        word = [int(g) * int(rng.choice((-1, 1)))
                for g in rng.integers(1, strands, size=int(rng.integers(1, 13)))]
        try:
            code = braid_closure_code(word, strands)
        except ValueError:  # the closure is a link, not a knot
            continue
        knots += 1
        g = parse_gauss_code(code)
        for shift in range(0, 2 * g.n, 3):
            h = rotate_basepoint(g, shift)
            difference = x_pairing(h) - x_pairing(switch(h, descending_set(h)))
            assert difference % 4 == 0
            assert v2(h) == difference // 4
    assert knots >= 50


def test_oracle_frees_its_memo_on_return():
    # A full collection also empties the interpreter's free lists (about
    # 1.5 MB of spare tuples after this call), which are not the oracle's.
    g = parse_gauss_code(torus_knot_code(11))
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert conway_a2_oracle(g) == 15
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
