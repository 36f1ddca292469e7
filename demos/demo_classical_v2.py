"""The classical order-2 invariant from Gauss codes.

Parses extended Gauss codes, computes v2 from the descending-diagram
pairing difference, and cross-checks against an independent Conway
polynomial skein recursion.
"""

from haefliger import conway_a2_oracle, descending_set, parse_gauss_code, v2
from haefliger.classical import conway_polynomial, switch, x_pairing

CODES = {
    "unknot with a kink": "O1+U1+",
    "trefoil": "O1+U2+O3+U1+O2+U3+",
    "figure eight": "O1+U2-O4-U1+O3+U4-O2-U3+",
    "(2,5) torus knot": "O1+U2+O3+U4+O5+U1+O2+U3+O4+U5+",
    "(2,7) torus knot": "O1+U2+O3+U4+O5+U6+O7+U1+O2+U3+O4+U5+O6+U7+",
    "granny knot": "O1+U2+O3+U1+O2+U3+Os1+Us2+Os3+Us1+Os2+Us3+",
}

print(f"{'knot':22s} {'v2':>4s} {'oracle':>7s}  Conway polynomial")
for name, code in CODES.items():
    g = parse_gauss_code(code)
    poly = conway_polynomial(g)
    terms = " + ".join(
        f"{c}z^{i}" if i else str(c) for i, c in enumerate(poly) if c
    ) or "0"
    print(f"{name:22s} {v2(g):>4d} {conway_a2_oracle(g):>7d}  {terms}")

print("\n=== Anatomy of the trefoil computation ===")
g = parse_gauss_code(CODES["trefoil"])
print("X-pairing of the diagram:          ", x_pairing(g))
print("descending set from the basepoint: ", sorted(descending_set(g)))
print("v2 = (pairing difference) / 4 =    ", v2(g))
mirrored = switch(g, {a.label for a in g.arrows})  # every crossing changed
print("mirror image has the same v2:      ", v2(mirrored))
