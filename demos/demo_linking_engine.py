"""Tour of the exact PL linking engine.

Builds a few explicit links, computes their linking numbers by exact
signed crossing counting, and compares with the floating-point Gauss
integral.
"""

import numpy as np

from haefliger import (
    PolyCurve,
    ProjectionAxis,
    circle,
    gauss_linking_quadrature,
    linking_number_pl,
    writhe_pl,
)

print("=== Hopf link ===")
c1 = circle((0, 0, 0), 2.0, (0, 0, 1), n=48, phase=0.13)
c2 = circle((2, 0, 0), 2.0, (0, 1, 0.2), n=48, phase=0.29)
print("exact lk:", linking_number_pl(c1, c2))
print("Gauss integral (256 subdivisions):",
      round(gauss_linking_quadrature(c1, c2, 256), 6))
print("reversed component:", linking_number_pl(c1.reversed(), c2))

print("\n=== (2, 2n) torus links ===")
for n in (1, 2, 3):
    core = circle((0, 0, 0), 3.0, (0, 0, -1), n=96, phase=0.07)
    t = 2.0 * np.pi * (np.arange(96) + 0.21) / 96
    w = n * t + 0.4
    companion = PolyCurve(
        [
            ((3.0 + np.cos(wi)) * np.cos(ti),
             (3.0 + np.cos(wi)) * np.sin(ti),
             np.sin(wi))
            for ti, wi in zip(t, w)
        ]
    )
    print(f"n = {n}: lk =", linking_number_pl(core, companion))

print("\n=== Axis independence ===")
rng = np.random.default_rng(0)
for _ in range(3):
    d = rng.normal(size=3)
    print("axis", np.round(d, 3), "->", linking_number_pl(c1, c2, ProjectionAxis(tuple(d))))

print("\n=== Writhe ===")
kink = PolyCurve([(0, 0, 0), (2, 2, 0), (2, 0, 1), (0, 2, 1)])
print("single negative kink:", writhe_pl(kink))
