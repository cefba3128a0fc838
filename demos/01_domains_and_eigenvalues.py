"""Build the three domain shapes, check their measures against geometry,
and compare the principal Dirichlet eigenvalue with analytic values.

Run:  python demos/01_domains_and_eigenvalues.py
"""

import numpy as np

from competelab import (build_disc, build_rectangle, build_wedge, lambda1,
                        scale_mask)

print("=== discrete domains ===")
square = build_rectangle(1.0, 1.0, 1 / 64)
disc = build_disc(1.0, 1 / 64)
wedge = build_wedge(2.0, 1 / 64)

for mask, exact, label in ((square, 1.0, "unit square"),
                           (disc, np.pi, "unit disc"),
                           (wedge, 0.5, "wedge m=2")):
    print(f"{label:12s} nodes {mask.n_interior:6d}  measure {mask.measure:.5f}"
          f"  exact {exact:.5f}  gap {(mask.measure - exact) / exact:+.2%}")

print("\nwedges shrink into themselves under x -> delta*x:")
for delta in (0.25, 0.5, 0.9):
    sub = scale_mask(wedge, delta)
    inside = bool(np.all(~sub.interior | wedge.interior))
    print(f"  delta={delta}: {sub.n_interior:5d} nodes, subset={inside}")

print("\n=== principal eigenvalues ===")
print(f"square: {lambda1(square):.5f}   analytic 2*pi^2 = {2 * np.pi ** 2:.5f}")
j01 = 2.404825557695773   # first zero of the Bessel function J0
print(f"disc:   {lambda1(disc):.5f}   analytic j01^2  = {j01 ** 2:.5f}")
print(f"wedge:  {lambda1(wedge):.5f}   (no closed form; sets the growth "
      "threshold for nontrivial states)")
