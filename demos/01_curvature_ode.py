#!/usr/bin/env python3
"""Walk through the intrinsic curvature ODE of the profile curves.

The geodesic curvature k(u) of every profile curve obeys one second-order
ODE per model, and each solution conserves a constant C that later fixes
the whole surface.  This script integrates the three reference datasets,
shows the conserved constant, the admissible band of k values, and the
detected turning points.
"""
import numpy as np

import biconsurf as bc

DATASETS = [
    ("sphere model,     k(0)=1,   k'(0)=1  ", 1, 1.0, 1.0),
    ("hyperbolic model, k(0)=1,   k'(0)=1  ", -1, 1.0, 1.0),
    ("hyperbolic model, k(0)=1/4, k'(0)=1/5", -1, 0.25, 0.2),
]

print("=" * 72)
print("Curvature ODE: conserved constant, admissible band, turning points")
print("=" * 72)

for label, c, k0, kp0 in DATASETS:
    sol = bc.solve_curvature(c, k0, kp0, (-1.0, 1.0))
    lo, hi = bc.admissible_interval(sol.C, c)
    drift = np.max(np.abs(sol.drift(np.linspace(*sol.span, 1001))))
    print(f"\n{label}")
    print(f"  conserved constant C = {sol.C:.15g}")
    print(f"  drift of C over the span: {drift:.2e}")
    print(f"  admissible k in [{lo:.6f}, {hi:.6f}]")
    if len(sol.turning_points):
        for ut in sol.turning_points:
            k = float(sol.k(ut))
            print(f"  turning point at u = {ut:+.6f}, k = {k:.9f} "
                  f"(P(k) = {float(bc.prime_poly(k, sol.C, c)):+.2e})")
    else:
        print("  no turning point inside the span")
    if c == -1:
        w0 = float(bc.w_value(k0, kp0))
        branch = "circular orbits (W > 0)" if w0 > 0 else "exponential orbits (W < 0)"
        print(f"  branch discriminant W(0) = {w0:+.6f}  ->  {branch}")

print("\nThe constant is a first integral: (k')^2 always equals")
print("P(k) = -(16c/9) k^2 - 16 k^4 + C k^(7/2) along a solution.")
sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
u = np.linspace(-1, 1, 7)
for ui in u:
    k, kp = float(sol.k(ui)), float(sol.kp(ui))
    print(f"  u = {ui:+.3f}:  (k')^2 = {kp**2:.9f}   "
          f"P(k) = {float(bc.prime_poly(k, sol.C, 1)):.9f}")
