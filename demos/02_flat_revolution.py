#!/usr/bin/env python3
"""The flat-space family: closed-form surfaces of revolution.

In flat space every surface in this class is (locally) a surface of
revolution whose axial height u is an explicit function of the radius rho,
one surface per constant C > 0.  In the regular chart t, with R = C^(-3/2)
and s = sqrt(1 + t^2), the radius is rho = R s^3 and the height
z = (3/2) R (t s + asinh t + log(2 sqrt C)), smooth across the waist circle
rho = R at t = 0.  This script evaluates the closed form, reproduces the
family ordering (larger C yields a flatter profile), builds the surface over
t in [-1.5, 1.5], both halves glued at the waist, and runs the full
verification report.
"""
from pathlib import Path

import numpy as np

import biconsurf as bc

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

print("Height profiles u(rho), evaluated at rho = 8:")
for C in (1.0, 1.5, 2.0):
    prof = bc.revolution_profile(C, 12.0)
    print(f"  C = {C:<4}: u(8) = {float(prof.u_of_rho(8.0)):.6f}   "
          f"(waist radius C^(-3/2) = {prof.rho_min:.4f})")
print("Larger C sits lower at the same radius, so the curves never cross.\n")

prof = bc.revolution_profile(1.0, 12.0)
patch = bc.build_r3_revolution(prof, ((-1.5, 1.5), (0.0, 2 * np.pi)))
print(f"The chart covers t in [-{prof.t_max:.4f}, {prof.t_max:.4f}] (rho up to 12); "
      f"the patch takes t in [-1.5, 1.5], rho up to {float(patch.uline(1.5)[2]):.4f}.\n")

t8 = prof.t_of_rho(8.0)
k8 = float(prof.k(t8))
print(f"The meridian's curvature at rho = 8 (t = {float(t8):.6f}) is k = {k8:.9f} (= 1/48):")
print(f"  mean curvature  f = 2k = {2 * k8:.9f}  (= 1/24)")
print(f"  Gauss curvature K = -3/4 f^2 = {-0.75 * (2 * k8) ** 2:.9f}  (= -1/768)")

report = bc.verify_patch(patch, 64, 64)
print("\nVerification on a 64 x 64 grid (all computed from the immersion alone;")
print("f_vs_profile is f - 2k, gauss_identity K + 3/4 f^2):")
for name in ("biconservative", "gauss_identity", "f_vs_profile",
             "principal_values", "pde"):
    print(f"  {name:<22} max residual {report.residuals[name]['max']:.2e}")
print(f"  overall: {'PASS' if report.passed else 'FAIL'}")

mesh = bc.sample_mesh(
    patch, 64, 64, channels={"f": report.fields["f"], "K": report.fields["K"]}
)
paths = bc.write_obj(mesh, OUT / "flat_revolution.obj")
bc.write_ply(mesh, OUT / "flat_revolution.ply")
report.save(OUT / "flat_revolution.report.json")
print(f"\nwrote {paths[0]}, .ply and .report.json under {OUT}/")
