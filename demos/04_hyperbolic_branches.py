#!/usr/bin/env python3
"""The two hyperbolic families, selected by the sign of the constant C.

On the hyperboloid model the sweep through the profile curve comes in two
flavors: circular orbits when C > 0 and exponential (parabolic) orbits when
C < 0, mirrored by the sign of the discriminant W.  Both satisfy
<X, X> = -1 identically and stay on the upper sheet.
"""
from pathlib import Path

import numpy as np

import biconsurf as bc
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

for label, k0, kp0 in [("elliptic", 1.0, 1.0), ("parabolic", 0.25, 0.2)]:
    cfg = PipelineConfig(model="h3", k0=k0, kp0=kp0)
    patch, sol = build_pipeline_patch(cfg)
    prof = patch.profile
    W0 = float(bc.w_value(k0, kp0))
    print("-" * 72)
    print(f"{label} branch  (k(0) = {k0}, k'(0) = {kp0})")
    print(f"  C = {sol.C:+.9f},  W(0) = {W0:+.6f}  (signs agree)")
    print(f"  k(0) = {float(prof.k(0.0)):g}, k'(0) = {float(prof.kp(0.0)):g} on the curve's own "
          f"run; C drifts by at most {np.max(np.abs(sol.drift(np.linspace(-1.0, 1.0, 257)))):.1e}")
    print(f"  constant vectors: <C1,C1> = {float(patch.model.inner(prof.C1, prof.C1)):+g}, "
          f"<C2,C2> = {float(patch.model.inner(prof.C2, prof.C2)):+g}, "
          f"<C1,C2> = {float(patch.model.inner(prof.C1, prof.C2)):+g}")

    u = np.linspace(-1.0, 1.0, 257)
    v = np.linspace(*patch.v_range, 65)
    U, V = np.meshgrid(u, v, indexing="ij")
    X = patch.X(U, V)
    quadric = np.max(np.abs(patch.model.inner(X, X) + 1.0))
    print(f"  max |<X, X> + 1| on the grid: {quadric:.2e},  min x4 = {X[..., 3].min():.3f} > 0")

    res = prof.constraint_residuals(u)
    print(f"  constraint residuals: C1 {np.max(np.abs(res['constraint_c1'])):.2e}, "
          f"C2 {np.max(np.abs(res['constraint_c2'])):.2e}")

    report = bc.verify_patch(patch, 64, 64)
    print(f"  verifier: biconservative {report.residuals['biconservative']['max']:.2e}, "
          f"pde {report.residuals['pde']['max']:.2e}, "
          f"{'PASS' if report.passed else 'FAIL'}")

    mesh = bc.sample_mesh(patch, 48, 48)
    bc.write_ply(mesh, OUT / f"hyperbolic_{label}.ply")
    print(f"  wrote Poincare-ball mesh to {OUT}/hyperbolic_{label}.ply")
