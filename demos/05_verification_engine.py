#!/usr/bin/env python3
"""Anatomy of the verification engine, exercised on classical surfaces.

The verifier never looks at how a patch was built: it differentiates the
immersion numerically (a built patch also supplies analytic second
partials, which the verifier checks against those differences), assembles
metric, normal, shape operator and the mean-curvature field, and evaluates
every identity the constructed surfaces must satisfy.  Classical surfaces make good sanity fixtures
because their curvatures are known exactly, and wrapping one only takes a
position function and its two analytic partials.
"""
import dataclasses

import numpy as np

import biconsurf as bc
from biconsurf.surfaces import SurfacePatch
from biconsurf.verify import FDScheme


def closed_form_patch(case, model, fX, fXu, fXv, u_range, v_range):
    """Wrap closed-form evaluators into a patch the verifier understands."""

    def uline(u):
        return np.asarray(u, dtype=float)

    def at(u, v):
        u, v = np.broadcast_arrays(u, v)
        return fX(u, v), fXu(u, v), fXv(u, v)

    return SurfacePatch(case=case, model=model, u_range=u_range,
                        v_range=v_range, uline=uline, at=at,
                        eval_u_domain=(-1e9, 1e9))


def _z(u):
    return np.zeros_like(u)


cylinder = closed_form_patch(
    "cylinder", bc.R3,
    lambda u, v: np.stack([np.cos(u), np.sin(u), v], -1),
    lambda u, v: np.stack([-np.sin(u), np.cos(u), _z(u)], -1),
    lambda u, v: np.stack([_z(u), _z(u), np.ones_like(u)], -1),
    (0.0, 6.0), (-1.0, 1.0),
)
sphere = closed_form_patch(
    "sphere", bc.R3,
    lambda u, v: np.stack([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)], -1),
    lambda u, v: np.stack([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), -np.sin(u)], -1),
    lambda u, v: np.stack([-np.sin(u) * np.sin(v), np.sin(u) * np.cos(v), _z(u)], -1),
    (0.4, np.pi - 0.4), (0.0, 2 * np.pi),
)
great_sphere = closed_form_patch(
    "great_sphere", bc.S3,
    lambda u, v: np.stack([np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u), _z(u)], -1),
    lambda u, v: np.stack([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), -np.sin(u), _z(u)], -1),
    lambda u, v: np.stack([-np.sin(u) * np.sin(v), np.sin(u) * np.cos(v), _z(u), _z(u)], -1),
    (0.4, np.pi - 0.4), (0.0, 2 * np.pi),
)

print("Classical fixtures through the point-wise interface:")
for name, patch, want_f, want_K in [
    ("unit cylinder", cylinder, 1.0, 0.0),
    ("unit sphere", sphere, 2.0, 1.0),
    ("great 2-sphere in the 3-sphere", great_sphere, 0.0, 1.0),
]:
    u = 0.5 * (patch.u_range[0] + patch.u_range[1])
    v = 0.5 * (patch.v_range[0] + patch.v_range[1])
    pg = bc.fundamental_forms(patch, u, v)
    print(f"  {name:<32} f = {pg.f:+.2e} (exact {want_f}),  "
          f"K = {pg.K:+.2e} (exact {want_K})")

print("\nThe orientation is chosen so f >= 0: the cylinder's normal points")
print("inward, the sphere's too, and minimal surfaces are sign-agnostic.")

print("\nConstant-mean-curvature surfaces satisfy the divergence equation")
print("trivially, and the gated identities are skipped there:")
pg = bc.point_geometry(cylinder, 3.0, 0.0)
r_k, r_a2, r_eig = bc.curvature_identity_residuals(pg)
print(f"  cylinder: biconservative residual {bc.biconservative_residual(pg):.1e}, "
      f"eigenvalue check skipped: {np.isnan(r_eig)}")

print("\nBiharmonic test: the normal bitension Delta f - f|A|^2 + 2cf")
fd = FDScheme(inner_step=6e-4, outer_step=0.3)
pg = bc.point_geometry(great_sphere, 1.2, 0.7, fd)
print(f"  great 2-sphere (minimal, biharmonic):   {bc.normal_bitension_residual(pg):+.1e}")
sol = bc.solve_curvature(1, 1.0, 1.0, (-1.1, 1.1), rel_tol=1e-12, abs_tol=1e-14)
patch = bc.build_s3(bc.reconstruct_profile(sol, "s2"))
pg = bc.point_geometry(patch, 0.3, 1.0)
print(f"  constructed sphere-model surface:       {bc.normal_bitension_residual(pg):+.3f}")
print("  nonzero: biconservative surfaces need not be biharmonic.")

print("\nFinite differences converge at the expected order (no Richardson):")
prof = bc.revolution_profile(1.0, 12.0)
rpatch = bc.build_r3_revolution(prof, ((1.5, 8.0), (0.0, 2 * np.pi)))
# built patches carry analytic second partials; drop them so the verifier
# differences the first partials, as it does for the fixtures above
rpatch = dataclasses.replace(rpatch, jet=None)
f_exact = float(rpatch.reference["f"](np.array(3.0), 1.0))
for h in (4e-2, 2e-2, 1e-2):
    fd = FDScheme(inner_step=h, outer_step=0.05, richardson=False)
    err = abs(bc.point_geometry(rpatch, 3.0, 1.0, fd).f - f_exact)
    print(f"  step {h:.0e}: |f - exact| = {err:.3e}")
print("  each halving divides the error by about four (order two).")
