#!/usr/bin/env python3
"""Anatomy of the verification engine, exercised on classical surfaces.

The verifier never looks at how a patch was built: it reads the immersion's
closed-form partials up to order 4 (every patch supplies them, and the
verifier checks them against finite differences of the partials one order
lower), assembles metric, normal, shape operator, the mean-curvature field
and its derivatives, and evaluates every identity the constructed surfaces
must satisfy.  Classical surfaces make good sanity fixtures because their
curvatures are known exactly, and each one below is a sweep
X(u, v) = sigma(u) + a(u) S(v), so its partials come from those of sigma, a
and S alone.
"""
import numpy as np

import biconsurf as bc
from biconsurf.verify import FDScheme


def swept_patch(case, model, sigma, amplitude, orbit, u_range, v_range):
    """Wrap a closed-form sweep X = sigma(u) + a(u) S(v) for the verifier.

    ``sigma(u)``, ``amplitude(u)`` and ``orbit(v)`` list their derivatives
    of orders 0 to 4; each partial is X_{u^i v^j} = sigma^(i) [j = 0] + a^(i) S^(j).
    """

    def uline(u):
        u = np.asarray(u, dtype=float)
        return tuple(sigma(u)) + tuple(amplitude(u))

    def partials(*orders):
        def evaluate(line, v):
            S = orbit(np.asarray(v, dtype=float))
            return tuple(line[5 + i][..., None] * S[j] + (line[i] if j == 0 else 0.0)
                         for i, j in orders)

        return evaluate

    return bc.SurfacePatch(
        case=case, model=model, u_range=u_range, v_range=v_range,
        uline=uline, eval_u_domain=(-1e9, 1e9),
        at=partials((0, 0), (1, 0), (0, 1)),
        jet=partials((2, 0), (1, 1), (0, 2)),
        jet4=partials((3, 0), (2, 1), (1, 2), (0, 3),
                      (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)),
    )


def trig(t):
    """(sin, cos) of t, each with its derivatives of orders 0 to 4."""
    s, c = np.sin(t), np.cos(t)
    return [s, c, -s, -c, s], [c, -s, -c, s, c]


def vec(*components):
    """Stack components of a common shape into vectors; scalars broadcast."""
    shape = np.broadcast(*components).shape
    return np.stack([np.broadcast_to(x, shape) for x in components], -1).astype(float)


def round_sphere(case, model, pad):
    """(sin u cos v, sin u sin v, cos u, *pad): sigma = (0, 0, cos u), a = sin u."""
    return swept_patch(
        case, model,
        lambda u: [vec(0, 0, c, *pad) for c in trig(u)[1]],
        lambda u: trig(u)[0],
        lambda v: [vec(c, s, 0, *pad) for s, c in zip(*trig(v))],
        (0.4, np.pi - 0.4), (0.0, 2 * np.pi),
    )


# (cos u, sin u, v): sigma = (cos u, sin u, 0), a = 1, S = (0, 0, v)
cylinder = swept_patch(
    "cylinder", bc.R3,
    lambda u: [vec(c, s, 0) for s, c in zip(*trig(u))],
    lambda u: [np.ones_like(u)] + [np.zeros_like(u)] * 4,
    lambda v: [vec(0, 0, v), vec(0, 0, np.ones_like(v))] + [vec(0, 0, np.zeros_like(v))] * 3,
    (0.0, 6.0), (-1.0, 1.0),
)
sphere = round_sphere("sphere", bc.R3, ())
great_sphere = round_sphere("great_sphere", bc.S3, (0,))

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
pg = bc.point_geometry(great_sphere, 1.2, 0.7)
print(f"  great 2-sphere (minimal, biharmonic):   {bc.normal_bitension_residual(pg):+.1e}")
sol = bc.solve_curvature(1, 1.0, 1.0, (-1.1, 1.1), rel_tol=1e-12, abs_tol=1e-14)
patch = bc.build_s3(bc.reconstruct_profile(sol, "s2"))
pg = bc.point_geometry(patch, 0.3, 1.0)
print(f"  constructed sphere-model surface:       {bc.normal_bitension_residual(pg):+.3f}")
print("  nonzero: biconservative surfaces need not be biharmonic.")

print("\nThe jets are checked, not trusted: differences of the first partials")
print("against the second partials (second_partials_fd) on the flat surface:")
prof = bc.revolution_profile(1.0, 12.0)
rpatch = bc.build_r3_revolution(prof, (prof.t_of_rho([1.5, 8.0]), (0.0, 2 * np.pi)))
for h in (4e-2, 2e-2, 1e-2):
    report = bc.verify_patch(rpatch, 16, 16, fd=FDScheme(inner_step=h))
    print(f"  step {h:.0e}: max |difference - jet| = "
          f"{report.residuals['second_partials_fd']['max']:.3e}")
print("  each halving divides it by about sixteen (Richardson, order four);")
print("  a wrong jet would leave a floor that does not fall.")
