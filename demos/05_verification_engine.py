#!/usr/bin/env python3
"""Anatomy of the verification engine, exercised on classical surfaces.

The verifier never looks at how a patch was built: it reads the immersion's
closed-form partials up to order 4 (every patch supplies them; on the
constructed surfaces the verifier certifies them by identities that take
no step, and on every other patch, these fixtures among them, it takes
them as given and its report says so), assembles metric, normal, shape
operator, the mean-curvature field and its derivatives, and evaluates
every identity the constructed surfaces must satisfy.  Classical surfaces
make good sanity fixtures because their curvatures are known exactly, and
each one below is a sweep X(u, v) = sigma(u) + a(u) S(v), so its partials
come from those of sigma, a and S alone.
"""
import dataclasses

import numpy as np

import biconsurf as bc


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
        uline=uline, at=partials((0, 0), (1, 0), (0, 1)),
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
    pg = bc.point_geometry(patch, u, v)
    print(f"  {name:<32} f = {pg.f:+.2e} (exact {want_f}),  "
          f"K = {pg.K:+.2e} (exact {want_K})")

print("\nThe orientation is chosen so f >= 0: the cylinder's normal points")
print("inward, the sphere's too, and minimal surfaces are sign-agnostic.")

print("\nConstant-mean-curvature surfaces satisfy the divergence equation")
print("trivially, and the gated identities are skipped there:")
pg = bc.point_geometry(cylinder, 3.0, 0.0)
print(f"  cylinder: biconservative residual {pg.residuals['biconservative']:.1e}, "
      f"eigenvalue check skipped: {'principal_values' in pg.masked}")

print("\nBiharmonic test: the normal bitension Delta f - f|A|^2 + 2cf")
pg = bc.point_geometry(great_sphere, 1.2, 0.7)
print(f"  great 2-sphere (minimal, biharmonic):   {pg.residuals['normal_bitension_min']:+.1e}")
patch = bc.build_s3(bc.reconstruct_profile("s2", 1.0, 1.0, (-1.1, 1.1),
                                           rel_tol=1e-12, abs_tol=1e-14))
pg = bc.point_geometry(patch, 0.3, 1.0)
print(f"  constructed sphere-model surface:       {pg.residuals['normal_bitension_min']:+.3f}")
print("  nonzero: biconservative surfaces need not be biharmonic.")
print(f"  a fixture's report notes: {bc.verify_patch(cylinder, 8, 8).notes[0]}")

def scaled_third_derivative(line):
    """The u-line with the amplitude's third derivative (entry 7) off by 1e-6."""
    return line[:7] + (line[7] * (1 + 1e-6),) + line[8:]


print("\nThe jets are checked, not trusted, and no check takes a step.  On the")
print("flat surface of revolution, profile_jet holds the closed-form chains of")
print("the profile in its regular chart t (z'^2 = 9R^2 (1 + t^2) and its")
print("t-derivatives, rho^(i+1) = t z^(i+1) + i z^(i), 27 R^2 rho = z'^3):")
prof = bc.revolution_profile(1.0, 12.0)
rpatch = bc.build_r3_revolution(prof, (prof.t_of_rho([1.5, 8.0]), (0.0, 2 * np.pi)))
rbroken = dataclasses.replace(rpatch, uline=lambda t: scaled_third_derivative(rpatch.uline(t)))
for label, surface in (("as built", rpatch), ("rho''' off by 1e-6", rbroken)):
    report = bc.verify_patch(surface, 32, 32)
    entry = report.residuals["profile_jet"]
    print(f"  {label:<18} max {entry['max']:.1e} = "
          f"{entry['max'] / report.tolerances['profile_jet']:,.4g} times its bound; "
          f"passed: {report.passed}")

print("\nOn the constructed S3 and H3 surfaces the jets are certified with no")
print("step as well: every derivative of <X, X> = 1/c up to order 4")
print("(quadric_jet), and the profile's constraint and unit-speed chains")
print("(profile_jet), hold to rounding on the sphere-model surface above:")
report = bc.verify_patch(patch, 32, 32)
for name in ("quadric_jet", "profile_jet"):
    print(f"  {name}: max {report.residuals[name]['max']:.1e} "
          f"(bound {report.tolerances[name]:.0e})")
print(f"  the fd block states the Laplacian's sign alone: {report.fd}")


broken = dataclasses.replace(patch, uline=lambda u: scaled_third_derivative(patch.uline(u)))
report = bc.verify_patch(broken, 32, 32)
print("  the same surface with the amplitude's third derivative off by one")
print("  part in a million:")
for name in ("quadric_jet", "profile_jet"):
    ratio = report.residuals[name]["max"] / report.tolerances[name]
    print(f"    {name}: {ratio:,.0f} times its bound")
print(f"    passed: {report.passed}")
