import dataclasses
from pathlib import Path

import numpy as np
import pytest

import biconsurf as bc
from biconsurf.mesh import poincare_ball, sample_mesh, stereographic, write_obj, write_ply
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch, cmd_surface
from biconsurf.profile import _amplitude_scale
from biconsurf import surfaces
from biconsurf.surfaces import circle_radius, expected_circle_radius


class TestRevolutionBuilder:
    def test_reference_channels(self, r3_pipeline):
        prof, patch, _ = r3_pipeline
        t8 = prof.t_of_rho(8.0)
        f8 = float(patch.reference["f"](t8, 0.0))
        K8 = float(patch.reference["K"](t8, 0.0))
        assert f8 == pytest.approx(1.0 / 24.0, rel=1e-14)
        assert K8 == pytest.approx(-1.0 / 768.0, rel=1e-14)
        assert K8 == pytest.approx(-0.75 * f8**2, rel=1e-14)

    def test_rotation_period(self, r3_pipeline):
        prof, patch, _ = r3_pipeline
        t = prof.t_of_rho(np.linspace(1.6, 7.5, 13))
        a = patch.X(t, np.zeros_like(t))
        b = patch.X(t, np.full_like(t, 2 * np.pi))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_boundary_rect_rejected(self):
        prof = bc.revolution_profile(1.0, 12.0)
        t_max = prof.t_max
        with pytest.raises(bc.DomainError):
            bc.build_r3_revolution(prof, ((-1.01 * t_max, 1.0), (0.0, 1.0)))
        with pytest.raises(bc.DomainError):
            bc.build_r3_revolution(prof, ((0.0, 1.01 * t_max), (0.0, 1.0)))
        with pytest.raises(bc.DomainError):  # below the waist radius
            bc.build_r3_revolution(prof, (prof.t_of_rho([0.9, 8.0]), (0.0, 1.0)))
        with pytest.raises(bc.UsageError):
            bc.build_r3_revolution(prof, ((1.0, 1.0), (0.0, 1.0)))
        # the whole chart, both halves glued at the waist, is a patch
        whole = bc.build_r3_revolution(prof, ((-t_max, t_max), (0.0, 1.0)))
        assert whole.u_range == whole.eval_u_domain == (-t_max, t_max)

    @pytest.mark.parametrize("v_range, message", [
        ((0.0, 0.0), "v_range must have nonzero width"),
        ((1.0, 1.0), "v_range must have nonzero width"),
        ((0.0, np.nan), "v_range must be finite"),
        ((-np.inf, 1.0), "v_range must be finite"),
        ((0.0, 1.0, 5.0), "v_range must be a pair"),
        ((1.0,), "v_range must be a pair"),
    ])
    def test_unusable_v_range_rejected(self, r3_pipeline, v_range, message):
        # a zero-width rectangle would verify vacuously
        prof, patch, _ = r3_pipeline
        with pytest.raises(bc.UsageError, match=message):
            bc.build_r3_revolution(prof, (patch.u_range, v_range))

    def test_partials_match_position_differences(self, r3_pipeline):
        _, patch, _ = r3_pipeline
        u = np.array([2.5]); v = np.array([0.7])

        def err(h):
            num = (patch.X(u + h, v) - patch.X(u - h, v)) / (2 * h)
            return np.max(np.abs(num - patch.Xu(u, v)))

        assert err(1e-3) / err(5e-4) == pytest.approx(4.0, rel=0.2)


class TestSphereBuilder:
    def test_sweep_collapses_at_v0(self, s3_pipeline):
        _, prof, patch, _ = s3_pipeline
        u = np.linspace(-0.9, 0.9, 7)
        assert np.max(np.abs(patch.X(u, np.zeros_like(u)) - prof.sigma(u))) == 0.0

    def test_membership_random_samples(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        rng = np.random.default_rng(11)
        u = rng.uniform(-1, 1, size=(10, 10))
        v = rng.uniform(0, 2 * np.pi, size=(10, 10))
        X = patch.X(u, v)
        assert np.max(np.abs(np.sum(X * X, axis=-1) - 1.0)) < 1e-8

    def test_circle_radius_is_reciprocal_kappa2(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        u = np.linspace(-0.8, 0.8, 9)
        v = np.linspace(0.3, 5.8, 9)
        assert np.max(np.abs(circle_radius(patch, u, v) - expected_circle_radius(patch, u))) < 1e-8

    def test_partials_linearly_independent(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        inner = patch.model.inner
        U, V = np.meshgrid(np.linspace(-1, 1, 33), np.linspace(0, 2 * np.pi, 33),
                           indexing="ij")
        _, Xu, Xv = patch.frame(U, V)
        gram = inner(Xu, Xu) * inner(Xv, Xv) - inner(Xu, Xv) ** 2
        assert np.min(gram) > 1e-10

    def test_branch_guard(self, h3e_pipeline):
        _, prof, _, _ = h3e_pipeline
        with pytest.raises(bc.UsageError):
            bc.build_s3(prof)


@pytest.mark.parametrize("fix, build", [
    ("s3_pipeline", bc.build_s3), ("h3e_pipeline", bc.build_h3), ("h3p_pipeline", bc.build_h3),
])
@pytest.mark.parametrize("v_range, message", [
    ((0.5, 0.5), "v_range must have nonzero width"),
    ((np.nan, 1.0), "v_range must be finite"),
    ((0.0, np.inf), "v_range must be finite"),
    ((0.0, 1.0, 5.0), "v_range must be a pair"),
    pytest.param((0, 10**400), "v_range must be finite", id="int-beyond-float-range"),
])
def test_sweep_builders_reject_unusable_v_range(request, fix, build, v_range, message):
    # refused where the range is given, not later by the FD scheme
    _, prof, _, _ = request.getfixturevalue(fix)
    with pytest.raises(bc.UsageError, match=message):
        build(prof, v_range)


class TestHyperboloidBuilder:
    @pytest.mark.parametrize("fix", ["h3e_pipeline", "h3p_pipeline"])
    def test_membership_and_sheet(self, fix, request):
        _, prof, patch, _ = request.getfixturevalue(fix)
        u = np.linspace(-0.95, 0.95, 21)
        v = np.linspace(*patch.v_range, 21)
        U, V = np.meshgrid(u, v, indexing="ij")
        X = patch.X(U, V)
        assert np.max(np.abs(patch.model.inner(X, X) + 1.0)) < 1e-8
        assert np.min(X[..., 3]) > 0
        assert np.max(np.abs(patch.X(u, np.zeros_like(u)) - prof.sigma(u))) == 0.0

    def test_wrong_branch_guard(self, s3_pipeline):
        _, prof, _, _ = s3_pipeline
        with pytest.raises(bc.UsageError):
            bc.build_h3(prof)


class TestKillingField:
    def test_sphere_sweep_invariance(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        assert bc.killing_tangency_check(patch) < 1e-6

    @pytest.mark.parametrize("fix", ["h3e_pipeline", "h3p_pipeline"])
    def test_hyperbolic_sweep_invariance(self, fix, request):
        _, _, patch, _ = request.getfixturevalue(fix)
        assert bc.killing_tangency_check(patch) < 1e-6

    def test_field_at_base_curve_points_along_v(self, s3_pipeline):
        _, prof, patch, _ = s3_pipeline
        inner = patch.model.inner
        u = np.linspace(-0.8, 0.8, 9)
        sig = prof.sigma(u)
        T = inner(sig, patch.C2)[..., None] * patch.C1 \
            - inner(sig, patch.C1)[..., None] * patch.C2
        Xv = patch.Xv(u, np.zeros_like(u))
        cross = inner(T, T) * inner(Xv, Xv) - inner(T, Xv) ** 2
        scale = inner(T, T) * inner(Xv, Xv)
        assert np.max(np.abs(cross) / scale) < 1e-13  # parallel vectors

    def test_vanishing_locus(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        inner = patch.model.inner
        p = np.array([1.0, 0.0, 0.0, 0.0])  # orthogonal to both constants
        T = inner(p, patch.C2) * patch.C1 - inner(p, patch.C1) * patch.C2
        assert np.all(T == 0.0)

    def test_needs_sweep_constants(self, r3_pipeline):
        _, patch, _ = r3_pipeline
        with pytest.raises(bc.UsageError):
            bc.killing_tangency_check(patch)

    @pytest.mark.parametrize("nu, nv", [(0, 33), (1, 33), (2.5, 33), (True, 33), (33, 0),
                                        (33, 1), (33, 2.0), (33, False), (33, None),
                                        (33, "8")])
    def test_grid_size_below_two_or_not_integer_is_usage_error(self, s3_pipeline, nu, nv):
        # 0 used to leak numpy's zero-size reduction error and 2.5 a TypeError,
        # and True and 1 were read as one-point grids
        patch = s3_pipeline[2]
        with pytest.raises(bc.UsageError, match="integers nu, nv >= 2"):
            bc.killing_tangency_check(patch, nu, nv)

    def test_numpy_integer_grid_size(self, s3_pipeline):
        patch = s3_pipeline[2]
        assert bc.killing_tangency_check(patch, np.int64(5), 4) == \
            bc.killing_tangency_check(patch, 5, 4)


def _vec(*components):
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def _reference_revolution(line, v):
    """(at, jet, jet4) of X = (a cos v, a sin v, z), written per component."""
    z0, z1, z2, z3, z4 = (line[i][..., 2] for i in (0, 1, 4, 6, 8))
    a0, a1, a2, a3, a4 = (line[i] for i in (2, 3, 5, 7, 9))
    cv, sv = np.cos(v), np.sin(v)
    zero = np.zeros(np.broadcast(a0, v).shape)
    flat = _vec(zero, zero, zero)
    return (
        (_vec(a0 * cv, a0 * sv, z0), _vec(a1 * cv, a1 * sv, z1),
         _vec(-a0 * sv, a0 * cv, zero)),
        (_vec(a2 * cv, a2 * sv, z2), _vec(-a1 * sv, a1 * cv, zero),
         _vec(-a0 * cv, -a0 * sv, zero)),
        (_vec(a3 * cv, a3 * sv, z3), _vec(-a2 * sv, a2 * cv, zero),
         _vec(-a1 * cv, -a1 * sv, zero), _vec(a0 * sv, -a0 * cv, zero),
         _vec(a4 * cv, a4 * sv, z4), _vec(-a3 * sv, a3 * cv, zero),
         _vec(-a2 * cv, -a2 * sv, zero), _vec(a1 * sv, -a1 * cv, zero),
         _vec(a0 * cv, a0 * sv, zero)),
    )


def _reference_circle(C1, C2):
    """(at, jet, jet4) of X = sigma + a (C1 (cos v - 1) + C2 sin v)."""

    def evaluate(line, v):
        sigma, T, a, ap, Tp, app, sigma3, a3, sigma4, a4 = line
        a, ap, app, a3, a4 = (x[..., None] for x in (a, ap, app, a3, a4))
        cv, sv = np.cos(v)[..., None], np.sin(v)[..., None]
        swing = C1 * (cv - 1.0) + C2 * sv
        turn = -C1 * sv + C2 * cv
        return (
            (sigma + a * swing, T + ap * swing, a * turn),
            (Tp + app * swing, ap * turn, -a * (swing + C1)),
            (sigma3 + a3 * swing, app * turn, -ap * (swing + C1), -a * turn,
             sigma4 + a4 * swing, a3 * turn, -app * (swing + C1), -ap * turn,
             a * (swing + C1)),
        )

    return evaluate


def _reference_exponential(C1, C2):
    """(at, jet, jet4) of X = sigma + b (C1 (e^v - 1) + C2 (e^-v - 1))."""

    def evaluate(line, v):
        sigma, T, b, bp, Tp, bpp, sigma3, b3, sigma4, b4 = line
        b, bp, bpp, b3, b4 = (x[..., None] for x in (b, bp, bpp, b3, b4))
        ev, emv = np.exp(v)[..., None], np.exp(-v)[..., None]
        swing = C1 * (ev - 1.0) + C2 * (emv - 1.0)
        odd, even = C1 * ev - C2 * emv, C1 * ev + C2 * emv
        return (
            (sigma + b * swing, T + bp * swing, b * odd),
            (Tp + bpp * swing, bp * odd, b * even),
            (sigma3 + b3 * swing, bpp * odd, bp * even, b * odd,
             sigma4 + b4 * swing, b3 * odd, bpp * even, bp * odd, b * even),
        )

    return evaluate


_FAMILIES = {
    "r3_pipeline": lambda patch: _reference_revolution,
    "s3_pipeline": lambda patch: _reference_circle(patch.C1, patch.C2),
    "h3e_pipeline": lambda patch: _reference_circle(patch.C1, patch.C2),
    "h3p_pipeline": lambda patch: _reference_exponential(patch.C1, patch.C2),
}


def _grid_line(patch, nu=37, nv=41):
    u = np.linspace(*patch.u_range, nu)[:, None]
    v = np.linspace(*patch.v_range, nv)[None, :]
    return u, v, patch.uline(u)


class TestSweepEvaluators:
    """Every built patch evaluates X = sigma(u) + a(u) S(v) by one rule."""

    @pytest.mark.parametrize("fix", sorted(_FAMILIES))
    def test_matches_the_family_closed_forms(self, fix, request):
        patch = request.getfixturevalue(fix)[-2]
        u, v, line = _grid_line(patch)
        want = _FAMILIES[fix](patch)(line, v)
        got = (patch.at(line, v), patch.jet(line, v), patch.jet4(line, v))
        for evaluator, ours, theirs in zip(("at", "jet", "jet4"), got, want):
            assert len(ours) == len(theirs), evaluator
            for i, (x, y) in enumerate(zip(ours, theirs)):
                assert x.shape == (37, 41, patch.model.ambient.dim), (evaluator, i)
                assert np.array_equal(x, y), (evaluator, i)

    @pytest.mark.parametrize("fix", sorted(_FAMILIES))
    def test_uline_layout(self, fix, request):
        # (sigma, T, a, a', T', a'', sigma''', a''', sigma'''', a''''):
        # vectors at 0, 1, 4, 6, 8 and scalars at 2, 3, 5, 7, 9
        patch = request.getfixturevalue(fix)[-2]
        u, _, line = _grid_line(patch)
        assert len(line) == 10
        for i, entry in enumerate(line):
            vector = i in (0, 1, 4, 6, 8)
            assert entry.shape == u.shape + ((patch.model.ambient.dim,) if vector else ()), i

    @pytest.mark.parametrize("orbit, constants", [
        (surfaces._rotation, ()),
        (surfaces._circle, (np.array([0.3, -1.2, 0.0, 2.0]), np.array([-0.7, 0.1, 1.5, 0.4]))),
        (surfaces._exponential, (np.array([0.3, -1.2, 0.0, 2.0]),
                                 np.array([-0.7, 0.1, 1.5, 0.4]))),
    ], ids=["rotation", "circle", "exponential"])
    def test_in_place_partials_match_the_sum(self, orbit, constants):
        # sigma^(i) is added into the fresh product a^(i) S^(j); the formula
        # it replaced, sigma^(i) + a^(i) S^(j), gives the same bits, zero
        # signs included, and the u-line is left as it was
        rng = np.random.default_rng(17)
        dim = 3 if orbit is surfaces._rotation else 4
        nu, nv = 9, 11
        line = [None] * 10
        for i in surfaces._SIGMA:
            line[i] = rng.normal(size=(nu, 1, dim)) * 10.0 ** rng.integers(-8, 8, (nu, 1, dim))
            line[i][0] = 0.0
            line[i][1] = -0.0
        for i in surfaces._AMPLITUDE:
            line[i] = rng.normal(size=(nu, 1))
            line[i][2] = -0.0
        line = tuple(line)
        kept = [entry.copy() for entry in line]
        v = np.concatenate([[0.0, -0.0], rng.uniform(-3.0, 3.0, nv - 2)])[None, :]
        S = orbit(v, *constants)
        at, jet, jet4 = surfaces._sweep_evaluators(orbit, *constants)
        orders = {
            at: ((0, 0), (1, 0), (0, 1)),
            jet: ((2, 0), (1, 1), (0, 2)),
            jet4: ((3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)),
        }
        for evaluator, pairs in orders.items():
            got = evaluator(line, v)
            assert len(got) == len(pairs)
            for x, (i, j) in zip(got, pairs):
                term = line[surfaces._AMPLITUDE[i]][..., None] * S[j]
                want = line[surfaces._SIGMA[i]] + term if j == 0 else term
                assert x.shape == (nu, nv, dim)
                assert x.tobytes() == want.tobytes(), (evaluator.__name__, i, j)
        for entry, copy in zip(line, kept):
            assert entry.tobytes() == copy.tobytes()

    def test_revolution_uline(self, r3_pipeline):
        # over the whole chart: rho = R (1 + t^2)^(3/2), z = u(rho) on t >= 0 and
        # odd about the waist, and each order the t-derivative of the one below
        prof, patch, _ = r3_pipeline
        t = np.linspace(-prof.t_max, prof.t_max, 41)
        line = patch.uline(t)
        R, z0 = prof.rho_min, prof.height(0.0)
        assert np.max(np.abs(line[2] / (R * (1.0 + t * t) ** 1.5) - 1.0)) < 1e-14
        right = t >= 0
        assert np.max(np.abs(line[0][right, 2] / prof.u_of_rho(line[2][right]) - 1.0)) < 1e-14
        assert np.max(np.abs(line[0][::-1, 2] + line[0][:, 2] - 2.0 * z0)) < 1e-13
        h = 1e-3
        shifted = [patch.uline(t + k * h) for k in (-2, -1, 1, 2)]
        for lower, upper in ((0, 1), (1, 4), (4, 6), (6, 8), (2, 3), (3, 5), (5, 7), (7, 9)):
            m2, m1, p1, p2 = (x[lower] for x in shifted)
            derivative = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
            assert np.max(np.abs(derivative - line[upper])) < 1e-9, (lower, upper)
        for i in (0, 1, 4, 6, 8):
            assert np.all(line[i][..., :2] == 0.0), i


def _faa_di_bruno_amplitude(k, kp, c, sc):
    """(a'', a''', a'''') of a = sc k^(-3/4) by Faa di Bruno's formula.

    The reference for the u-line's amplitude ODE: k'' from the curvature ODE,
    k''' and k'''' by differentiating it along the solution, and d^j a/dk^j
    in closed form.
    """
    kpp = 1.75 * kp**2 / k + (4.0 * c / 3.0) * k - 4.0 * k**3
    lin = 4.0 * c / 3.0 - 12.0 * k**2
    k3 = kp * (lin - 1.75 * kp**2 / k**2) + 3.5 * kp * kpp / k
    k4 = (3.5 * kp**4 / k**3 - 8.75 * kp**2 * kpp / k**2 + 3.5 * kpp**2 / k
          + 3.5 * kp * k3 / k + lin * kpp - 24.0 * k * kp**2)
    phi1 = -0.75 * sc * k**-1.75
    phi2 = 1.3125 * sc * k**-2.75
    phi3 = -3.609375 * sc * k**-3.75
    phi4 = 13.53515625 * sc * k**-4.75
    return (phi2 * kp**2 + phi1 * kpp,
            phi3 * kp**3 + 3.0 * phi2 * kp * kpp + phi1 * k3,
            phi4 * kp**4 + 6.0 * phi3 * kp**2 * kpp
            + phi2 * (3.0 * kpp**2 + 4.0 * kp * k3) + phi1 * k4)


class TestAmplitudeDerivatives:
    """a'' to a'''' of every curved family from w'' + c w = 3 w^(-5/3), w = k^(-3/4)."""

    @pytest.mark.parametrize("model, k0, kp0, span", [
        ("s3", 1.0, 1.0, (-1.0, 1.0)),
        ("s3", 0.6, 1.0, (-1.0, 1.0)),
        ("h3", 1.0, 1.0, (-1.0, 1.0)),
        ("h3", 0.25, 0.2, (-1.0, 1.0)),
        ("h3", 1.0, 1.0, (-10.0, 10.0)),
    ], ids=["s3", "s3-k0-0.6", "h3e", "h3p", "h3e-10"])
    def test_match_faa_di_bruno(self, model, k0, kp0, span):
        cfg = PipelineConfig(model=model, k0=k0, kp0=kp0, span=span)
        patch = build_pipeline_patch(cfg)[0]
        prof = patch.profile
        u = np.linspace(*prof.span, 2001)
        line = patch.uline(u)
        want = _faa_di_bruno_amplitude(prof.k(u), prof.kp(u), prof.model.c,
                                       _amplitude_scale(prof.branch, prof.C))
        for index, ref in zip((5, 7, 9), want):
            assert np.max(np.abs(line[index] - ref)) <= 1e-13 * np.max(np.abs(ref)), index


class TestMesh:
    def test_minimal_grid_counts(self, r3_pipeline):
        _, patch, _ = r3_pipeline
        m = sample_mesh(patch, 2, 2)
        assert m.vertices.shape == (4, 3)
        assert m.quads.shape == (1, 4)
        assert m.triangles().shape == (2, 3)

    def test_identity_projection_matches_patch(self, r3_pipeline):
        _, patch, _ = r3_pipeline
        m = sample_mesh(patch, 5, 6)
        u = np.linspace(*patch.u_range, 5)
        v = np.linspace(*patch.v_range, 6)
        U, V = np.meshgrid(u, v, indexing="ij")
        assert np.array_equal(m.vertices, patch.X(U, V).reshape(-1, 3))

    def test_faces_index_vertices(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        m = sample_mesh(patch, 7, 5)
        assert m.quads.min() >= 0
        assert m.quads.max() < len(m.vertices)

    def test_stereographic_antipode(self):
        assert np.allclose(stereographic(np.array([0.0, 0.0, 0.0, 1.0])), 0.0)

    def test_poincare_ball_inside_unit_ball(self, h3e_pipeline):
        _, _, patch, _ = h3e_pipeline
        m = sample_mesh(patch, 9, 9)
        assert np.max(np.linalg.norm(m.vertices, axis=1)) < 1.0

    def test_pole_on_surface_suggests_alternative(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        # a sampled vertex as the pole is guaranteed to be detected
        X0 = patch.X(np.array(patch.u_range[0]), np.array(patch.v_range[0]))
        with pytest.raises(bc.ProjectionError) as err:
            sample_mesh(patch, 9, 9, projection="stereographic", pole=X0)
        assert "pole=" in str(err.value)

    @pytest.mark.parametrize("pole", [
        np.zeros(4), [0.0, 0.0, 0.0, np.nan], [0.0, 0.0, 1.0],
        # used to leak OverflowError
        pytest.param((0, 0, 0, 10**400), id="int-beyond-float-range"),
    ])
    def test_malformed_pole_is_usage_error(self, s3_pipeline, pole):
        _, _, patch, _ = s3_pipeline
        with pytest.raises(bc.UsageError):
            sample_mesh(patch, 9, 9, pole=pole)
        X = patch.X(np.array(patch.u_range[0]), np.array(patch.v_range[0]))
        with pytest.raises(bc.UsageError):
            stereographic(X, pole)

    @pytest.mark.parametrize("projection", ["stereographic", "poincare"])
    def test_4d_chart_of_3d_points_is_usage_error(self, r3_pipeline, projection):
        # both used to leak numpy's ValueError on the shapes
        _, patch, _ = r3_pipeline
        with pytest.raises(bc.UsageError, match=f"projection '{projection}' needs 4-dimensional"):
            sample_mesh(patch, 5, 5, projection=projection)

    def test_identity_chart_of_4d_points_is_usage_error(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        with pytest.raises(bc.UsageError, match="projection 'identity' needs 3-dimensional"):
            sample_mesh(patch, 5, 5, projection="identity")

    def test_grid_validation(self, r3_pipeline):
        _, patch, _ = r3_pipeline
        with pytest.raises(bc.UsageError):
            sample_mesh(patch, 1, 5)

    @pytest.mark.parametrize("nu, nv", [(2.5, 4), (8.0, 4), (4, 8.0), (True, 4), ("8", 4)])
    def test_grid_size_not_integer_is_usage_error(self, r3_pipeline, nu, nv):
        _, patch, _ = r3_pipeline
        with pytest.raises(bc.UsageError, match="integers nu, nv >= 2"):
            sample_mesh(patch, nu, nv)

    def test_channels_must_match_grid(self, r3_pipeline):
        _, patch, _ = r3_pipeline
        with pytest.raises(bc.UsageError):
            sample_mesh(patch, 3, 4, channels={"f": np.ones((2, 2))})

    @pytest.mark.parametrize("data", [
        {"model": "s3", "k0": 1.0, "kp0": 1.0},
        {"model": "h3", "k0": 1.0, "kp0": 1.0},
        {"model": "h3", "k0": 0.25, "kp0": 0.2},
        {"model": "r3", "C": 1.0},
    ], ids=["s3", "h3-elliptic", "h3-parabolic", "r3"])
    def test_surface_mesh_equals_the_patch_sampled_again(self, tmp_path, data):
        # cmd_surface meshes the verified grid's positions (70 x 64: two
        # blocks of u-rows); sampling the patch again over the verified u and
        # v ranges writes the same OBJ, sidecar and PLY bytes
        cfg = PipelineConfig(nu=70, nv=64, **data)
        out = cmd_surface(cfg, tmp_path / "surface")
        patch = build_pipeline_patch(cfg)[0]
        report = bc.verify_patch(patch, cfg.nu, cfg.nv)
        ranges = {"u_range": (float(report.grid_u[0]), float(report.grid_u[-1])),
                  "v_range": (float(report.grid_v[0]), float(report.grid_v[-1]))}
        channels = {"f": report.fields["f"], "K": report.fields["K"],
                    "residual": report.fields["biconservative"]}
        sampled = sample_mesh(dataclasses.replace(patch, **ranges), cfg.nu, cfg.nv,
                              projection=cfg.projection, channels=channels)
        written = write_obj(sampled, tmp_path / "sampled.obj")
        written.append(write_ply(sampled, tmp_path / "sampled.ply"))
        assert [Path(p).read_bytes() for p in written] == [
            Path(p).read_bytes() for p in out["written"]["obj"] + [out["written"]["ply"]]]


class TestExports:
    def test_obj_with_sidecar(self, r3_pipeline, tmp_path):
        _, patch, _ = r3_pipeline
        m = sample_mesh(patch, 3, 4, channels={"f": np.ones((3, 4))})
        paths = write_obj(m, tmp_path / "m.obj")
        text = (tmp_path / "m.obj").read_text().splitlines()
        assert sum(1 for t in text if t.startswith("v ")) == 12
        assert sum(1 for t in text if t.startswith("f ")) == 6
        first_face = next(t for t in text if t.startswith("f "))
        assert min(int(s) for s in first_face.split()[1:]) >= 1
        sidecar = [p for p in paths if p.endswith(".csv")]
        assert sidecar and Path(sidecar[0]).read_text().startswith("vertex,f\n")

    def test_ply_structure(self, r3_pipeline, tmp_path):
        _, patch, _ = r3_pipeline
        m = sample_mesh(patch, 3, 4, channels={"f": np.zeros((3, 4)), "K": np.ones((3, 4))})
        write_ply(m, tmp_path / "m.ply")
        lines = (tmp_path / "m.ply").read_text().splitlines()
        assert lines[0] == "ply"
        assert "element vertex 12" in lines
        assert "property float K" in lines and "property float f" in lines
        assert "element face 6" in lines
        body = lines[lines.index("end_header") + 1:]
        assert len(body[0].split()) == 5  # x y z K f
        assert body[12].startswith("4 ")

    def test_writers_match_per_float_reference(self, tmp_path):
        # the per-value "{:.17g}" writers these replaced, kept as the reference
        def fmt(x):
            return "{:.17g}".format(float(x))

        def ref_obj(mesh):
            lines = [f"v {fmt(x)} {fmt(y)} {fmt(z)}" for x, y, z in mesh.vertices]
            lines += ["f " + " ".join(str(i + 1) for i in q) for q in mesh.quads]
            names = sorted(mesh.channels)
            rows = ["vertex," + ",".join(names)]
            for i in range(len(mesh.vertices)):
                rows.append(str(i) + "," + ",".join(fmt(mesh.channels[n][i]) for n in names))
            return "\n".join(lines) + "\n", "\n".join(rows) + "\n"

        def ref_ply_body(mesh):
            names = sorted(mesh.channels)
            body = [
                " ".join([fmt(x), fmt(y), fmt(z)] + [fmt(mesh.channels[n][i]) for n in names])
                for i, (x, y, z) in enumerate(mesh.vertices)
            ]
            body += ["4 " + " ".join(str(i) for i in q) for q in mesh.quads]
            return "\n".join(body) + "\n"

        special = [-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1, -1 / 3, 2.0**60]
        rng = np.random.default_rng(3)
        verts = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-300, 300, size=(12, 3))
        verts.ravel()[: len(special)] = special
        chan = rng.normal(size=12)
        chan[:3] = [np.nan, -0.0, 5e-324]
        quads = np.array([[0, 3, 4, 1], [1, 4, 5, 2], [6, 9, 10, 7], [7, 10, 11, 8]])
        # with and without channels; both writers reuse the text the mesh
        # caches, so either may run first
        for with_channels, ply_first in [(True, False), (True, True),
                                         (False, False), (False, True)]:
            out = tmp_path / f"{with_channels}-{ply_first}"
            out.mkdir()
            channels = {"f": chan, "K": -chan[::-1].copy()} if with_channels else {}
            m = bc.Mesh(vertices=verts, quads=quads, channels=channels, grid_shape=(4, 3))
            if ply_first:
                ply = write_ply(m, out / "m.ply")
            written = write_obj(m, out / "m.obj")
            if not ply_first:
                ply = write_ply(m, out / "m.ply")
            want_obj, want_side = ref_obj(m)
            assert Path(written[0]).read_text() == want_obj
            if with_channels:
                assert Path(written[1]).read_text() == want_side
            else:
                assert written == [str(out / "m.obj")]
                assert not (out / "m.obj.channels.csv").exists()
            header, body = Path(ply).read_text().split("end_header\n", 1)
            assert body == ref_ply_body(m)
            assert ("property float K" in header) == with_channels

    @pytest.mark.parametrize("vertices,quads,channels", [
        (np.zeros((4, 3)), [[0, 1, 2, -1]], {}),           # a negative id
        (np.zeros((4, 3)), [[0, 1, 2, 4]], {}),            # an id past the vertices
        (np.zeros((4, 3)), [[0, 1, 2, 1.5]], {}),          # float ids
        (np.zeros((4, 3)), [0, 1, 2, 3], {}),              # 1-D quads
        (np.zeros((4, 3)), [[0, 1]], {}),                  # faces of two corners
        (np.zeros((4, 2)), [[0, 1, 2, 3]], {}),            # 2-D vertices
        (np.zeros(12), [[0, 1, 2, 3]], {}),
        ([["a", "b", "c"]], [[0, 0, 0]], {}),              # not numeric
        ([[0, 0, 10**400]], [[0, 0, 0]], {}),             # beyond the float range
        (np.zeros((1, 3)), [[0, 0, 0]], {"f": [10**400]}),
        (np.zeros((4, 3)), [[0, 1, 2, 3]], {"f": np.ones(3)}),
        (np.zeros((4, 3)), [[0, 1, 2, 3]], {"f": np.ones((2, 2))}),
        # numpy read None as NaN, a numeric string as its number, a bool as 1
        ([[0, 0, None]], [[0, 0, 0]], {}),
        ([[0, 0, "1"]], [[0, 0, 0]], {}),
        ([[0, 0, True]], [[0, 0, 0]], {}),
        (np.zeros((1, 3)), [[0, 0, 0]], {"f": [None]}),
    ])
    def test_mesh_validates_its_arrays(self, vertices, quads, channels):
        with pytest.raises(bc.UsageError):
            bc.Mesh(vertices=vertices, quads=quads, channels=channels)

    def test_mesh_takes_integer_arrays(self):
        # ints in lists pass the check for non-numbers
        m = bc.Mesh(vertices=[[0, 0, 1], [1, 0, 0], [0, 1, 0]], quads=[[0, 1, 2]],
                    channels={"f": [1, 2, 3]})
        assert m.vertices.dtype == float and m.quads.dtype.kind == "i"
        assert m.vertices.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        assert m.channels["f"].tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("name", ["", "a b", "c,d", "tab\there", "new\nline",
                                      "nul\x00", "del\x7f", "caf\u00e9", 3])
    def test_mesh_validates_its_channel_names(self, name):
        # a name becomes a PLY property word and a sidecar column name
        with pytest.raises(bc.UsageError, match="channel name"):
            bc.Mesh(vertices=np.eye(3), quads=[[0, 1, 2]], channels={name: np.ones(3)})

    def test_triangle_faces(self, tmp_path):
        m = bc.Mesh(vertices=np.eye(3), quads=[[0, 1, 2]])
        assert m.triangles().tolist() == [[0, 1, 2]]
        write_obj(m, tmp_path / "m.obj")
        write_ply(m, tmp_path / "m.ply")
        assert (tmp_path / "m.obj").read_text().endswith("\nf 1 2 3\n")
        assert (tmp_path / "m.ply").read_text().endswith("end_header\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n")

    def test_mesh_is_read_only(self, tmp_path):
        # a write caches the formatted floats, so mutating a mesh afterwards
        # must raise instead of leaving that text behind the arrays
        verts = np.zeros((4, 3))
        chan = np.ones(4)
        m = bc.Mesh(vertices=verts, quads=np.array([[0, 2, 3, 1]]),
                    channels={"f": chan}, grid_shape=(2, 2))
        write_obj(m, tmp_path / "m.obj")
        for array in (m.vertices, m.quads, m.channels["f"]):
            with pytest.raises(ValueError):
                array[0] = 7
        with pytest.raises(TypeError):
            m.channels["g"] = chan
        # the mesh holds copies, so the caller's arrays stay writable
        verts[0, 0] = chan[0] = 7.0
        assert m.vertices[0, 0] == 0.0 and m.channels["f"][0] == 1.0
