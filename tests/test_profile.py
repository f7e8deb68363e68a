import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import biconsurf as bc
from biconsurf.curvature import CurvatureProblem
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch
from biconsurf.profile import Branch
from conftest import (
    assert_same_interpolants,
    assert_same_run,
    recorded_runs,
    reference_dense,
    scipy_run,
)


class TestRevolutionProfile:
    def test_height_against_quadrature(self):
        # independent oracle: integrate (rho^(2/3) - 1)^(-1/2) directly,
        # with the algebraic endpoint singularity handled by the weight
        prof = bc.revolution_profile(1.0, 12.0)

        def regular_part(r):
            return math.sqrt((r - 1.0) / (r ** (2.0 / 3.0) - 1.0)) if r > 1 else math.sqrt(1.5)

        oracle, _ = quad(regular_part, 1.0, 8.0, weight="alg", wvar=(-0.5, 0.0),
                         epsabs=1e-13, epsrel=1e-13)
        increment = float(prof.u_of_rho(8.0) - prof.u_of_rho(1.0))
        assert abs(increment - oracle) < 1e-9

    def test_closed_form_at_eight(self):
        prof = bc.revolution_profile(1.0, 12.0)
        expected = 1.5 * (2.0 * math.sqrt(3.0) + math.log(2.0 * (2.0 + math.sqrt(3.0))))
        assert float(prof.u_of_rho(8.0)) == pytest.approx(expected, rel=1e-14)

    def test_waist_limit(self):
        prof = bc.revolution_profile(1.0, 12.0)
        assert float(prof.u_of_rho(1.0)) == pytest.approx(1.5 * math.log(2.0), rel=1e-14)

    def test_chart_roundtrip(self):
        # rho(t(rho)) = R (1 + t^2)^(3/2) returns rho, the waist included
        for C in (0.5, 1.0, 2.4, 17.0):
            prof = bc.revolution_profile(C, 12.0)
            rho = np.linspace(prof.rho_min, 12.0, 101)
            back = prof.rho_min * (1.0 + prof.t_of_rho(rho) ** 2) ** 1.5
            assert np.max(np.abs(back / rho - 1.0)) < 1e-14, C

    def test_waist_rounding_gives_t_zero(self):
        prof = bc.revolution_profile(2.4, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = prof.t_of_rho(prof.rho_min * (1.0 - np.array([1e-15, 0.0, -1e-15])))
        assert t[0] == t[1] == 0.0 and 0.0 <= t[2] < 1e-7

    def test_matches_the_rho_closed_form(self):
        # u(rho) = (3 / (2C)) (rho^(1/3) r + log(2 (C rho^(1/3) + sqrt(C) r)) / sqrt(C)),
        # r = sqrt(C rho^(2/3) - 1): the height written in rho, without the chart
        for C in (0.5, 1.0, 2.4, 17.0):
            prof = bc.revolution_profile(C, 12.0)
            rho = np.linspace(prof.rho_min, 12.0, 257)
            r = np.sqrt(np.maximum(C * rho ** (2.0 / 3.0) - 1.0, 0.0))
            want = (1.5 / C) * (rho ** (1.0 / 3.0) * r + np.log(
                2.0 * (C * rho ** (1.0 / 3.0) + np.sqrt(C) * r)) / np.sqrt(C))
            assert np.max(np.abs(prof.u_of_rho(rho) / want - 1.0)) < 1e-14, C

    def test_monotone_and_derivative(self):
        prof = bc.revolution_profile(1.3, 10.0)
        rho = np.linspace(prof.rho_min + 0.05, 9.0, 200)
        u = prof.u_of_rho(rho)
        assert np.all(np.diff(u) > 0)
        h = 1e-6
        num = (prof.u_of_rho(rho + h) - prof.u_of_rho(rho - h)) / (2 * h)
        assert np.max(np.abs(num - (1.3 * rho ** (2.0 / 3.0) - 1.0) ** -0.5)) < 1e-7

    def test_domain_errors(self):
        prof = bc.revolution_profile(1.0, 8.0)
        for rho in (0.9, 9.0, np.nan):
            with pytest.raises(bc.DomainError):
                prof.u_of_rho(rho)
            with pytest.raises(bc.DomainError):
                prof.t_of_rho(rho)
        with pytest.raises(bc.DomainError):
            bc.revolution_profile(-1.0, 8.0)
        with pytest.raises(bc.DomainError):
            bc.revolution_profile(4.0, 0.1)  # rho_max below the waist


class TestSphereBranch:
    def test_initial_constraint_coordinate(self, s3_pipeline):
        _, prof, _, _ = s3_pipeline
        # <sigma(0), e3> = 4 / (3 sqrt(169/9)) = 4/13
        assert float(prof.sigma(0.0)[2]) == pytest.approx(4.0 / 13.0, rel=1e-12)

    def test_constraints_along_span(self, s3_pipeline):
        _, prof, _, _ = s3_pipeline
        u = np.linspace(-1.0, 1.0, 401)
        res = prof.constraint_residuals(u)
        assert np.max(np.abs(res["constraint_c1"])) < 1e-6
        assert np.max(np.abs(res["constraint_c2"])) < 1e-8
        assert np.max(np.abs(res["model_membership"])) < 1e-8
        assert np.max(np.abs(res["unit_speed"])) < 1e-8

    def test_curvature_fidelity_second_differences(self, s3_pipeline):
        _, prof, _, _ = s3_pipeline
        h = 0.01
        u = np.linspace(prof.span[0] + 2 * h, prof.span[1] - 2 * h, 101)

        def d2(s):
            return (prof.sigma(u + s) - 2 * prof.sigma(u) + prof.sigma(u - s)) / s**2

        spp = (4 * d2(h / 2) - d2(h)) / 3
        acc = spp + prof.sigma(u)  # remove the quadric's normal part
        k_num = np.sqrt(np.abs(prof.model.inner(acc, acc)))
        assert np.max(np.abs(k_num - prof.k(u))) < 1e-5

    def test_branch_model_mismatch(self):
        sol = bc.solve_curvature(-1, 1.0, 1.0, (-0.5, 0.5))
        with pytest.raises(bc.UsageError):
            bc.reconstruct_profile(sol, "s2")

    def test_constant_mismatch(self, s3_pipeline):
        sol, _, _, _ = s3_pipeline
        with pytest.raises(bc.UsageError):
            bc.reconstruct_profile(sol, "s2", C=sol.C + 0.5)


class TestHyperbolicBranches:
    def test_elliptic_constraints(self, h3e_pipeline):
        _, prof, _, _ = h3e_pipeline
        assert prof.branch is Branch.H2_ELLIPTIC
        u = np.linspace(-1.0, 1.0, 401)
        res = prof.constraint_residuals(u)
        assert np.max(np.abs(res["constraint_c1"])) < 1e-6
        assert np.max(np.abs(res["constraint_c2"])) < 1e-8
        assert np.max(np.abs(res["model_membership"])) < 1e-8
        sig = prof.sigma(u)
        assert np.min(sig[:, 3]) > 0

    def test_elliptic_constants_orthonormal(self, h3e_pipeline):
        _, prof, _, _ = h3e_pipeline
        inner = prof.model.inner
        assert inner(prof.C1, prof.C1) == 1.0
        assert inner(prof.C2, prof.C2) == 1.0
        assert inner(prof.C1, prof.C2) == 0.0

    def test_parabolic_initial_value_regression(self, h3p_pipeline):
        _, prof, _, _ = h3p_pipeline
        # direct arithmetic from the constraint equations at k0 = 1/4
        expected = -2.0 * math.sqrt(2.0) / (
            3.0 * math.sqrt(248.0 / 225.0) * 0.25**0.75
        )
        got = float(prof.model.inner(prof.sigma(0.0), prof.C1))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_parabolic_constraints(self, h3p_pipeline):
        _, prof, _, _ = h3p_pipeline
        assert prof.branch is Branch.H2_PARABOLIC
        u = np.linspace(-1.0, 1.0, 401)
        res = prof.constraint_residuals(u)
        assert np.max(np.abs(res["constraint_c1"])) < 1e-6
        assert np.max(np.abs(res["constraint_c2"])) < 1e-6
        assert np.max(np.abs(res["model_membership"])) < 1e-8
        assert np.max(np.abs(res["unit_speed"])) < 1e-8

    def test_parabolic_null_frame(self, h3p_pipeline):
        _, prof, _, _ = h3p_pipeline
        inner = prof.model.inner
        assert inner(prof.C1, prof.C1) == 0.0
        assert inner(prof.C2, prof.C2) == 0.0
        assert inner(prof.C1, prof.C2) == -1.0

    def test_parabolic_needs_negative_constant(self):
        sol = bc.solve_curvature(-1, 1.0, 1.0, (-0.5, 0.5))  # C = 137/9 > 0
        with pytest.raises(bc.UsageError):
            bc.reconstruct_profile(sol, "h2_parabolic")

    def test_elliptic_needs_positive_constant(self):
        sol = bc.solve_curvature(-1, 0.25, 0.2, (-0.5, 0.5))  # C < 0
        with pytest.raises(bc.UsageError):
            bc.reconstruct_profile(sol, "h2_elliptic")


class TestPolarChart:
    """The chart's curve meets the quadric and the constraints to rounding,
    and its T and n are those of the frame equations."""

    FIXTURES = ["s3_pipeline", "h3e_pipeline", "h3p_pipeline"]

    @pytest.mark.parametrize("fix", FIXTURES)
    def test_quadric_and_constraints_to_rounding(self, fix, request):
        prof = request.getfixturevalue(fix)[1]
        st = prof.state(np.linspace(*prof.span, 801))
        res = prof._constraint_residuals(st)
        scale = {"unit_speed": np.sum(st[:, 6:10] ** 2, axis=-1)}
        for name, values in res.items():
            size = scale.get(name, np.sum(st[:, 2:6] ** 2, axis=-1))
            assert np.max(np.abs(values) / size) < 1e-14, name

    @pytest.mark.parametrize("fix", FIXTURES)
    def test_frame_equations(self, fix, request):
        # sigma' = T and T' = k n - c sigma by central differences; n is the
        # unit normal inside the curve's plane, with <n, C1> = 3 k <sigma, C1>
        prof = request.getfixturevalue(fix)[1]
        inner, c, h = prof.model.inner, prof.model.c, 1e-4
        u = np.linspace(prof.span[0] + h, prof.span[1] - h, 101)
        st = prof.state(u)
        k, sig, T, n = st[:, :1], st[:, 2:6], st[:, 6:10], st[:, 10:14]

        def diff(f):
            return (f(u + h) - f(u - h)) / (2 * h)

        assert np.max(np.abs(diff(prof.sigma) - T)) < 1e-7
        assert np.max(np.abs(diff(prof.velocity) - (k * n - c * sig))) < 1e-7
        plane = prof.C1 - prof.C2 if prof.branch is Branch.H2_PARABOLIC else prof.C2
        for w, want in [(n, 1.0), (sig, 0.0), (T, 0.0), (plane, 0.0)]:
            assert np.max(np.abs(inner(n, w) - want)) < 1e-12
        np.testing.assert_allclose(inner(n, prof.C1), 3.0 * k[:, 0] * inner(sig, prof.C1),
                                   rtol=1e-12)

    def test_infeasible_start(self):
        # a C that does not belong to (k0, k0') puts the start off the chart:
        # D = 1 - a^2 < 0 at a = 4/3
        problem = CurvatureProblem(c=1, C=1.0, k0=1.0, kp0=0.0, span=(-1.0, 1.0))
        with pytest.raises(bc.ConstructionError, match="radius squared"):
            bc.reconstruct_profile(problem, "s2")


class TestVariedInitialData:
    @pytest.mark.parametrize("c,k0,kp0,branch", [
        (1, 0.8, -0.5, "s2"),
        (1, 1.3, 0.0, "s2"),
        (-1, 0.7, -0.4, "h2_elliptic"),
        (-1, 0.2, -0.1, None),
        (-1, 0.3, 0.05, None),
    ])
    def test_constraints_hold_off_the_reference_datasets(self, c, k0, kp0, branch):
        sol = bc.solve_curvature(c, k0, kp0, (-0.8, 0.8), rel_tol=1e-12, abs_tol=1e-14)
        if branch is None:
            branch = "h2_elliptic" if sol.C > 0 else "h2_parabolic"
        prof = bc.reconstruct_profile(sol, branch)
        u = np.linspace(*prof.span, 101)
        res = prof.constraint_residuals(u)
        for values in res.values():
            assert np.max(np.abs(values)) < 1e-8


class TestOracle:
    def test_agreement_with_frame(self, s3_pipeline):
        sol, prof, _, _ = s3_pipeline
        u_turn = float(sol.turning_points[0])
        dev = bc.oracle_deviation(prof, 0.05, u_turn - 0.03)
        assert dev["x"] < 1e-6
        assert dev["y"] < 1e-6

    def test_derivative_not_identically_zero(self, s3_pipeline):
        sol, prof, _, _ = s3_pipeline
        u_turn = float(sol.turning_points[0])
        u = np.linspace(0.001, u_turn - 0.003, 2000)
        st = prof.state(u)
        x, k, xp = st[:, 2], st[:, 0], st[:, 6]
        assert np.ptp(x) > 1e-3  # x(k) is not a constant function
        # any zero of dx/dk is isolated: there x must sit on the
        # characteristic graph 3k/sqrt(1+9k^2), which x(k) only crosses
        crossings = np.nonzero(np.diff(np.sign(xp)) != 0)[0]
        for i in crossings:
            graph = 3.0 * k[i] / math.sqrt(1.0 + 9.0 * k[i] ** 2)
            assert min(abs(x[i] - graph), abs(x[i] + graph)) < 1e-3

    def test_turning_point_crossing_rejected(self, s3_pipeline):
        sol, prof, _, _ = s3_pipeline
        u_turn = float(sol.turning_points[0])
        with pytest.raises(bc.SplitRangeError):
            bc.oracle_deviation(prof, 0.05, u_turn + 0.2)

    def test_low_level_range_validation(self):
        with pytest.raises(bc.UsageError):
            bc.profile_oracle_dxdk(0.5, (1.0, 1.0), 169.0 / 9.0)
        with pytest.raises(bc.SplitRangeError):
            # crossing the pole 9 C k^(3/2) = 16 for small C
            bc.profile_oracle_dxdk(0.5, (0.5, 2.0), 2.0)

    def test_wrong_branch(self, h3e_pipeline):
        _, prof, _, _ = h3e_pipeline
        with pytest.raises(bc.UsageError):
            bc.oracle_deviation(prof, 0.0, 0.1)


class TestSingleIntegrationBuild:
    """A curved build integrates once; its curvature solution views that run."""

    CASES = [("s3", 1.0, 1.0), ("h3", 1.0, 1.0), ("h3", 0.25, 0.2)]

    @staticmethod
    def _recorded_build(monkeypatch, cfg):
        """Build ``cfg`` while recording every DOP853 run ((rhs, y0, ...), run)."""
        (patch, sol), calls = recorded_runs(monkeypatch, lambda: build_pipeline_patch(cfg))
        return patch, sol, calls

    @pytest.mark.parametrize("model, k0, kp0", CASES)
    def test_one_solve_ivp_per_side(self, monkeypatch, model, k0, kp0):
        # one DOP853 run per side, each scipy's solve_ivp bit for bit
        cfg = PipelineConfig(model=model, k0=k0, kp0=kp0)
        patch, sol, calls = self._recorded_build(monkeypatch, cfg)
        assert len(calls) == 2
        assert all(len(args[1]) == 3 for args, _ in calls)  # (k, k', theta)
        assert sol is patch.profile.curvature
        results = [scipy_run(*args) for args, _ in calls]
        for (_, run), res in zip(calls, results):
            assert_same_run(run, res)
        assert_same_interpolants(patch.profile.curvature._dense, [res.sol for res in results])

    @pytest.mark.parametrize("model, k0, kp0", CASES)
    def test_matches_two_pass_reference(self, monkeypatch, model, k0, kp0):
        from scipy.integrate import solve_ivp

        from biconsurf.curvature import _internal_tols
        from biconsurf.defaults import K_FLOOR

        cfg = PipelineConfig(model=model, k0=k0, kp0=kp0)
        patch, sol, calls = self._recorded_build(monkeypatch, cfg)
        prof = patch.profile
        assert not sol.truncated

        # two passes: solve the curvature ODE alone, then integrate
        # (k, k', theta) over the span it reached with a k-floor stop only
        ref_sol = bc.solve_curvature(cfg.c, k0, kp0, sol.requested_span,
                                     rel_tol=sol.rel_tol, abs_tol=sol.abs_tol)
        (fun, y0, *_), _ = calls[0]

        def floor(u, y):
            return y[0] - K_FLOOR

        floor.terminal = True
        floor.direction = -1.0
        rtol, atol = _internal_tols(sol.rel_tol, sol.abs_tol)
        right, left = (
            solve_ivp(fun, (0.0, end), y0, method="DOP853", dense_output=True,
                      rtol=rtol, atol=atol, events=[floor])
            for end in (ref_sol.span[1], ref_sol.span[0])
        )
        ref_u = np.concatenate([left.t[::-1], right.t[1:]])
        ref_dense = reference_dense([right.sol, left.sol], ref_sol.span)

        assert sol.C == ref_sol.C
        assert prof.span == sol.span == ref_sol.span
        assert np.array_equal(prof.u, ref_u)
        assert np.array_equal(sol.u, ref_u)
        grid = np.unique(np.concatenate([np.linspace(*prof.span, 301), ref_u]))
        assert np.array_equal(prof.curvature._dense(grid), ref_dense(grid))
        assert np.array_equal(prof.state(grid), prof._chart.state(ref_dense(grid)))
        assert np.array_equal(sol.state(grid), ref_dense(grid)[:, :2])
        assert np.array_equal(sol.kp_samples, prof.kp(prof.u))
        assert len(sol.turning_points) == len(ref_sol.turning_points) > 0
        assert np.max(np.abs(sol.turning_points - ref_sol.turning_points)) < 1e-9

    def test_truncated_build_has_one_end(self):
        cfg = PipelineConfig(model="h3", k0=1.0, kp0=1.0, span=(-20.0, 20.0))
        patch, sol = build_pipeline_patch(cfg)
        assert sol.truncated
        assert sol.span == patch.profile.span
        assert sol.requested_span[0] < sol.span[0] < sol.span[1] < sol.requested_span[1]
        assert [e["kind"] for e in sol.boundary_events] == ["k_floor", "k_floor"]
        assert [e["u"] for e in sol.boundary_events] == list(sol.span)

    @pytest.mark.parametrize("fields, match", [
        ({"model": "s3", "k0": 3.0 ** -0.5, "kp0": 0.0}, "equilibrium"),
        ({"model": "s3", "span": (5.0, 6.0)}, "containing 0"),
        ({"model": "h3", "span": (-6.0, -5.0)}, "containing 0"),
    ])
    def test_build_keeps_usage_errors(self, fields, match):
        with pytest.raises(bc.UsageError, match=match):
            build_pipeline_patch(PipelineConfig(**fields))


class TestEvaluationPoints:
    @pytest.mark.parametrize("u", [
        np.nan, [0.1, np.nan], [[0.1], [np.nan]], np.inf, -np.inf, [0.1, 1.5],
    ])
    def test_point_outside_span_or_not_finite_rejected(self, s3_pipeline, u):
        sol, prof, _, _ = s3_pipeline
        for state in (prof.state, sol.state):
            with pytest.raises(bc.DomainError, match="outside the solved span"):
                state(u)


class TestDenseOutput:
    """The one-pass DOP853 evaluator against scipy's ``OdeSolution`` (reference)."""

    @staticmethod
    def _recorded(monkeypatch, build):
        """``build()`` and scipy's ``solve_ivp`` results of the DOP853 runs it
        made, in order; each run must equal its scipy result bit for bit."""
        built, calls = recorded_runs(monkeypatch, build)
        results = [scipy_run(*args) for args, _ in calls]
        for (_, run), res in zip(calls, results):
            assert_same_run(run, res)
        return built, results

    @staticmethod
    def _recorded_oracle(monkeypatch, build):
        """``build()`` and the results of the solve_ivp calls it made, in order."""
        import scipy.integrate

        solve_ivp = scipy.integrate.solve_ivp
        results = []

        def recording(*args, **kwargs):
            results.append(solve_ivp(*args, **kwargs))
            return results[-1]

        with monkeypatch.context() as m:
            # the oracle imports solve_ivp from scipy.integrate when called
            m.setattr(scipy.integrate, "solve_ivp", recording)
            built = build()
        return built, results

    @staticmethod
    def _points(ts):
        """Every step time, both ends again, and random points between the ends."""
        rng = np.random.default_rng(11)
        inside = rng.uniform(min(ts[0], ts[-1]), max(ts[0], ts[-1]), 257)
        return np.concatenate([ts, [ts[0], ts[-1]], inside])

    def _check_run(self, sol):
        dense = reference_dense([sol], tuple(sorted((sol.ts[0], sol.ts[-1]))))
        # at a step time OdeSolution takes the segment of lower index; the
        # values agree either way (y_old + (y_new - y_old) rounds back to
        # y_new), so the rule is checked on the indices
        nseg = len(sol.interpolants)
        assert np.array_equal(dense.segments(sol.ts), np.r_[0, np.arange(nseg)])
        t = self._points(sol.ts)
        assert np.array_equal(dense(t), sol(t).T)
        for t0 in (sol.ts[0], sol.ts[len(sol.ts) // 2], sol.ts[-1], t[-1]):
            assert np.array_equal(dense(float(t0)), sol(float(t0)))
        nstate = sol(t[-1]).shape[0]
        assert dense(np.array([])).shape == (0, nstate)

    def _check_two_sided(self, state, dense, results, n=None):
        """``state`` against scipy on both runs (the left one for u < 0).

        ``state`` returns the first ``n`` components of the runs' states, read
        through the two-sided evaluator ``dense``, which must hold exactly the
        interpolants of scipy's runs.
        """
        right, left = (res.sol for res in results)
        assert_same_interpolants(dense, [right, left])
        assert right.ts[-1] > 0 > left.ts[-1]
        for sol in (right, left):
            self._check_run(sol)
        u = np.concatenate([self._points(right.ts), self._points(left.ts)])
        neg = u < 0
        want = np.empty((u.size, right(0.0).shape[0]))
        want[neg] = left(u[neg]).T
        want[~neg] = right(u[~neg]).T
        want = want[:, :n]
        assert np.array_equal(state(u), want)
        assert np.array_equal(state(u.reshape(-1, 1)), want.reshape(-1, 1, want.shape[1]))
        for u0, sol in [(0.0, right), (right.ts[-1], right), (left.ts[-1], left)]:
            assert np.array_equal(state(float(u0)), sol(float(u0))[:n])
        assert state(np.array([])).shape == (0, want.shape[1])

    def test_curvature_run(self, monkeypatch):
        sol, results = self._recorded(
            monkeypatch, lambda: bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0)))
        assert [res.y.shape[0] for res in results] == [2, 2]
        self._check_two_sided(sol.state, sol._dense, results)

    def test_profile_run(self, monkeypatch):
        cfg = PipelineConfig(model="s3", k0=1.0, kp0=1.0)
        (_, sol), results = self._recorded(monkeypatch, lambda: build_pipeline_patch(cfg))
        assert [res.y.shape[0] for res in results] == [3, 3]
        self._check_two_sided(sol._dense, sol._dense, results)
        self._check_two_sided(sol.state, sol._dense, results, n=2)

    def test_one_step_run(self, monkeypatch):
        sol, results = self._recorded(
            monkeypatch, lambda: bc.solve_curvature(1, 1.0, 1.0, (-1e-3, 1e-3)))
        assert [len(res.t) for res in results] == [2, 2]
        self._check_two_sided(sol.state, sol._dense, results)

    def test_truncated_build(self, monkeypatch):
        cfg = PipelineConfig(model="h3", k0=1.0, kp0=1.0, span=(-20.0, 20.0))
        (_, sol), results = self._recorded(monkeypatch, lambda: build_pipeline_patch(cfg))
        assert sol.truncated
        assert [res.status for res in results] == [1, 1]  # both ended by k_floor
        self._check_two_sided(sol._dense, sol._dense, results)

    def test_long_runs(self, monkeypatch):
        # many turning points (non-terminal roots) on s3, long steps on h3
        from biconsurf.curvature import curvature_problem

        problem = curvature_problem(1, 1.0, 1.0, (-10.0, 10.0), rel_tol=1e-12, abs_tol=1e-14)
        prof, results = self._recorded(monkeypatch, lambda: bc.reconstruct_profile(problem, "s2"))
        turning = prof.curvature.turning_points
        assert np.sum(turning < 0) >= 5 and np.sum(turning > 0) >= 5
        self._check_two_sided(prof.curvature._dense, prof.curvature._dense, results)
        sol, results = self._recorded(
            monkeypatch, lambda: bc.solve_curvature(-1, 1.0, 1.0, (-4.0, 4.0)))
        self._check_two_sided(sol.state, sol._dense, results)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_oracle_run(self, monkeypatch, s3_pipeline, ascending):
        sol, prof, _, _ = s3_pipeline
        u_turn = float(sol.turning_points[0])
        st = prof.state(np.array([0.05, u_turn - 0.03]))
        a, b = (0, 1) if ascending else (1, 0)
        oracle, results = self._recorded_oracle(
            monkeypatch,
            lambda: bc.profile_oracle_dxdk(st[a, 2], (st[a, 0], st[b, 0]), sol.C))
        (res,) = results
        assert (res.t[-1] > res.t[0]) == ascending
        self._check_run(res.sol)
        k = self._points(res.sol.ts)
        assert np.array_equal(oracle.x(k), res.sol(k)[0])
        assert oracle.x(float(k[-1])) == float(res.sol(float(k[-1]))[0])
        assert oracle.x(np.array([])).shape == (0,)
        assert np.array_equal(oracle.x(k.reshape(-1, 1)), res.sol(k)[0].reshape(-1, 1))

