import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biconsurf as bc
from biconsurf import curvature, profile


class TestRhs:
    def test_sphere_generic(self):
        assert bc.ode_rhs(1.0, 1.0, 1) == pytest.approx(-11.0 / 12.0, rel=1e-15)

    def test_sphere_stationary(self):
        assert bc.ode_rhs(1.0, 0.0, 1) == pytest.approx(-8.0 / 3.0, rel=1e-15)

    def test_flat(self):
        assert bc.ode_rhs(1.0, 0.0, 0) == pytest.approx(-4.0, rel=1e-15)

    def test_positivity_guard(self):
        with pytest.raises(bc.DomainError):
            bc.ode_rhs(0.0, 1.0, 1)
        with pytest.raises(bc.DomainError):
            bc.ode_rhs(np.array([1.0, -1.0]), 1.0, 1)
        with pytest.raises(bc.DomainError):
            bc.prime_constant(-1.0, 1.0, 1)

    @given(st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=-5.0, max_value=5.0),
           st.sampled_from([-1, 0, 1]))
    def test_rhs_consistent_with_first_integral(self, k, kp, c):
        # differentiating the conserved quantity must reproduce the ODE
        C = bc.prime_constant(k, kp, c)
        via_poly = -(16.0 * c / 9.0) * k - 32.0 * k**3 + 1.75 * C * k**2.5
        assert bc.ode_rhs(k, kp, c) == pytest.approx(via_poly, rel=1e-10, abs=1e-10)


class TestPrimeConstant:
    def test_sphere_figure_data(self):
        assert abs(bc.prime_constant(1.0, 1.0, 1) - 169.0 / 9.0) <= 1e-12 * (169.0 / 9.0)

    def test_hyperbolic_figure_data(self):
        assert abs(bc.prime_constant(1.0, 1.0, -1) - 137.0 / 9.0) <= 1e-12 * (137.0 / 9.0)

    def test_hyperbolic_negative_constant(self):
        got = bc.prime_constant(0.25, 0.2, -1)
        assert abs(got - (-248.0 / 225.0)) <= 1e-12 * (248.0 / 225.0)

    @given(st.floats(min_value=0.05, max_value=5.0),
           st.floats(min_value=-5.0, max_value=5.0),
           st.sampled_from([-1, 0, 1]))
    def test_poly_inverts_constant(self, k, kp, c):
        C = bc.prime_constant(k, kp, c)
        assert bc.prime_poly(k, C, c) == pytest.approx(kp**2, rel=1e-9, abs=1e-9)


class TestAdmissibleInterval:
    def test_sphere_contains_seed(self):
        lo, hi = bc.admissible_interval(169.0 / 9.0, 1)
        assert lo < 1.0 < hi
        assert bc.prime_poly(1.0, 169.0 / 9.0, 1) == pytest.approx(1.0, rel=1e-14)

    def test_endpoint_constant(self):
        # P(1) = -16/9 - 16 + 160/9 = 0, so k = 1 is the upper endpoint
        lo, hi = bc.admissible_interval(160.0 / 9.0, 1)
        assert hi == pytest.approx(1.0, abs=1e-11)
        assert lo < 1.0

    def test_hyperbolic_contains_one(self):
        lo, hi = bc.admissible_interval(137.0 / 9.0, -1)
        assert lo == 0.0 and hi > 1.0
        assert bc.prime_poly(1.0, 137.0 / 9.0, -1) == pytest.approx(1.0, rel=1e-14)

    def test_flat_closed_form(self):
        lo, hi = bc.admissible_interval(16.0, 0)
        assert lo == 0.0 and hi == pytest.approx(1.0, rel=1e-14)

    def test_endpoints_are_roots(self):
        lo, hi = bc.admissible_interval(169.0 / 9.0, 1)
        for k in (lo, hi):
            assert abs(bc.prime_poly(k, 169.0 / 9.0, 1)) < 1e-10

    def test_no_positive_region(self):
        with pytest.raises(bc.NoSolutionError):
            bc.admissible_interval(1.0, 1)
        with pytest.raises(bc.NoSolutionError):
            bc.admissible_interval(-1.0, 0)


class TestDerivedQuantities:
    def test_kappa2_sphere_constant(self):
        assert bc.kappa2(1.0, 169.0 / 9.0) == pytest.approx(13.0 / 4.0, rel=1e-15)

    def test_kappa2_sixteen(self):
        assert bc.kappa2(1.0, 16.0) == pytest.approx(3.0, rel=1e-15)

    def test_kappa2_coefficient_collapse(self):
        k = np.linspace(0.2, 3.0, 17)
        assert np.allclose(bc.kappa2(k, 16.0 / 9.0), k**0.75, rtol=1e-14)

    def test_kappa2_degenerate(self):
        with pytest.raises(bc.DomainError):
            bc.kappa2(1.0, 0.0)

    def test_w_generic(self):
        assert bc.w_value(1.0, 1.0) == pytest.approx(8.5625, rel=1e-15)

    def test_w_boundary(self):
        assert bc.w_value(1.0 / 3.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_w_sign_matches_constant(self):
        # oracle: W = (9C/16) k^(3/2) for hyperbolic data
        k, kp = 0.25, 0.2
        C = bc.prime_constant(k, kp, -1)
        expected = (9.0 * C / 16.0) * k**1.5
        got = bc.w_value(k, kp)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < 0 and C < 0


class TestSolve:
    def test_figure_constants_and_drift(self):
        for c, k0, kp0, C_exact in [
            (1, 1.0, 1.0, 169.0 / 9.0),
            (-1, 1.0, 1.0, 137.0 / 9.0),
            (-1, 0.25, 0.2, -248.0 / 225.0),
        ]:
            sol = bc.solve_curvature(c, k0, kp0, (-1.0, 1.0))
            assert abs(sol.C - C_exact) <= 1e-9 * abs(C_exact)
            assert sol.drift() <= 1e-8 * abs(sol.C)
            assert not sol.truncated

    def test_samples_positive_and_inside_interval(self):
        sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
        assert np.all(sol.k_samples > 0)
        lo, hi = sol.k_interval
        assert np.all(sol.k_samples >= lo - 1e-9)
        assert np.all(sol.k_samples <= hi + 1e-9)

    def test_even_symmetry(self):
        sol = bc.solve_curvature(0, 1.0, 0.0, (-0.4, 0.4))
        u = np.linspace(0.0, 0.4, 33)
        assert np.max(np.abs(sol.k(u) - sol.k(-u))) < 1e-9
        assert sol.k(0.4) < sol.k(0.2) < 1.0

    def test_turning_points_on_polynomial_roots(self):
        sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
        assert len(sol.turning_points) >= 1
        for ut in sol.turning_points:
            k = float(sol.k(ut))
            assert abs(bc.prime_poly(k, sol.C, 1)) < 1e-8
            assert min(abs(k - sol.k_interval[0]), abs(k - sol.k_interval[1])) < 1e-6

    def test_kappa2_consistency_identity(self):
        # (9/16)(k'/k)^2 + 9k^2 + 1 equals kappa2^2 along sphere solutions
        sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0), rel_tol=1e-12, abs_tol=1e-14)
        u = np.linspace(-1.0, 1.0, 201)
        k, kp = sol.k(u), sol.kp(u)
        lhs = 0.5625 * (kp / k) ** 2 + 9.0 * k**2 + 1.0
        rhs = bc.kappa2(k, sol.C) ** 2
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-8

    def test_w_sign_identity_along_solution(self):
        sol = bc.solve_curvature(-1, 0.25, 0.2, (-1.0, 1.0), rel_tol=1e-12, abs_tol=1e-14)
        u = np.linspace(-1.0, 1.0, 201)
        k, kp = sol.k(u), sol.kp(u)
        w = bc.w_value(k, kp)
        ident = (9.0 * sol.C / 16.0) * k**1.5
        assert np.max(np.abs(w - ident) / np.abs(ident)) < 1e-8

    def test_floor_truncation_flagged(self):
        sol = bc.solve_curvature(0, 1e-6, -1e-3, (-0.001, 0.2))
        assert sol.truncated
        kinds = {e["kind"] for e in sol.boundary_events}
        assert "k_floor" in kinds
        assert sol.span[1] < 0.2

    def test_bad_initial_curvature(self):
        with pytest.raises(bc.DomainError):
            bc.solve_curvature(1, -1.0, 0.0, (-1.0, 1.0))

    def test_span_must_contain_zero(self):
        with pytest.raises(bc.UsageError):
            bc.solve_curvature(1, 1.0, 1.0, (0.5, 1.0))

    def test_equilibrium_rejected(self):
        with pytest.raises(bc.UsageError):
            bc.solve_curvature(1, 3.0**-0.5, 0.0, (-1.0, 1.0))

    def test_dense_output_matches_samples(self):
        sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
        st_ = sol.state(sol.u)
        assert np.max(np.abs(st_[:, 0] - sol.k_samples)) < 1e-12

    def test_outside_span_rejected(self):
        sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
        with pytest.raises(bc.DomainError):
            sol.k(1.5)

    def test_one_sided_spans(self):
        right = bc.solve_curvature(1, 1.0, 1.0, (0.0, 0.6))
        assert right.span == (0.0, 0.6)
        assert float(right.k(0.0)) == 1.0
        left = bc.solve_curvature(1, 1.0, 1.0, (-0.6, 0.0))
        assert left.span == (-0.6, 0.0)
        assert left.drift() <= 1e-8 * abs(left.C)

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([-1, 0, 1]),
           st.floats(min_value=0.2, max_value=2.0),
           st.floats(min_value=-2.0, max_value=2.0))
    def test_conservation_fuzz(self, c, k0, kp0):
        sol = bc.solve_curvature(c, k0, kp0, (-0.5, 0.5))
        assert sol.drift() <= 1e-8 * max(1.0, abs(sol.C))
        assert np.all(sol.k_samples > 0)


# The array expressions of ode_rhs and prime_poly before their float paths,
# kept as the references: the solvers used to evaluate them on 0-d arrays, so
# float paths that match them bit for bit leave every solve unchanged.
def reference_kpp(k, kp, c):
    k = np.asarray(k, dtype=float)
    kp = np.asarray(kp, dtype=float)
    return (1.75 * kp**2 + (4.0 * c / 3.0) * k**2 - 4.0 * k**4) / k


def reference_prime_poly(k, C, c):
    k = np.asarray(k, dtype=float)
    return -(16.0 * c / 9.0) * k**2 - 16.0 * k**4 + C * k**3.5


def reference_rhs(c, size):
    """The solvers' old right-hand sides: curvature (2) or profile frame (14)."""
    if size == 2:
        def rhs(u, y):
            return [y[1], float(reference_kpp(max(y[0], 1e-300), y[1], c))]
    else:
        def rhs(u, y):
            k, kp = max(y[0], 1e-300), y[1]
            sig, T, n = y[2:6], y[6:10], y[10:14]
            return np.concatenate(
                [[kp, float(reference_kpp(k, kp, c))], T, k * n - c * sig, -k * T]
            )
    return rhs


class TestFloatPaths:
    rng = np.random.default_rng(11)
    k = 10.0 ** rng.uniform(-26.0, 2.0, 4000)
    kp = rng.normal(size=4000) * 10.0 ** rng.uniform(-3.0, 3.0, 4000)
    C = rng.normal(size=4000) * 10.0 ** rng.uniform(-2.0, 3.0, 4000)

    @pytest.mark.parametrize("c", [-1, 0, 1])
    def test_ode_rhs_matches_reference(self, c):
        k, kp = self.k, self.kp
        want = reference_kpp(k, kp, c)
        assert np.array_equal(bc.ode_rhs(k, kp, c), want)
        assert np.array_equal(bc.ode_rhs(k[:, None], kp[None, :40], c),
                              reference_kpp(k[:, None], kp[None, :40], c))
        floats = [bc.ode_rhs(a, b, c) for a, b in zip(k.tolist(), kp.tolist())]
        zero_d = [bc.ode_rhs(np.asarray(a), np.asarray(b), c) for a, b in zip(k, kp)]
        assert np.array_equal(floats, want)
        assert np.array_equal(zero_d, want)

    @pytest.mark.parametrize("c", [-1, 0, 1])
    def test_prime_poly_matches_reference(self, c):
        k, C = self.k, self.C
        want = reference_prime_poly(k, C, c)
        assert np.array_equal(bc.prime_poly(k, C, c), want)
        assert np.array_equal(bc.prime_poly(k[:, None], C[None, :40], c),
                              reference_prime_poly(k[:, None], C[None, :40], c))
        # the solvers' inadmissible event passes numpy float64 scalars
        for ks in (k.tolist(), list(k), [np.asarray(a) for a in k]):
            got = [bc.prime_poly(a, b, c) for a, b in zip(ks, C.tolist())]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("c, k0, kp0, branch", [
        (1, 1.0, 1.0, bc.Branch.S2),
        (-1, 1.0, 1.0, bc.Branch.H2_ELLIPTIC),
        (-1, 0.25, 0.2, bc.Branch.H2_PARABOLIC),
    ])
    def test_solves_match_reference_rhs(self, monkeypatch, c, k0, kp0, branch):
        from scipy.integrate import solve_ivp

        def build():
            sol = bc.solve_curvature(c, k0, kp0, (-3.0, 3.0))
            return sol, bc.reconstruct_profile(sol, branch)

        def solve_ivp_reference(fun, t_span, y0, **kwargs):
            return solve_ivp(reference_rhs(c, len(y0)), t_span, y0, **kwargs)

        sol, prof = build()
        with monkeypatch.context() as m:
            m.setattr(curvature, "solve_ivp", solve_ivp_reference)
            m.setattr(profile, "solve_ivp", solve_ivp_reference)
            ref_sol, ref_prof = build()
        for got, want in [(sol.u, ref_sol.u), (sol.k_samples, ref_sol.k_samples),
                          (sol.kp_samples, ref_sol.kp_samples), (prof.u, ref_prof.u)]:
            assert np.array_equal(got, want)
        grid = np.unique(np.concatenate([np.linspace(*ref_prof.span, 301), ref_prof.u]))
        assert np.array_equal(sol.state(grid), ref_sol.state(grid))
        assert np.array_equal(prof.state(grid), ref_prof.state(grid))
