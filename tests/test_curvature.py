import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853
from scipy.optimize import brentq

import biconsurf as bc
from biconsurf import curvature, dop853, profile
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch
from conftest import (
    assert_same_run,
    recorded_runs,
    reference_dense,
    scipy_run,
)


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

    @pytest.mark.parametrize("args, message", [
        ((1, "1", 1.0), "k0 must be a real number, got '1'"),
        ((1, True, 1.0), "k0 must be a real number, got True"),
        ((1, 1.0, "1"), "kp0 must be a real number, got '1'"),
        ((1, 1.0, 1.0, (-1.0, 1.0, 5.0)), "span must be a pair of real numbers"),
        ((1, 1.0, 1.0, (-1.0, "1")), "span must be a pair of real numbers"),
        ((1, 1.0, 1.0, (-1.0, 1.0), "1e-10"), "rel_tol must be a real number"),
    ])
    def test_non_number_data_refused(self, args, message):
        with pytest.raises(bc.UsageError, match=re.escape(message)):
            curvature.curvature_problem(*args)

    @pytest.mark.parametrize("c, k0, kp0", [
        (1, 10**400, 1.0), (1, 1.0, 10**400), (1, 10**400, 0), (-1, 1.0, -10**400),
    ], ids=["k0", "kp0", "k0-kp0-zero", "h3-kp0"])
    def test_int_beyond_float_range_is_domain_error(self, c, k0, kp0):
        # np.asarray(..., dtype=float) used to leak OverflowError; the refusal
        # is that of k0 = inf, and a representable int keeps the float path
        with pytest.raises(bc.DomainError, match="is not finite"):
            curvature.curvature_problem(c, k0, kp0)
        assert curvature.curvature_problem(c, 2, 1).C == curvature.curvature_problem(c, 2.0, 1.0).C

    @pytest.mark.parametrize("C, c, error, message", [
        pytest.param(10**400, 1, bc.DomainError, "admissible_interval needs a finite C, got inf",
                     id="int-beyond-float-range"),
        (math.nan, 0, bc.DomainError, "admissible_interval needs a finite C, got nan"),
        (-math.inf, -1, bc.DomainError, "admissible_interval needs a finite C, got -inf"),
        ("2", 0, bc.UsageError, "C must be a real number, got '2'"),
        (True, 1, bc.UsageError, "C must be a real number, got True"),
    ])
    def test_unusable_constant_refused(self, C, c, error, message):
        # NaN used to come back as an endpoint and True to be read as 1
        with pytest.raises(error, match=re.escape(message)):
            bc.admissible_interval(C, c)

    @pytest.mark.parametrize("c", [2, 0.5, -2, True, np.nan])
    def test_curvature_outside_the_models_refused(self, c):
        # refused up front, not by an endpoint search that cannot bracket
        with pytest.raises(bc.UsageError, match="curvature must be -1, 0 or \\+1"):
            bc.admissible_interval(169.0 / 9.0, c)
        with pytest.raises(bc.UsageError, match="curvature must be -1, 0 or \\+1"):
            curvature.curvature_problem(c, 1.0, 1.0)
        with pytest.raises(bc.UsageError, match="curvature must be -1, 0 or \\+1"):
            bc.solve_curvature(c, 1.0, 1.0)


@pytest.mark.parametrize("call, name", [
    (lambda: bc.prime_constant(10**400, 1.0, 1), "k"),
    (lambda: bc.prime_constant([1.0, 10**400], 1.0, 1), "k"),
    (lambda: bc.prime_constant(1.0, 10**400, 1), "kp"),
    (lambda: bc.w_value(10**400, 1.0), "k"),
    (lambda: bc.w_value(1.0, [1.0, 10**400]), "kp"),
    (lambda: bc.ode_rhs(1.0, 10**400, 1), "kp"),
    (lambda: bc.ode_rhs([1.0, 10**400], 1.0, 1), "k"),
    (lambda: bc.prime_poly([1.0, 10**400], 1.0, 1), "k"),
    (lambda: bc.kappa2([1.0, 10**400], 1.0), "k"),
], ids=["prime_constant-k", "prime_constant-k-array", "prime_constant-kp", "w_value-k",
        "w_value-kp-array", "ode_rhs-kp", "ode_rhs-k-array", "prime_poly-k-array",
        "kappa2-k-array"])
def test_array_int_beyond_float_range_is_domain_error(call, name):
    # np.asarray(..., dtype=float) used to leak OverflowError
    with pytest.raises(bc.DomainError, match=f"^{name} must hold numbers within the float range"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: bc.w_value(None, 1.0), "k"),
    (lambda: bc.w_value(1.0, [1.0, True]), "kp"),
    (lambda: bc.ode_rhs(1.0, None, 1), "kp"),
    (lambda: bc.ode_rhs("1", 1.0, 1), "k"),
    (lambda: bc.prime_constant(1.0, [1.0, None], 1), "kp"),
    (lambda: bc.prime_constant(True, 1.0, 1), "k"),
    (lambda: bc.prime_poly(["1", 2.0], 1.0, 1), "k"),
    (lambda: bc.kappa2([1.0, None], 1.0), "k"),
], ids=["w_value-k-None", "w_value-kp-bool", "ode_rhs-kp-None", "ode_rhs-k-str",
        "prime_constant-kp-None", "prime_constant-k-bool", "prime_poly-k-str", "kappa2-k-None"])
def test_array_of_non_numbers_is_domain_error(call, name):
    # numpy reads None as NaN, a numeric string as its number and a bool as 0 or 1
    with pytest.raises(bc.DomainError, match=f"^{name} must hold real numbers"):
        call()


@pytest.mark.parametrize("call", [
    lambda: bc.ode_rhs(1.0, 1.0, 2),
    lambda: bc.ode_rhs(1.0, 1.0, True),
    lambda: bc.ode_rhs(1.0, 1.0, 0.5),
    lambda: bc.ode_rhs(1.0, 1.0, "1"),
    lambda: bc.ode_rhs(np.ones(2), np.ones(2), 2),
    lambda: bc.prime_poly(1.0, 1.0, 2),
    lambda: bc.prime_poly(np.ones(2), 1.0, True),
    lambda: bc.prime_constant(1.0, 1.0, 0.5),
    lambda: bc.prime_constant(1.0, 1.0, "1"),
], ids=["ode_rhs-2", "ode_rhs-True", "ode_rhs-half", "ode_rhs-str", "ode_rhs-array-2",
        "prime_poly-2", "prime_poly-True", "prime_constant-half", "prime_constant-str"])
def test_curvature_other_than_a_model_is_usage_error(call):
    # each used to return a number, or leak TypeError for a string
    with pytest.raises(bc.UsageError, match="curvature must be -1, 0 or \\+1"):
        call()


@pytest.mark.parametrize("call", [
    lambda: bc.ode_rhs(math.nan, 1.0, 1),
    lambda: bc.ode_rhs([1.0, math.nan], 1.0, 1),
    lambda: bc.prime_constant(math.nan, 1.0, 1),
    lambda: bc.prime_constant([1.0, math.nan], 1.0, 1),
    lambda: bc.w_value(math.nan, 1.0),
    lambda: bc.kappa2(math.nan, 1.0),
    lambda: bc.prime_poly(math.nan, 1.0, 1),
    lambda: bc.prime_poly([1.0, math.nan], 1.0, 1),
    lambda: bc.prime_poly(-1.0, 1.0, 1),
    lambda: bc.prime_poly(0.0, 1.0, 1),
    lambda: bc.prime_poly(np.array([1.0, -1.0]), 1.0, 1),
], ids=["ode_rhs", "ode_rhs-array", "prime_constant", "prime_constant-array", "w_value",
        "kappa2", "prime_poly", "prime_poly-array", "prime_poly-negative", "prime_poly-zero",
        "prime_poly-negative-array"])
def test_nan_or_non_positive_k_is_domain_error(call):
    # a NaN k passed every ``k <= 0`` check and came back as NaN; prime_poly
    # checked no k at all, and a negative one gave a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(bc.DomainError, match="^geodesic curvature k must be positive$"):
            call()


def test_nan_k0_is_refused_as_not_positive():
    # it used to pass ``k0 <= 0`` and fail later, on a non-finite C
    with pytest.raises(bc.DomainError, match="^k0 must be positive$"):
        curvature.curvature_problem(1, math.nan, 1.0)


@pytest.mark.parametrize("C", ["x", None, True, [1.0, None]], ids=["str", "None", "bool", "array-None"])
def test_prime_poly_constant_must_be_real(C):
    with pytest.raises(bc.UsageError, match="^C must"):
        bc.prime_poly(1.0, C, 1)


def test_checked_arguments_keep_their_values():
    # an integral float c and an array C are read as before
    assert bc.ode_rhs(1.0, 1.0, 1.0) == bc.ode_rhs(1.0, 1.0, 1)
    assert bc.prime_constant(1.0, 1.0, -1.0) == bc.prime_constant(1.0, 1.0, -1)
    assert np.array_equal(bc.prime_poly(1.0, np.array([1.0, 2.0]), 1),
                          [bc.prime_poly(1.0, 1.0, 1), bc.prime_poly(1.0, 2.0, 1)])


@pytest.mark.parametrize("n", [-1, 10**30, 2.5, "3", None, True, np.True_],
                         ids=["negative", "huge", "float", "str", "None", "True", "np-True"])
def test_drift_sample_count_is_usage_error(n):
    # these leaked ValueError or TypeError, and True read as 1
    sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
    with pytest.raises(bc.UsageError, match="drift needs an int sample count"):
        sol.drift(n)


def test_drift_takes_ints():
    sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
    assert sol.drift(np.int64(11)) == sol.drift(11)
    assert 0.0 <= sol.drift(0) <= sol.drift()


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

    @pytest.mark.parametrize("C, error, message", [
        (math.nan, bc.DomainError, "kappa2 needs a finite C, got nan"),
        (math.inf, bc.DomainError, "kappa2 needs a finite C, got inf"),
        ("16", bc.UsageError, "C must be a real number, got '16'"),
        pytest.param(10**400, bc.DomainError, "kappa2 needs a finite C, got inf",
                     id="int-beyond-float-range"),
    ])
    def test_kappa2_unusable_constant(self, C, error, message):
        # NaN used to come back as the value
        with pytest.raises(error, match=message):
            bc.kappa2(1.0, C)

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

    @pytest.mark.parametrize("span", [
        (-1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
        pytest.param((-1, 10**400), id="int-beyond-float-range"),
    ])
    def test_span_not_finite_refused(self, span):
        # an infinite end used to be integrated toward until the step budget
        # ran out, and an int beyond the float range to leak OverflowError
        message = re.escape(f"span must be finite, got {span!r}")
        with pytest.raises(bc.UsageError, match=message):
            curvature.curvature_problem(1, 1.0, 1.0, span)
        with pytest.raises(bc.UsageError, match=message):
            bc.solve_curvature(1, 1.0, 1.0, span)

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


class TestTolerances:
    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [
        0.0, -1e-9, math.nan, math.inf, pytest.param(10**400, id="int-beyond-float-range"),
    ])
    def test_nonpositive_or_non_finite_is_usage_error(self, field, value):
        match = f"{field} must be positive and finite"
        with pytest.raises(bc.UsageError, match=match):
            curvature.curvature_problem(1, 1.0, 1.0, **{field: value})
        with pytest.raises(bc.UsageError, match=match):
            bc.solve_curvature(-1, 1.0, 1.0, **{field: value})


class TestDop853Driver:
    """The in-house DOP853 driver where a run cannot reach its bound."""

    @staticmethod
    def blow_up(u, y):
        # y' = y^2, y(0) = 1: y = 1 / (1 - u) blows up at u = 1
        return [y[0] * y[0]]

    def test_step_underflow_matches_scipy(self):
        with np.errstate(over="ignore", invalid="ignore"):
            run = curvature._dop853(self.blow_up, [1.0], 2.0, 1e-10, 1e-12, [])
            res = scipy_run(self.blow_up, np.array([1.0]), 2.0, 1e-10, 1e-12, [])
        assert res.status == -1
        assert_same_run(run, res)
        assert abs(run.t[-1] - 1.0) < 1e-6

    def test_two_sided_run_records_step_underflow(self):
        # (k, k') = (1 / (1 - u), k^2) blows up at u = 1, k'' = 2 k^3
        def blow_up(u, y):
            k, kp = y
            return [kp, 2.0 * k * kp]

        problem = curvature.curvature_problem(1, 1.0, 1.0, (-1.0, 2.0), 1e-8, 1e-10)
        rtol, atol = curvature._internal_tols(1e-8, 1e-10)
        with np.errstate(over="ignore", invalid="ignore"):
            sol = curvature._integrate_two_sided(problem, blow_up, [1.0, 1.0], [])
            res = scipy_run(blow_up, np.array([1.0, 1.0]), 2.0, rtol, atol, [])
        end = float(res.t[-1])
        assert res.status == -1
        assert sol.boundary_events == [{"u": end, "kind": "step_underflow"}]
        assert sol.truncated
        assert sol.span == (-1.0, end)
        assert sol.u[0] == -1.0 and sol.u[-1] == end
        u = np.linspace(0.0, end, 101)
        assert np.array_equal(sol._dense(u), reference_dense([res.sol], (0.0, end))(u))

    @staticmethod
    def at_root(root, terminal):
        def event(u, y):
            return u - root

        event.terminal, event.direction = terminal, 0.0
        return event

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_terminal_event_ordering_matches_scipy(self, sign):
        # y' = 0 steps 1e-6, 1e-5, ..., 1e-1 and then to the bound, so the
        # last step holds all four roots; the run stops at the first
        # terminal root along its direction and drops the roots beyond it
        def still(u, y):
            return [0.0 * y[0]]

        events = [self.at_root(sign * r, terminal)
                  for r, terminal in [(0.5, False), (0.45, True), (0.3, True), (0.2, False)]]
        run = curvature._dop853(still, [1.0], sign, 1e-10, 1e-12, events)
        res = scipy_run(still, np.array([1.0]), sign, 1e-10, 1e-12, events)
        assert_same_run(run, res)
        assert run.status == 1 and run.t[-1] == sign * 0.3
        assert [len(te) for te in run.t_events] == [0, 0, 1, 1]

    def test_root_on_the_last_step_time_drops_the_step(self):
        # (u - t1)^2 with direction +1 is inactive on the step that ends at
        # t1 and fires on the next one with its root at t1, the last step
        # time: that step and its interpolant are dropped
        def decay(u, y):
            return [-y[0]]

        t1 = float(curvature._dop853(decay, [1.0], 1.0, 1e-10, 1e-12, []).t[3])

        def touch(u, y):
            return (u - t1) ** 2

        touch.terminal, touch.direction = True, 1.0
        run = curvature._dop853(decay, [1.0], 1.0, 1e-10, 1e-12, [touch])
        res = scipy_run(decay, np.array([1.0]), 1.0, 1e-10, 1e-12, [touch])
        assert_same_run(run, res)
        assert run.status == 1 and run.t[-1] == t1 and len(run.t) == 4
        assert len(run.steps) == len(res.sol.interpolants) == 3

    def test_non_finite_first_step_is_domain_error(self):
        # a NaN first step never fails scipy's "step too small" test, so its
        # step loop would spin; the driver raises instead
        with pytest.raises(bc.DomainError, match="first ODE step"):
            curvature._dop853(lambda u, y: [math.nan], [1.0], 1.0, 1e-10, 1e-12, [])

    def test_zero_atol_on_a_zero_component_is_domain_error(self):
        # the unvalidated s3 build with abs_tol = 0: a state component that
        # starts at exactly 0 gets the error scale 0, and the first step 0/0
        with np.errstate(divide="ignore", invalid="ignore"), \
                pytest.raises(bc.DomainError, match="first ODE step"):
            curvature._dop853(lambda u, y: [y[1], -y[0]], [1.0, 0.0], 1.0, 1e-10, 0.0, [])

    # The stepping runs on floats, where ``/`` by zero raises, ``**`` raises
    # on overflow and ``max`` with a NaN depends on the argument order; numpy
    # gives inf or NaN.  The runs below reach those values and must end as
    # scipy's do, with no exception and no warning from the stepping.

    def test_overflowing_error_norm_matches_scipy(self, monkeypatch):
        # y(0) = 1e150 puts the pole at u = 1e-150; near it the stages reach
        # 1e300 and the error estimates over the error scale overflow
        norms = []
        exact = curvature._norm
        monkeypatch.setattr(curvature, "_norm", lambda x: norms.append(exact(x)) or norms[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # the initial step rule
            res = scipy_run(self.blow_up, np.array([1e150]), 2.0, 1e-10, 1e-12, [])
            run = curvature._dop853(self.blow_up, [1e150], 2.0, 1e-10, 1e-12, [])
        assert res.status == -1
        assert_same_run(run, res)
        assert norms.count(math.inf) > 100

    def test_nan_stage_matches_scipy(self):
        # NaN beyond u = 0.3: each step with a stage there is rejected, so
        # the run creeps up to 0.3 and ends in a step-size underflow
        def nan_beyond(u, y):
            return [math.nan if u > 0.3 else -y[0]]

        res = scipy_run(nan_beyond, np.array([1.0]), 1.0, 1e-10, 1e-12, [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = curvature._dop853(nan_beyond, [1.0], 1.0, 1e-10, 1e-12, [])
        assert res.status == -1
        assert_same_run(run, res)
        assert 0.3 - 1e-15 < run.t[-1] <= 0.3

    @staticmethod
    def scipy_error_norm(err5, err3, scale, h):
        """scipy's own DOP853 error norm of the two estimates: with unit
        weights, its stage sums return ``err5`` and ``err3`` unchanged."""
        weights = SimpleNamespace(E5=np.array([1.0, 0.0]), E3=np.array([0.0, 1.0]))
        with np.errstate(all="ignore"):
            return DOP853._estimate_error_norm(
                weights, np.array([err5, err3]), h, np.array(scale))

    @pytest.mark.parametrize("err5, err3, scale", [
        ([3e-11, -2e-12], [1e-11, 5e-12], [1e-12, 2e-12]),  # an ordinary step
        ([0.0, 0.0], [0.0, 0.0], [1e-12, 1e-12]),           # a zero error
        ([1e300], [1.0], [1e-12]),                          # the quotient overflows
        ([1e154, 1e154], [1.0, 1.0], [1.0, 1.0]),           # its square sum overflows
        ([0.0], [1e-161], [1.0]),                           # 0.01 err3^2 underflows: 0/0
        ([1.0, 3.0], [2.0, 1.0], [1.0, 0.0]),               # a zero scale (atol = 0)
        ([1.0, 0.0], [2.0, 0.0], [1.0, 0.0]),               # 0 over a zero scale
        ([1.0, math.nan], [2.0, 1.0], [1.0, 1.0]),          # a NaN estimate
    ])
    def test_error_norm_takes_numpys_values(self, err5, err3, scale):
        want = self.scipy_error_norm(err5, err3, scale, 0.125)
        with np.errstate(over="ignore"):  # numpy's dot overflows, as in scipy
            got = curvature._error_norm(err5, err3, scale, 0.125)
        assert type(got) is float
        assert np.array_equal(got, want, equal_nan=True)

    def test_error_scale_takes_numpys_maximum(self):
        y = [1.0, -2.0, math.nan, 3.0, math.nan, -0.0, math.inf]
        y_new = [-1.5, 1.0, 4.0, math.nan, math.nan, 0.0, 1.0]
        want = 1e-12 + np.maximum(np.abs(y), np.abs(y_new)) * 1e-10
        got = curvature._error_scale(y, y_new, 1e-10, 1e-12)
        assert [type(x) for x in got] == [float] * len(y)
        assert np.array_equal(got, want, equal_nan=True)

    def test_step_budget_ends_the_side(self, monkeypatch):
        # a run that takes its budget's steps, the rate times max(1, |end|)
        # rounded down, short of its bound stops, and its side ends in a
        # ``step_budget`` boundary event; the steps it took are scipy's first
        for rate, span, budgets in [(0.75, (-4.0, 10.0), (7, 3)), (3.0, (-0.5, 10.0), (30, 3))]:
            monkeypatch.setattr(curvature, "_STEPS_PER_UNIT", rate)
            sol, calls = recorded_runs(
                monkeypatch, lambda: bc.solve_curvature(1, 1.0, 1.0, span))
            (_, right), (_, left) = calls
            for (args, run), n in zip(calls, budgets):
                res = scipy_run(*args)
                assert run.status == curvature._BUDGET_SPENT
                assert np.array_equal(run.t, res.t[:n + 1])
                assert np.array_equal(run.y, res.y[:, :n + 1])
                assert len(run.steps) == n
            assert sol.truncated
            assert sol.boundary_events == [{"u": left.t[-1], "kind": "step_budget"},
                                           {"u": right.t[-1], "kind": "step_budget"}]
            assert sol.span == (left.t[-1], right.t[-1])
            assert np.array_equal(sol.u, np.concatenate([left.t[::-1], right.t[1:]]))

    def test_step_budget_stops_a_pole(self, monkeypatch):
        # with the h2_elliptic chart radius flipped to D = 1 - a^2, theta'
        # has a pole inside the span: the left run steps toward it, and with
        # a budget of 250,000 steps per side it took 194,742 steps and 26 s
        # to end in a step-size underflow
        exact = profile._chart

        def flipped(branch, c, C):
            chart = exact(branch, c, C)
            if branch is bc.Branch.H2_ELLIPTIC:
                chart = dataclasses.replace(chart, d2=-chart.d2)
            return chart

        monkeypatch.setattr(profile, "_chart", flipped)
        cfg = PipelineConfig(model="h3", k0=1.0, kp0=1.0)
        (_, sol), calls = recorded_runs(monkeypatch, lambda: build_pipeline_patch(cfg))
        (_, right), ((_, _, t_bound, *_), left) = calls
        budget = int(curvature._STEPS_PER_UNIT * max(1.0, abs(t_bound)))
        assert right.status == 0 and len(right.steps) < budget
        assert left.status == curvature._BUDGET_SPENT and len(left.steps) == budget
        assert sol.boundary_events == [{"u": left.t[-1], "kind": "step_budget"}]


class TestTableau:
    """The embedded DOP853 tableau is scipy's, bit for bit."""

    @pytest.mark.parametrize("name", ["A", "B", "C", "E3", "E5", "D", "A_EXTRA", "C_EXTRA"])
    def test_array_equals_scipy(self, name):
        got, want = getattr(dop853, name), getattr(DOP853, name)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()

    def test_counts_equal_scipy(self):
        assert dop853.N_STAGES == DOP853.n_stages
        assert dop853.ERROR_ESTIMATOR_ORDER == DOP853.error_estimator_order


def _ulps(x, n, toward):
    for _ in range(n):
        x = float(np.nextafter(x, toward))
    return x


class TestBrent:
    """The Brent port against ``scipy.optimize.brentq`` (the reference)."""

    TOL = 4 * np.finfo(float).eps

    def assert_matches_scipy(self, f, a, b, name="event", port=curvature._brentq):
        """The port's root and evaluation points equal scipy's, bit for bit."""
        got, want = [], []
        root = port(lambda x: got.append(x) or f(x), a, b, self.TOL, name)
        ref, info = brentq(lambda x: want.append(x) or f(x), a, b,
                           xtol=self.TOL, rtol=self.TOL, full_output=True)
        assert root.hex() == float(ref).hex()
        assert len(got) == info.function_calls
        assert got == want
        return root

    @pytest.mark.parametrize("a, b", [(0.25, 1.5), (1.5, 0.25), (-0.5, -2.0)])
    @pytest.mark.parametrize("where", [
        ("a", 0), ("a", 1), ("a", 2), ("a", 5), ("b", 0), ("b", 1), ("b", 3), ("mid", 0),
    ])
    @pytest.mark.parametrize("shape", ["line", "cubic", "exp"])
    def test_roots_at_and_near_the_ends(self, a, b, where, shape):
        end, n = where
        r = {"a": _ulps(a, n, b), "b": _ulps(b, n, a), "mid": 0.3 * a + 0.7 * b}[end]
        f = {
            "line": lambda x: x - r,
            "cubic": lambda x: (x - r) * (1.0 + 4.0 * x * x),
            "exp": lambda x: math.expm1(3.0 * (x - r)),
        }[shape]
        root = self.assert_matches_scipy(f, a, b)
        if n == 0 and end != "mid":
            assert root == r

    @pytest.mark.parametrize("build, kinds", [
        (lambda: bc.solve_curvature(1, 1.0, 1.0, (-10.0, 10.0)),
         ["turning"] * 11 + ["admissible-interval endpoint"] * 2),
        (lambda: build_pipeline_patch(
            PipelineConfig(model="h3", k0=1.0, kp0=1.0, span=(-20.0, 20.0))),
         ["turning", "k_floor", "k_floor", "admissible-interval endpoint"]),
    ])
    def test_event_roots_on_step_interpolants(self, monkeypatch, build, kinds):
        # every event root of an s3 solve over +-10 and of a truncated h3
        # build, solved by the port and by scipy on the same interpolant, and
        # the ends of the admissible k-interval, by both on P(k) / k^2
        solved = []

        def both(f, a, b, tol, name):
            assert tol == self.TOL
            solved.append(name)
            return self.assert_matches_scipy(f, a, b, name)

        monkeypatch.setattr(curvature, "_brentq", both)
        build()
        assert sorted(solved) == sorted(kinds)

    def test_same_sign_or_nan_is_domain_error(self):
        # scipy raises a raw ValueError in each case
        cases = [
            (lambda u: u, "one sign at u = 0.5 and u = 1.0"),
            (lambda u: math.nan if u > 0.9 else u - 0.6, "NaN at u = 1.0"),
            (lambda u: math.nan if 0.5 < u < 1.0 else u - 0.6, "NaN at u = 0.6"),
        ]
        for f, message in cases:
            with pytest.raises(bc.DomainError, match=f"the k_floor event .*{message}"):
                curvature._brentq(f, 0.5, 1.0, self.TOL, "k_floor")
            with pytest.raises(ValueError):
                brentq(f, 0.5, 1.0, xtol=self.TOL, rtol=self.TOL)



def one_step_dense(rhs, step, t_new):
    """``_Dop853Dense`` over the one-segment table of a step that ends at
    ``t_new``: the array reference of ``_step_interpolant``."""
    t_old, h, y_old, y_new, K = step
    t_old, h, y_old = np.array([t_old]), np.array([h]), np.array([y_old])
    F = curvature._interpolants(rhs, t_old, h, y_old, np.array([y_new]), K[None].copy())
    u = np.sort([t_old[0], t_new])
    return curvature._Dop853Dense(u, (u[0], u[1]), t_old, h, y_old, F)


def assert_same_bits(got, want):
    """A list of floats holds the bits of an array's entries, signed zeros too."""
    assert [type(x) for x in got] == [float] * len(want)
    assert [x.hex() for x in got] == [float(x).hex() for x in want]


class TestStepInterpolant:
    """The float one-step evaluator of the event roots equals the dense table."""

    @pytest.mark.parametrize("build", [
        lambda: bc.solve_curvature(1, 1.0, 1.0, (-10.0, 10.0)),
        lambda: build_pipeline_patch(PipelineConfig(model="s3", k0=1.0, kp0=1.0)),
        lambda: build_pipeline_patch(PipelineConfig(model="h3", k0=1.0, kp0=1.0)),
        lambda: build_pipeline_patch(PipelineConfig(model="h3", k0=0.25, kp0=0.2)),
    ], ids=["s3-k-kp", "s3-profile", "h3-elliptic-profile", "h3-parabolic-profile"])
    def test_every_step_equals_the_dense_table(self, monkeypatch, build):
        # each step of the 2-state s3 run and of the (k, k', theta) runs,
        # at its ends, at random points inside it, inside the clip slack
        # beyond its ends, and outside that slack (or NaN), where both raise
        _, calls = recorded_runs(monkeypatch, build)
        rng = np.random.default_rng(0)
        steps = 0
        for (rhs, *_), run in calls:
            for step, t_new in zip(run.steps, run.t[1:].tolist()):
                t_old = step[0]
                at = curvature._step_interpolant(rhs, step, t_new)
                dense = one_step_dense(rhs, step, t_new)
                inside = (t_old + rng.random(4) * (t_new - t_old)).tolist()
                lo, hi = sorted((t_old, t_new))
                slack = 1e-9 * max(1.0, abs(lo), abs(hi))
                for u in [t_old, t_new, *inside, lo - slack / 2, hi + slack / 2]:
                    assert_same_bits(at(u), dense(u))
                for u in [lo - 2 * slack, hi + 2 * slack, math.nan]:
                    with pytest.raises(bc.DomainError, match="outside the solved span"):
                        at(u)
                    with pytest.raises(bc.DomainError, match="outside the solved span"):
                        dense(u)
                steps += 1
        assert steps > 50

    @pytest.mark.parametrize("build, turning, stops", [
        (lambda: bc.solve_curvature(1, 1.0, 1.0, (-10.0, 10.0)), 11, []),
        # both sides stop on the k floor: their terminal states are evaluated too
        (lambda: bc.solve_curvature(-1, 0.25, 0.2, (-20.0, 20.0)), 1, ["k_floor"] * 2),
    ])
    def test_root_solves_evaluate_the_dense_table(self, monkeypatch, build, turning, stops):
        # every point a root solve or a terminal state takes on a step that
        # holds an event root, the turning points of k among them
        evaluated = []
        exact = curvature._step_interpolant

        def recording(rhs, step, t_new):
            at = exact(rhs, step, t_new)

            def recorded(u):
                y = at(u)
                evaluated.append((rhs, step, t_new, u, y))
                return y

            return recorded

        monkeypatch.setattr(curvature, "_step_interpolant", recording)
        sol = build()
        for rhs, step, t_new, u, y in evaluated:
            assert_same_bits(y, one_step_dense(rhs, step, t_new)(u))
        assert len(sol.turning_points) == turning
        assert [e["kind"] for e in sol.boundary_events] == stops
        roots = sol.turning_points.tolist() + [e["u"] for e in sol.boundary_events]
        assert set(roots) <= {u for *_, u, _ in evaluated}


class TestClosedForms:
    """The driver against an exact solution of the curvature ODE, with no
    scipy and no ``ode_rhs``: an absolute check of its accuracy."""

    def test_hyperbolic_zero_constant_is_a_sech(self):
        # c = -1, C = 0: (k')^2 = (16/9) k^2 - 16 k^4, solved by
        # k = (1/3) sech(4 (u - u0) / 3); k(0) = 1/5 and k'(0) > 0 put u0
        # at (3/4) acosh(5/3), where k' = 0 and k takes its maximum 1/3
        kp0 = 0.8 * math.sqrt(1 / 9 - 0.04)
        u0 = 0.75 * math.acosh(5 / 3)
        u = np.linspace(-4.0, 4.0, 2001)
        z = 4.0 * (u - u0) / 3.0
        k = 1.0 / (3.0 * np.cosh(z))
        kp = -(4.0 / 9.0) * np.tanh(z) / np.cosh(z)
        k_errors, kp_errors = [], []
        for rel_tol in (1e-6, 1e-8, 1e-10):
            sol = bc.solve_curvature(-1, 0.2, kp0, (-4.0, 4.0), rel_tol=rel_tol)
            assert sol.C == 0.0 and not sol.truncated
            assert sol.k_interval == (0.0, 1.0 / 3.0)
            (turning,) = sol.turning_points
            assert abs(turning - u0) <= rel_tol * u0
            state = sol.state(u)
            k_errors.append(np.max(np.abs(state[:, 0] / k - 1.0)))
            kp_errors.append(np.max(np.abs(state[:, 1] - kp)) / np.max(np.abs(kp)))
            assert k_errors[-1] <= rel_tol and kp_errors[-1] <= rel_tol
        # measured 2.2e-8, 3.4e-10 and 7.1e-12 for k
        assert k_errors == sorted(k_errors, reverse=True)
        assert kp_errors == sorted(kp_errors, reverse=True)
        assert k_errors[-1] < 1e-3 * k_errors[0]

    def test_flat_solutions_keep_their_closed_form_constant(self):
        # c = 0: w = k^(-3/4) solves w'' = 3 w^(-5/3), with first integral
        # A = w'^2 + 9 w^(-2/3).  With s = w^(1/3) and t = A s^2 - 9, the
        # closed form u = u0 + sign(w') (t^(3/2) + 27 t^(1/2)) / A^2 holds
        # on every solution, through its turning point (w' = 0, t = 0).  Here
        # C = 12.33, with one turning point at u = -0.520
        u = np.linspace(-3.0, 3.0, 2001)
        spreads = []
        for rel_tol in (1e-6, 1e-8, 1e-10, 1e-12):
            sol = bc.solve_curvature(0, 0.5, -0.3, (-3.0, 3.0), rel_tol=rel_tol,
                                     abs_tol=rel_tol / 100)
            assert not sol.truncated and len(sol.turning_points) == 1
            state = sol.state(u)
            k, kp = state[:, 0], state[:, 1]
            w = k**-0.75
            wp = -0.75 * w * kp / k
            A = wp**2 + 9.0 * w ** (-2.0 / 3.0)
            s = w ** (1.0 / 3.0)
            t = A * s**2 - 9.0
            u0 = u - np.sign(wp) * (t**1.5 + 27.0 * np.sqrt(t)) / A**2
            spreads.append(np.ptp(u0))
            # measured 0.024, 0.049, 0.16 and 2.4 times rel_tol
            assert spreads[-1] <= 10.0 * rel_tol
        assert spreads == sorted(spreads, reverse=True)
        assert spreads[-1] < 1e-3 * spreads[0]


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


def reference_rhs(c, size, chart=None):
    """The solvers' right-hand sides on 0-d arrays: curvature (2), or curvature
    and the profile's chart angle (3), theta' = 4 k^(1/4) / (sqrt|C| D)."""
    def rhs(u, y):
        k, kp = max(y[0], 1e-300), y[1]
        out = [kp, float(reference_kpp(k, kp, c))]
        if size == 3:
            s = np.sqrt(np.asarray(k))
            ks = k * s
            out.append(float(chart.rate * np.sqrt(s) * ks
                             / (chart.d0 * ks + chart.d2 * (chart.sc * chart.sc))))
        return out

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
        # each DOP853 run of the float right-hand sides equals scipy's run of
        # the reference (array) right-hand side on the same problem
        def build():
            sol = bc.solve_curvature(c, k0, kp0, (-3.0, 3.0))
            return sol, bc.reconstruct_profile(sol, branch)

        (sol, prof), calls = recorded_runs(monkeypatch, build)
        assert [len(args[1]) for args, _ in calls] == [2, 2, 3, 3]
        refs = [scipy_run(reference_rhs(c, len(y0), prof._chart), y0, *rest)
                for (_, y0, *rest), _ in calls]
        for (_, run), res in zip(calls, refs):
            assert_same_run(run, res)
        sol_right, sol_left, prof_right, prof_left = refs
        ref_sol = reference_dense([sol_right.sol, sol_left.sol], sol.span)
        ref_prof = reference_dense([prof_right.sol, prof_left.sol], prof.span)
        for got, want in [(sol.u, np.concatenate([sol_left.t[::-1], sol_right.t[1:]])),
                          (sol.k_samples, np.concatenate([sol_left.y[0, ::-1], sol_right.y[0, 1:]])),
                          (sol.kp_samples, np.concatenate([sol_left.y[1, ::-1], sol_right.y[1, 1:]])),
                          (prof.u, np.concatenate([prof_left.t[::-1], prof_right.t[1:]]))]:
            assert np.array_equal(got, want)
        grid = np.unique(np.concatenate([np.linspace(*prof.span, 301), prof.u]))
        assert np.array_equal(sol.state(grid), ref_sol(grid))
        assert np.array_equal(prof.curvature._dense(grid), ref_prof(grid))
        assert np.array_equal(prof.state(grid), prof._chart.state(ref_prof(grid)))

    def test_flat_solve_matches_scipy(self, monkeypatch):
        # c = 0: both runs of the float right-hand side equal scipy's runs of
        # it and of the reference right-hand side, and so does the dense output
        sol, calls = recorded_runs(
            monkeypatch, lambda: bc.solve_curvature(0, 0.5, -0.3, (-3.0, 3.0)))
        assert [args[2] for args, _ in calls] == [3.0, -3.0]
        refs = [scipy_run(*args) for args, _ in calls]
        for (args, run), res in zip(calls, refs):
            assert_same_run(run, res)
            assert_same_run(run, scipy_run(reference_rhs(0, 2), *args[1:]))
        right, left = refs
        assert np.array_equal(sol.u, np.concatenate([left.t[::-1], right.t[1:]]))
        grid = np.unique(np.concatenate([np.linspace(*sol.span, 301), sol.u]))
        assert np.array_equal(sol.state(grid),
                              reference_dense([right.sol, left.sol], sol.span)(grid))

    @pytest.mark.parametrize("c, C, branch", [
        (-1, None, None),
        (0, None, None),
        (1, None, None),
        (1, 169.0 / 9.0, bc.Branch.S2),
        (-1, 137.0 / 9.0, bc.Branch.H2_ELLIPTIC),
        (-1, -3.0, bc.Branch.H2_PARABOLIC),
    ], ids=["h3", "r3", "s3", "s2-chart", "h2_elliptic-chart", "h2_parabolic-chart"])
    def test_run_rhs_floats_equal_arrays(self, c, C, branch):
        # a run's right-hand side gives the same bits on floats (stepping)
        # and on arrays (the interpolant pass), also where it clamps k at
        # 1e-300 and on NaN
        rhs = curvature._run_rhs(c) if branch is None else profile._chart(branch, c, C).rhs
        k = np.concatenate([self.k, [1e-300, 1e-310, 5e-324, 0.0, -0.0, -1.0, np.nan, 1.0]])
        kp = np.concatenate([self.kp, [1.0, -2.0, 0.5, 1.0, 1.0, 1.0, 1.0, np.nan]])
        theta = np.zeros_like(k)
        want = np.transpose(rhs(0.0, [k, kp, theta]))
        got = [rhs(0.0, [a, b, 0.0]) for a, b in zip(k.tolist(), kp.tolist())]
        assert {type(x) for row in got for x in row} == {float}
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(want[-2:, 1]).all() and not np.isnan(want[:-2]).any()

    @pytest.mark.parametrize("c, C, branch", [
        (1, 169.0 / 9.0, bc.Branch.S2),
        (-1, 137.0 / 9.0, bc.Branch.H2_ELLIPTIC),
        (-1, -3.0, bc.Branch.H2_PARABOLIC),
    ])
    def test_float_input_returns_float(self, c, C, branch):
        # a numpy scalar in the stepping would turn every value after it
        # into numpy-scalar arithmetic
        chart = profile._chart(branch, c, C)
        for k, kp in zip(self.k[:200].tolist(), self.kp[:200].tolist()):
            assert type(bc.ode_rhs(k, kp, c)) is float
            assert type(bc.prime_poly(k, C, c)) is float
            assert type(chart.dtheta(k)) is float

    @pytest.mark.parametrize("build", [
        lambda: bc.reconstruct_profile(bc.solve_curvature(1, 1.0, 1.0, (-10.0, 10.0)), "s2"),
        lambda: bc.solve_curvature(-1, 1.0, 1.0, (-20.0, 20.0)),  # stops at k_floor
    ])
    def test_stepping_stays_on_floats(self, monkeypatch, build):
        # while a run steps (initial step rule, stages, events and their root
        # solves), u, every state entry and every returned value are floats;
        # the interpolant pass takes arrays by design and is let through
        calls = {"rhs": 0, "event": 0}
        interpolating = []
        exact_interpolants = curvature._interpolants

        def interpolants(*args):
            interpolating.append(True)
            try:
                return exact_interpolants(*args)
            finally:
                interpolating.pop()

        def assert_floats(u, y, out):
            values = [u, *y, *(out if isinstance(out, list) else [out])]
            assert [type(x) for x in values] == [float] * len(values)

        def checked_rhs(rhs):
            def wrapped(u, y):
                out = rhs(u, y)
                if not interpolating:
                    assert_floats(u, y, out)
                    calls["rhs"] += 1
                return out
            return wrapped

        def checked_event(event):
            def wrapped(u, y):
                out = event(u, y)
                assert_floats(u, y, out)
                calls["event"] += 1
                return out
            wrapped.__name__ = event.__name__
            wrapped.terminal, wrapped.direction = event.terminal, event.direction
            return wrapped

        exact = curvature._dop853

        def dop853(rhs, y0, t_bound, rtol, atol, events):
            return exact(checked_rhs(rhs), y0, t_bound, rtol, atol,
                         [checked_event(e) for e in events])

        monkeypatch.setattr(curvature, "_dop853", dop853)
        monkeypatch.setattr(curvature, "_interpolants", interpolants)
        build()
        assert calls["rhs"] > 1000 and calls["event"] > 100

    @pytest.mark.parametrize("c, C, branch", [
        (1, 169.0 / 9.0, bc.Branch.S2),
        (-1, 137.0 / 9.0, bc.Branch.H2_ELLIPTIC),
        (-1, -3.0, bc.Branch.H2_PARABOLIC),
    ])
    def test_chart_angle_rate_float_path(self, c, C, branch):
        # the profile run's theta' on floats (stepping) and arrays (interpolants)
        chart = profile._chart(branch, c, C)
        k = self.k
        want = chart.dtheta(k)
        assert np.array_equal([chart.dtheta(x) for x in k.tolist()], want)
        assert np.array_equal([chart.dtheta(np.asarray(x)) for x in k], want)
