"""Shared fixtures: the three curved pipelines and classical test surfaces,
and the tests' scipy references (DOP853 runs and the k-parameter oracle)."""
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp

import biconsurf as bc
from biconsurf import curvature, surfaces
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch
from biconsurf.profile import Branch, ProfileCurve
from biconsurf.surfaces import SurfacePatch


def recorded_runs(monkeypatch, build):
    """``build()`` and every DOP853 run it made, in order: ((rhs, y0, t_bound,
    rtol, atol, events), run) for each ``curvature._dop853`` call."""
    exact = curvature._dop853
    calls = []

    def recording(rhs, y0, t_bound, rtol, atol, events):
        run = exact(rhs, y0, t_bound, rtol, atol, events)
        calls.append(((rhs, np.array(y0, dtype=float), t_bound, rtol, atol, events), run))
        return run

    with monkeypatch.context() as m:
        m.setattr(curvature, "_dop853", recording)
        built = build()
    return built, calls


def max_drift(sol, n=1001) -> float:
    """Max |C drift| of a curvature solution over n evenly spaced points of
    its span and its steps."""
    u = np.unique(np.concatenate([np.linspace(*sol.span, n), sol.u]))
    return float(np.max(np.abs(sol.drift(u))))


def report_grid(report):
    """(u, v) of a verification report's grid, rebuilt from its ``grid`` entry."""
    g = report.grid
    return np.linspace(*g["u_range"], g["nu"]), np.linspace(*g["v_range"], g["nv"])


def scipy_run(rhs, y0, t_bound, rtol, atol, events):
    """scipy's own DOP853 run of a recorded call: the in-house driver's reference."""
    return solve_ivp(rhs, (0.0, t_bound), y0, method="DOP853", dense_output=True,
                     rtol=rtol, atol=atol, events=events)


def assert_same_run(run, res):
    """An in-house run and scipy's result agree bit for bit, its segment
    table and the interpolants of scipy's dense output too."""
    assert run.status == res.status
    assert np.array_equal(run.t, res.t)
    assert np.array_equal(run.y, res.y)
    assert len(run.t_events) == len(res.t_events)
    for got, want in zip(run.t_events, res.t_events):
        assert np.array_equal(got, want)
    assert len(run.table[0]) == len(res.sol.interpolants)
    for got, want in zip(run.table, stacked_interpolants([res.sol])):
        assert np.array_equal(got, want, equal_nan=True)


def stacked_interpolants(sols):
    """(t_old, h, y_old, F) of the interpolants of scipy ``OdeSolution``s, stacked."""
    pieces = [p for sol in sols for p in sol.interpolants]
    return (
        np.array([p.t_old for p in pieces], dtype=float),
        np.array([p.h for p in pieces], dtype=float),
        np.array([p.y_old for p in pieces], dtype=float),
        np.stack([p.F for p in pieces], axis=1, dtype=float),
    )


def assert_same_interpolants(dense, sols):
    """A stacked evaluator holds exactly the interpolants of scipy's runs."""
    for got, want in zip((dense.t_old, dense.h, dense.y_old, dense.F), stacked_interpolants(sols)):
        assert np.array_equal(got, want)


def reference_dense(sols, span):
    """The stacked evaluator over ``span`` of the interpolants of scipy's runs
    (``OdeSolution``s; of two, the right one first)."""
    u = np.unique(np.concatenate([sol.ts for sol in sols]))
    return curvature._Dop853Dense(u, span, *stacked_interpolants(sols))


# ---------------------------------------------------------------------------
# independent oracle: first-order ODE in the k parameter (sphere branch)
# ---------------------------------------------------------------------------


class InfeasibleError(bc.GeometryError):
    """A square-root argument or inequality required by the oracle fails."""


class SplitRangeError(bc.GeometryError):
    """Requested range crosses a singular point and must be split first."""


@dataclass(frozen=True, eq=False)
class OracleCurve:
    """x(k) from the reduced first-order ODE, with y recovered by the quadric.

    ``x`` reads the dense output (``OdeSolution``) of scipy's own
    ``solve_ivp`` run, so the oracle shares no integration code with the
    profile curves it checks.
    """

    C: float
    sign: int
    y_sign: int
    k_range: tuple[float, float]
    _sol: OdeSolution

    def x(self, k):
        k = np.asarray(k, dtype=float)
        flat = k.ravel()
        # OdeSolution cannot evaluate an empty array
        x = (self._sol(flat)[0] if flat.size else flat).reshape(k.shape)
        return x if k.ndim else float(x)

    def y(self, k):
        k = np.asarray(k, dtype=float)
        x = self.x(k)
        disc = 1.0 - x**2 - 16.0 / (9.0 * self.C) * k**-1.5
        return self.y_sign * np.sqrt(np.maximum(disc, 0.0))


def _dxdk_rhs(C: float, sign: int):
    def rhs(k, x):
        den = 9.0 * C * k**1.5 - 16.0
        rad1 = -9.0 * C * k**1.5 * x[0] ** 2 + 9.0 * C * k**1.5 - 16.0
        rad2 = 9.0 * C * k**1.5 - 144.0 * k**2 - 16.0
        rad1 = max(rad1, 0.0)
        rad2 = max(rad2, 1e-300)
        return [
            12.0 * x[0] / (k * den)
            + sign * 36.0 * np.sqrt(rad1) / (den * np.sqrt(rad2))
        ]

    return rhs


def profile_oracle_dxdk(
    x0: float,
    k_range: tuple[float, float],
    C: float,
    sign: int = 1,
    y_sign: int = 1,
    rel_tol: float = 1e-11,
) -> OracleCurve:
    """Integrate the reduced dx/dk equation on a strictly monotone arc.

    ``k_range`` must avoid both the turning-point locus (where the prime
    integral polynomial vanishes and the square root in the equation blows
    up) and the curve C1-pole where 9 C k^(3/2) = 16.  The result is an
    independent cross-check of the profile integration: scipy's
    ``solve_ivp`` integrates it (the module-level name, which a test may
    patch to record the run).
    """
    k_a, k_b = float(k_range[0]), float(k_range[1])
    if k_a == k_b:
        raise bc.UsageError("k_range must be nondegenerate")
    lo, hi = min(k_a, k_b), max(k_a, k_b)
    probe = np.linspace(lo, hi, 257)
    den = 9.0 * C * probe**1.5 - 16.0
    if np.any(den <= 0) and np.any(den >= 0):
        raise SplitRangeError("k range crosses the pole 9 C k^(3/2) = 16")
    turn = bc.prime_poly(probe, C, 1)
    if np.any(turn <= 0):
        raise SplitRangeError(
            "k range touches a turning point of the curvature solution; "
            "split the arc at the turning point"
        )
    rad1 = -9.0 * C * probe**1.5 * x0**2 + 9.0 * C * probe**1.5 - 16.0
    if rad1[np.argmin(np.abs(probe - k_a))] < -1e-12:
        raise InfeasibleError("initial point violates the quadric inequality")

    res = solve_ivp(
        _dxdk_rhs(C, sign),
        (k_a, k_b),
        [float(x0)],
        method="DOP853",
        dense_output=True,
        rtol=rel_tol,
        atol=1e-13,
    )
    if not res.success:
        raise InfeasibleError(f"oracle integration failed: {res.message}")
    return OracleCurve(
        C=C, sign=sign, y_sign=y_sign, k_range=(k_a, k_b), _sol=res.sol
    )


def oracle_deviation(
    prof: ProfileCurve,
    u_start: float,
    u_end: float,
    n: int = 200,
) -> dict:
    """Max deviation between the profile curve and the k-parameter oracle.

    Valid only on the sphere branch and on arcs where k is strictly
    monotone.  The equation's sign ambiguity is resolved by matching the
    profile's dx/dk at the start of the arc, and the y branch by the profile's
    y sign there; both are degenerate exactly where y = 0, so pick an arc
    start away from that locus.
    """
    if prof.branch is not Branch.S2:
        raise bc.UsageError("the k-parameter oracle applies to the sphere branch")
    u = np.linspace(u_start, u_end, n)
    st = prof.state(u)
    k, kp = st[..., 0], st[..., 1]
    if np.any(kp == 0) or np.max(kp) * np.min(kp) < 0:
        raise SplitRangeError("arc is not strictly monotone in k")
    x_fr, y_fr = st[..., 2], st[..., 3]

    k0, kp0 = float(k[0]), float(kp[0])
    x0 = float(x_fr[0])
    slope = float(st[0, 6]) / kp0  # dx/dk from the profile at the arc start
    cands = {s: _dxdk_rhs(prof.C, s)(k0, [x0])[0] for s in (1, -1)}
    sign = min(cands, key=lambda s: abs(cands[s] - slope))
    y_sign = 1 if y_fr[0] >= 0 else -1

    oracle = profile_oracle_dxdk(x0, (k0, float(k[-1])), prof.C, sign, y_sign)
    return {
        "x": float(np.max(np.abs(oracle.x(k) - x_fr))),
        "y": float(np.max(np.abs(oracle.y(k) - y_fr))),
        "sign": sign,
    }


def sweep_patch(case, model, sigma, amplitude, orbit, u_range, v_range):
    """Closed-form patch X = sigma(u) + a(u) S(v) for fixtures; valid everywhere.

    ``sigma(u)`` and ``amplitude(u)`` return their derivatives of orders 0
    to 4 and ``orbit(v)`` returns (S, S', S'', S''', S''''); the built
    families' sweep evaluator gives X and its partials up to order 4.
    """

    def uline(u):
        u = np.asarray(u, dtype=float)
        line = [None] * 10
        for i, (s, a) in enumerate(zip(sigma(u), amplitude(u))):
            line[surfaces._SIGMA[i]], line[surfaces._AMPLITUDE[i]] = s, a
        return tuple(line)

    at, jet, jet4 = surfaces._sweep_evaluators(orbit)
    return SurfacePatch(
        case=case,
        model=model,
        u_range=u_range,
        v_range=v_range,
        uline=uline,
        at=at,
        jet=jet,
        jet4=jet4,
    )


def vectors(*components):
    """u-shaped components stacked into vectors, zeros where a component is 0."""
    shape = np.broadcast(*components).shape
    return np.stack([np.broadcast_to(x, shape).astype(float) for x in components], -1)


def line_orbit(e):
    """The orbit S = v e (a translation along e)."""
    e = np.asarray(e, dtype=float)

    def orbit(v):
        one, zero = np.ones_like(v)[..., None], np.zeros_like(v)[..., None]
        return v[..., None] * e, one * e, zero * e, zero * e, zero * e

    return orbit


def turn_orbit(dim):
    """The orbit S = (cos v, sin v, 0, ...) in the first coordinate plane."""
    pad = [0.0] * (dim - 2)

    def orbit(v):
        cv, sv = np.cos(v), np.sin(v)
        return tuple(vectors(x, y, *pad)
                     for x, y in ((cv, sv), (-sv, cv), (-cv, -sv), (sv, -cv), (cv, sv)))

    return orbit


def constant(value, n=5):
    """Derivatives of orders 0..n-1 of a constant amplitude."""
    return lambda u: [np.full_like(u, float(value))] + [np.zeros_like(u)] * (n - 1)


def _sin_cos(u):
    """(sin, cos) derivatives of orders 0..4 of sin u and cos u."""
    s, c = np.sin(u), np.cos(u)
    return [s, c, -s, -c, s], [c, -s, -c, s, c]


def plane_patch():
    # X = (u, v, 0)
    return sweep_patch(
        "fixture_plane", bc.R3,
        lambda u: [vectors(u, 0, 0), vectors(np.ones_like(u), 0, 0)]
        + [vectors(np.zeros_like(u), 0, 0)] * 3,
        constant(1.0), line_orbit([0, 1, 0]),
        (-1.0, 1.0), (-1.0, 1.0),
    )


def cylinder_patch():
    # X = (cos u, sin u, v)
    def sigma(u):
        s, c = _sin_cos(u)
        return [vectors(ci, si, 0) for si, ci in zip(s, c)]

    return sweep_patch(
        "fixture_cylinder", bc.R3, sigma, constant(1.0), line_orbit([0, 0, 1]),
        (0.0, 6.0), (-1.0, 1.0),
    )


def _round_sphere(case, model, dim):
    # X = (sin u cos v, sin u sin v, cos u, 0...)
    pad = [0] * (dim - 3)
    return sweep_patch(
        case, model,
        lambda u: [vectors(0, 0, ci, *pad) for ci in _sin_cos(u)[1]],
        lambda u: _sin_cos(u)[0],
        turn_orbit(dim),
        (0.4, np.pi - 0.4), (0.0, 2 * np.pi),
    )


def sphere_patch():
    return _round_sphere("fixture_sphere", bc.R3, 3)


def great_sphere_patch():
    """Totally geodesic 2-sphere inside the 3-sphere (f = 0, K = 1)."""
    return _round_sphere("fixture_great_sphere", bc.S3, 4)


@pytest.fixture(scope="session")
def r3_pipeline():
    prof = bc.revolution_profile(1.0, 12.0)
    patch = bc.build_r3_revolution(prof, (prof.t_of_rho([1.5, 8.0]), (0.0, 2 * np.pi)))
    report = bc.verify_patch(patch, 64, 64)
    return prof, patch, report


def _curved(model, k0, kp0):
    cfg = PipelineConfig(model=model, k0=k0, kp0=kp0)
    patch, sol = build_pipeline_patch(cfg)
    report = bc.verify_patch(patch, 64, 64)
    return sol, patch.profile, patch, report


@pytest.fixture(scope="session")
def s3_pipeline():
    return _curved("s3", 1.0, 1.0)


@pytest.fixture(scope="session")
def h3e_pipeline():
    return _curved("h3", 1.0, 1.0)


@pytest.fixture(scope="session")
def h3p_pipeline():
    return _curved("h3", 0.25, 0.2)
