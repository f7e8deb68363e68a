"""Shared fixtures: the three curved pipelines and classical test surfaces."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import biconsurf as bc
from biconsurf import curvature, surfaces
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch
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


def scipy_run(rhs, y0, t_bound, rtol, atol, events):
    """scipy's own DOP853 run of a recorded call: the in-house driver's reference."""
    return solve_ivp(rhs, (0.0, t_bound), y0, method="DOP853", dense_output=True,
                     rtol=rtol, atol=atol, events=events)


def assert_same_run(run, res):
    """An in-house run and scipy's result agree bit for bit."""
    assert run.status == res.status
    assert np.array_equal(run.t, res.t)
    assert np.array_equal(run.y, res.y)
    assert len(run.t_events) == len(res.t_events)
    for got, want in zip(run.t_events, res.t_events):
        assert np.array_equal(got, want)


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
    return curvature._Dop853Dense([sol.ts for sol in sols], span, *stacked_interpolants(sols))


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
        eval_u_domain=(-1e9, 1e9),
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
