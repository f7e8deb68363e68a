"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance here is pinned; the pipelines under test are the library defaults.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import biconsurf as bc
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch, cmd_solve, cmd_surface

from conftest import great_sphere_patch, plane_patch


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def _warmup():
    # first scipy call pays one-off setup costs; keep timings honest
    bc.solve_curvature(1, 1.0, 1.0, (-0.1, 0.1))


def test_criterion_1_figure_constants_and_drift():
    datasets = [
        (1, 1.0, 1.0, 169.0 / 9.0),
        (-1, 1.0, 1.0, 137.0 / 9.0),
        (-1, 0.25, 0.2, -248.0 / 225.0),
    ]
    worst_rel = 0.0
    worst_drift = 0.0
    worst_time = 0.0
    for c, k0, kp0, exact in datasets:
        t0 = time.perf_counter()
        val = float(bc.prime_constant(k0, kp0, c))
        sol = bc.solve_curvature(c, k0, kp0, (-1.0, 1.0))
        dt = time.perf_counter() - t0
        worst_rel = max(worst_rel, abs(val - exact) / abs(exact))
        worst_drift = max(worst_drift, sol.drift() / abs(sol.C))
        worst_time = max(worst_time, dt)
    ok = worst_rel <= 1e-12 and worst_drift < 1e-8 and worst_time < 0.1
    _line(
        "criterion 1 (figure constants + drift)",
        ok,
        f"rel err {worst_rel:.2e} <= 1e-12, drift {worst_drift:.2e} < 1e-8, "
        f"time {worst_time * 1e3:.0f} ms < 100 ms",
    )


def test_criterion_2_r3_closed_form_pipeline():
    t0 = time.perf_counter()
    prof = bc.revolution_profile(1.0, 12.0)
    patch = bc.build_r3_revolution(prof, (prof.t_of_rho([1.5, 8.0]), (0.0, 2.0 * np.pi)))
    report = bc.verify_patch(patch, 64, 64)
    # the profile ODE 3 rho rho_zz = 1 + rho_z^2 in closed form from the u-line,
    # rho_z = a'/z' and rho_zz = (a'' z' - a' z'')/z'^3, across the whole chart
    line = patch.uline(np.linspace(-prof.t_max, prof.t_max, 200))
    rho, rho_t, rho_tt = line[2], line[3], line[5]
    z_t, z_tt = line[1][..., 2], line[4][..., 2]
    rho_z, rho_zz = rho_t / z_t, (rho_tt * z_t - rho_t * z_tt) / z_t**3
    ode_res = float(np.max(np.abs(3.0 * rho * rho_zz - 1.0 - rho_z**2)))
    dt = time.perf_counter() - t0
    res = report.residuals
    checks = {
        "biconservative": res["biconservative"]["max"] < 1e-8,
        "gauss": res["gauss_identity"]["max"] < 1e-8,
        "f_ref": res["f_vs_reference"]["max"] < 1e-8,
        "profile_ode": ode_res < 1e-8,
        "runtime": dt < 1.0,
    }
    _line(
        "criterion 2 (flat closed-form pipeline)",
        all(checks.values()),
        f"bicons {res['biconservative']['max']:.1e}, gauss "
        f"{res['gauss_identity']['max']:.1e}, f_ref {res['f_vs_reference']['max']:.1e}, "
        f"ode {ode_res:.1e} (all < 1e-8), time {dt:.2f} s < 1 s",
    )


def test_criterion_3_height_cross_validation():
    t0 = time.perf_counter()
    prof = bc.revolution_profile(1.0, 12.0)

    def regular_part(r):
        return math.sqrt((r - 1.0) / (r ** (2.0 / 3.0) - 1.0)) if r > 1 else math.sqrt(1.5)

    oracle, _ = quad(regular_part, 1.0, 8.0, weight="alg", wvar=(-0.5, 0.0),
                     epsabs=1e-13, epsrel=1e-13)
    increment = float(prof.u_of_rho(8.0) - prof.u_of_rho(1.0))
    quad_err = abs(increment - oracle)

    heights = [float(bc.revolution_profile(C, 12.0).u_of_rho(8.0)) for C in (1.0, 1.5, 2.0)]
    ordered = heights[0] > heights[1] > heights[2]
    dt = time.perf_counter() - t0
    ok = quad_err < 1e-9 and ordered and dt < 0.1
    _line(
        "criterion 3 (height quadrature + family ordering)",
        ok,
        f"quadrature err {quad_err:.1e} < 1e-9, heights {[round(h, 4) for h in heights]} "
        f"decreasing, time {dt * 1e3:.0f} ms < 100 ms",
    )


def test_criterion_4_sphere_constraints():
    t0 = time.perf_counter()
    patch, _ = build_pipeline_patch(PipelineConfig(model="s3", k0=1.0, kp0=1.0))
    prof = patch.profile
    u = np.linspace(-1.0, 1.0, 512)
    res = prof.constraint_residuals(u)
    U, V = np.meshgrid(u[::8], np.linspace(0, 2 * np.pi, 64), indexing="ij")
    X = patch.X(U, V)
    member = float(np.max(np.abs(np.sum(X * X, axis=-1) - 1.0)))
    dt = time.perf_counter() - t0
    c1 = float(np.max(np.abs(res["constraint_c1"])))
    c2 = float(np.max(np.abs(res["constraint_c2"])))
    mm = float(np.max(np.abs(res["model_membership"])))
    ok = c1 < 1e-6 and c2 < 1e-8 and mm < 1e-8 and member < 1e-8 and dt < 2.0
    _line(
        "criterion 4 (sphere classification constraints)",
        ok,
        f"<sigma,C1>-target {c1:.1e} < 1e-6, <sigma,C2> {c2:.1e} < 1e-8, "
        f"|sigma|^2-1 {mm:.1e} < 1e-8, |X|^2-1 {member:.1e} < 1e-8, time {dt:.2f} s < 2 s",
    )


def test_criterion_5_hyperbolic_both_branches():
    for name, k0, kp0, exact_C in [
        ("elliptic", 1.0, 1.0, 137.0 / 9.0),
        ("parabolic", 0.25, 0.2, -248.0 / 225.0),
    ]:
        t0 = time.perf_counter()
        patch, sol = build_pipeline_patch(PipelineConfig(model="h3", k0=k0, kp0=kp0))
        prof = patch.profile
        u = np.linspace(-1.0, 1.0, 256)
        v = np.linspace(*patch.v_range, 64)
        U, V = np.meshgrid(u[::4], v, indexing="ij")
        X = patch.X(U, V)
        member = float(np.max(np.abs(patch.model.inner(X, X) + 1.0)))
        sheet = bool(np.min(X[..., 3]) > 0)
        res = prof.constraint_residuals(u)
        c1 = float(np.max(np.abs(res["constraint_c1"])))
        c2 = float(np.max(np.abs(res["constraint_c2"])))
        dt = time.perf_counter() - t0
        ok = (
            abs(sol.C - exact_C) <= 1e-9 * abs(exact_C)
            and member < 1e-8 and sheet and c1 < 1e-6 and c2 < 1e-6 and dt < 2.0
        )
        _line(
            f"criterion 5 (hyperbolic {name} branch)",
            ok,
            f"C={sol.C:.6f}, <X,X>+1 {member:.1e} < 1e-8, x4>0 {sheet}, "
            f"constraints {max(c1, c2):.1e} < 1e-6, time {dt:.2f} s < 2 s",
        )


def test_criterion_6_intrinsic_identity_suite():
    cases = [
        ("s3", PipelineConfig(model="s3", k0=1.0, kp0=1.0)),
        ("h3 elliptic", PipelineConfig(model="h3", k0=1.0, kp0=1.0)),
        ("h3 parabolic", PipelineConfig(model="h3", k0=0.25, kp0=0.2)),
    ]
    for name, cfg in cases:
        patch, _ = build_pipeline_patch(cfg)
        t0 = time.perf_counter()
        report = bc.verify_patch(patch, 64, 64)
        dt = time.perf_counter() - t0
        res = report.residuals
        checks = {
            "biconservative": res["biconservative"]["max"] < 1e-5,
            "gauss": res["gauss_identity"]["max"] < 1e-5,
            "shape_norm": res["shape_operator_norm"]["max"] < 1e-5,
            "eigen": res["principal_values"]["max"] < 1e-5,
            "f_vs_2k": res["f_vs_profile"]["max"] < 1e-5,
            "x2f": res["x2f"]["max"] < 1e-5,
            "pde": res["pde"]["max"] < 1e-4,
            "runtime": dt < 5.0,
        }
        worst = max(
            res[k]["max"] for k in (
                "biconservative", "gauss_identity", "shape_operator_norm",
                "principal_values", "f_vs_profile", "x2f")
        )
        _line(
            f"criterion 6 (identity suite, {name})",
            all(checks.values()),
            f"first-order identities {worst:.1e} < 1e-5, pde {res['pde']['max']:.1e} "
            f"< 1e-4, time {dt:.2f} s < 5 s",
        )


def test_criterion_7_non_biharmonicity():
    mins = {}
    for name, cfg in [
        ("r3", PipelineConfig(model="r3", C=1.0)),
        ("s3", PipelineConfig(model="s3", k0=1.0, kp0=1.0)),
        ("h3 elliptic", PipelineConfig(model="h3", k0=1.0, kp0=1.0)),
        ("h3 parabolic", PipelineConfig(model="h3", k0=0.25, kp0=0.2)),
    ]:
        patch, _ = build_pipeline_patch(cfg)
        mins[name] = bc.verify_patch(patch, 64, 64).bitension["min_abs"]
    # regression-frozen floors: the flat family's bitension decays toward
    # the outer radius of its pinned grid, bottoming out just under 1e-3
    floors = {"r3": 9e-4, "s3": 1e-3, "h3 elliptic": 1e-3, "h3 parabolic": 1e-3}
    nonzero_ok = all(mins[n] > floors[n] for n in mins)

    cmc_vals = []
    for fixture in (great_sphere_patch(), plane_patch()):
        u = 0.5 * (fixture.u_range[0] + fixture.u_range[1])
        pg = bc.point_geometry(fixture, u, 0.7)
        cmc_vals.append(abs(bc.normal_bitension_residual(pg)))
    cmc_ok = max(cmc_vals) <= 1e-10
    _line(
        "criterion 7 (non-biharmonicity)",
        nonzero_ok and cmc_ok,
        "min |bitension| " + ", ".join(f"{n}={v:.2e}" for n, v in mins.items())
        + f" above floors; biharmonic fixtures {max(cmc_vals):.1e} <= 1e-10",
    )


def test_criterion_8_oracle_equivalence():
    cfg = PipelineConfig(model="s3", k0=1.0, kp0=1.0)
    patch, sol = build_pipeline_patch(cfg)
    u_turn = float(sol.turning_points[np.argmin(np.abs(sol.turning_points))])
    dev = bc.oracle_deviation(patch.profile, 0.05, u_turn - 0.03)
    ok = dev["x"] < 1e-6 and dev["y"] < 1e-6
    _line(
        "criterion 8 (frame vs k-parameter oracle)",
        ok,
        f"max |x_frame - x_oracle| = {dev['x']:.1e}, "
        f"|y_frame - y_oracle| = {dev['y']:.1e} (< 1e-6)",
    )


def test_criterion_9_turning_point_consistency():
    sol = bc.solve_curvature(1, 1.0, 1.0, (-1.0, 1.0))
    assert len(sol.turning_points) >= 1
    worst_poly = 0.0
    worst_end = 0.0
    for ut in sol.turning_points:
        k = float(sol.k(ut))
        worst_poly = max(worst_poly, abs(bc.prime_poly(k, sol.C, 1)))
        worst_end = max(
            worst_end,
            min(abs(k - sol.k_interval[0]), abs(k - sol.k_interval[1])),
        )
    ok = worst_poly < 1e-8 and worst_end < 1e-6
    _line(
        "criterion 9 (turning points at polynomial roots)",
        ok,
        f"{len(sol.turning_points)} event(s), |P(k)| {worst_poly:.1e} < 1e-8, "
        f"endpoint distance {worst_end:.1e} < 1e-6",
    )


def test_criterion_10_determinism(tmp_path):
    cfg_solve = PipelineConfig(model="s3", k0=1.0, kp0=1.0)
    cmd_solve(cfg_solve, tmp_path / "a.csv")
    cmd_solve(cfg_solve, tmp_path / "b.csv")
    csv_same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    cfg_surface = PipelineConfig(model="s3", nu=16, nv=16)
    cmd_surface(cfg_surface, tmp_path / "one")
    cmd_surface(cfg_surface, tmp_path / "two")
    names = ("surface.report.json", "surface.obj", "surface.ply",
             "surface.obj.channels.csv")
    surf_same = all(
        (tmp_path / "one" / n).read_bytes() == (tmp_path / "two" / n).read_bytes()
        for n in names
    )
    _line(
        "criterion 10 (bit-identical reruns)",
        csv_same and surf_same,
        f"solve CSV identical: {csv_same}; report/OBJ/PLY/channels identical: {surf_same}",
    )
