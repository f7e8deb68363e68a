import dataclasses
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biconsurf as bc
from biconsurf import mesh, profile, surfaces, verify
from biconsurf.ambient import Signature
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch, cmd_surface
from biconsurf.verify import (
    FDScheme,
    _field_bundle,
    _laplacian,
    _metric_tables,
    _Probe,
    _shape,
    fd_for_patch,
    normal_sign,
)

from conftest import (
    constant,
    cylinder_patch,
    great_sphere_patch,
    line_orbit,
    plane_patch,
    sphere_patch,
    sweep_patch,
    vectors,
)


def mid(patch):
    return 0.5 * (patch.u_range[0] + patch.u_range[1]), 0.5 * (
        patch.v_range[0] + patch.v_range[1]
    )


def inner_grid(patch):
    """u and v of a 3 x 3 grid inside the patch rectangle (u-major, as the verifier's)."""
    return np.linspace(*patch.u_range, 5)[1:4], np.linspace(*patch.v_range, 5)[1:4]


def fundamental_forms(patch, u, v):
    """The first and second fundamental forms at a point, from the point API."""
    pg = bc.point_geometry(patch, u, v)
    return pg.metric, pg.second_form


def pde_residual(patch, u, v) -> float:
    """The signed pde row at a point, read through the point API."""
    return bc.point_geometry(patch, u, v).residuals["pde"]


class TestClassicalFixtures:
    def test_plane(self):
        p = plane_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert pg.f == pytest.approx(0.0, abs=1e-12)
        assert pg.K == pytest.approx(0.0, abs=1e-12)

    def test_cylinder_oriented_positive(self):
        p = cylinder_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert pg.f == pytest.approx(1.0, abs=1e-9)
        assert pg.K == pytest.approx(0.0, abs=1e-9)

    def test_unit_sphere(self):
        p = sphere_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert pg.f == pytest.approx(2.0, abs=1e-8)
        assert pg.K == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(pg.metric, pg.metric.T)

    def test_great_sphere_is_minimal(self):
        p = great_sphere_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert pg.f == pytest.approx(0.0, abs=1e-10)
        assert pg.K == pytest.approx(1.0, abs=1e-9)

    def test_cmc_biconservative_trivially(self):
        p = sphere_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert pg.residuals["biconservative"] < 1e-10

    def test_cmc_gates_eigen_checks(self):
        p = cylinder_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert {"principal_values", "x2f"} <= pg.masked
        assert "biconservative" not in pg.masked

    def test_biharmonic_fixture_bitension_vanishes(self):
        p = great_sphere_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert abs(pg.residuals["normal_bitension_min"]) <= 1e-10

    def test_normal_is_unit_and_orthogonal(self):
        p = sphere_patch()
        pg = bc.point_geometry(p, *mid(p))
        assert np.linalg.norm(pg.normal) == pytest.approx(1.0, abs=1e-12)


# The two cross-checks as separate implementations, the reference that the
# shared kernel verify._fd_cross_check must reproduce bit for bit.
def _rich1(f, h: float):
    """Richardson-extrapolated central difference of f at 0 (steps h and h/2)."""
    d_h = (f(h) - f(-h)) / (2.0 * h)
    d_h2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _second_partials_fd(pr: _Probe, h: float):
    """(Xuu, Xuv, Xvv) on the grid by differencing the first partials."""
    frames: dict = {}

    def frame(du, dv):
        if (du, dv) not in frames:
            frames[du, dv] = pr.frame(du, dv)
        return frames[du, dv]

    Xuu = _rich1(lambda s: frame(s, 0.0)[1], h)
    Xvv = _rich1(lambda s: frame(0.0, s)[2], h)
    Xuv = 0.5 * (_rich1(lambda s: frame(0.0, s)[1], h) + _rich1(lambda s: frame(s, 0.0)[2], h))
    return Xuu, Xuv, Xvv


def _higher_partials_fd(patch, ugrid, vgrid, fd: FDScheme) -> np.ndarray:
    """Largest Euclidean norm of jet4 minus differences of the order below."""
    h = fd.inner_step
    pr = _Probe(patch, ugrid, vgrid, (0.0, h, -h, 0.5 * h, -0.5 * h, 0.25 * h, -0.25 * h))
    cache: dict = {}

    def jets(du, dv):
        # orders 2, 3 and 4 by the number of v's: indices 0-2, 3-6, 7-11
        key = (float(du), float(dv))
        if key not in cache:
            cache[key] = pr.jet(du, dv) + pr.jet4(du, dv)
        return cache[key]

    def diff(i, along_u):
        def shifted(s):
            return jets(s, 0.0)[i] if along_u else jets(0.0, s)[i]

        return (16.0 * _rich1(shifted, 0.5 * h) - _rich1(shifted, h)) / 15.0

    # (partial, the partial it differences, direction)
    pairs = [(3, 0, True), (7, 3, True)]
    pairs += [(i, i - 4, False) for i in (4, 5, 6)]
    pairs += [(i, i - 5, False) for i in (8, 9, 10, 11)]
    exact = jets(0.0, 0.0)
    euclid = Signature(patch.model.ambient.dim)
    worst = np.max(
        [euclid.norm(diff(j, along_u) - exact[i]) for i, j, along_u in pairs], axis=0
    )
    return worst.reshape(pr.shape)


class TestFiniteDifferences:
    @pytest.mark.parametrize("fix", ["s3_pipeline", "h3e_pipeline", "h3p_pipeline",
                                     "r3_pipeline"])
    def test_kernel_equals_the_separate_cross_checks(self, fix, request, monkeypatch):
        patch = request.getfixturevalue(fix)[-2]
        kernel, fields = verify._fd_cross_check, []

        def spy(*args):
            fields.append(kernel(*args))
            return fields[-1]

        monkeypatch.setattr(verify, "_fd_cross_check", spy)
        report = bc.verify_patch(patch, 24, 24)
        second, higher = fields
        fd = fd_for_patch(patch)
        h = fd.inner_step
        u, v = report.grid_u, report.grid_v
        pr = _Probe(patch, u, v, (0.0, h, -h, 0.5 * h, -0.5 * h))
        euclid = Signature(patch.model.ambient.dim)
        ref2 = np.max([euclid.norm(d - e) for d, e in
                       zip(_second_partials_fd(pr, h), pr.jet(0.0, 0.0))], axis=0)
        ref4 = _higher_partials_fd(patch, u[::4], v[::4], fd)
        assert second.shape == ref2.shape and second.tobytes() == ref2.tobytes()
        assert higher.size == ref4.size and higher.tobytes() == ref4.tobytes()
        assert report.residuals["second_partials_fd"]["max"] == np.max(ref2)
        assert report.residuals["higher_partials_fd"]["max"] == np.max(ref4)

    def test_cross_checks_fall_at_their_order(self, r3_pipeline):
        # against an exact jet the discrepancy is truncation alone: each
        # halving of the step divides it by 2^4 (second_partials_fd, fourth
        # order) or 2^6 (higher_partials_fd, sixth order); measured 15.88-15.99
        # and 63.5-64.8, while a wrong jet would leave a floor that does not
        # fall.  Below these steps higher_partials_fd reaches rounding (2e-12);
        # the largest keeps the grid unshrunk.
        patch = r3_pipeline[1]
        steps = (1.6e-1, 8e-2, 4e-2, 2e-2)
        reports = [bc.verify_patch(patch, 16, 16, fd=FDScheme(h)) for h in steps]
        assert all(r.notes == [] for r in reports)
        for name, lo, hi in (("second_partials_fd", 15.5, 17.0),
                             ("higher_partials_fd", 60.0, 72.0)):
            maxima = np.array([r.residuals[name]["max"] for r in reports])
            ratios = maxima[:-1] / maxima[1:]
            assert np.all((lo < ratios) & (ratios < hi)), (name, ratios)

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline"])
    def test_point_api_evaluates_to_the_domain_edge(self, fix, request):
        # the point API takes no step, so it needs no stencil margin
        patch = request.getfixturevalue(fix)[-2]
        lo, hi = patch.eval_u_domain
        for u in (lo, hi):
            pg = bc.point_geometry(patch, u, 1.0)
            assert np.isfinite(pg.f)
            assert np.isfinite(pg.residuals["pde"])
        for u in (lo - 1e-3 * (hi - lo), hi + 1e-3 * (hi - lo), float("nan")):
            with pytest.raises(bc.UsageError, match="outside the evaluable domain"):
                bc.point_geometry(patch, u, 1.0)

    def test_degenerate_metric_detected(self):
        # X = (u + v, u + v, 0): Xu = Xv
        sick = sweep_patch(
            "fixture_degenerate", bc.R3,
            lambda u: [vectors(u, u, 0), vectors(np.ones_like(u), 1, 0)]
            + [vectors(np.zeros_like(u), 0, 0)] * 3,
            constant(1.0), line_orbit([1, 1, 0]),
            (-1.0, 1.0), (-1.0, 1.0),
        )
        with pytest.raises(bc.ConditioningError):
            bc.point_geometry(sick, 0.0, 0.0)


class TestPointwiseIdentities:
    def test_revolution_outer_edge_values(self, r3_pipeline):
        prof, patch, _ = r3_pipeline
        pg = bc.point_geometry(patch, prof.t_of_rho(8.0), 1.0)
        assert pg.f == pytest.approx(1.0 / 24.0, abs=1e-10)
        assert pg.K == pytest.approx(-1.0 / 768.0, abs=1e-10)
        assert not pg.masked
        for name in ("gauss_identity", "shape_operator_norm", "principal_values"):
            assert abs(pg.residuals[name]) < 1e-10, name

    def test_revolution_x2f_and_biconservative(self, r3_pipeline):
        prof, patch, _ = r3_pipeline
        t5 = prof.t_of_rho(5.0)
        pg = bc.point_geometry(patch, t5, 2.0)
        assert "x2f" not in pg.masked
        assert pg.residuals["x2f"] < 1e-8
        assert pg.residuals["biconservative"] < 1e-8
        assert abs(pg.residuals["pde"]) < 1e-6

    def test_sphere_pipeline_point(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline
        pg = bc.point_geometry(patch, 0.4, 2.0)
        assert not pg.masked
        for name in ("gauss_identity", "shape_operator_norm", "principal_values"):
            assert abs(pg.residuals[name]) < 1e-5, name
        assert abs(pg.residuals["normal_bitension_min"]) > 1e-3


class TestPointHelpersShareTheGridKernel:
    """The point API evaluates the grid's residual kernel on one point."""

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline", "h3e_pipeline",
                                     "h3p_pipeline", "sphere_fixture"])
    def test_point_values_equal_grid_fields(self, fix, request):
        if fix == "sphere_fixture":
            patch = sphere_patch()
            report = bc.verify_patch(patch, 9, 9)
        else:
            patch, report = request.getfixturevalue(fix)[-2:]
        nu, nv = report.fields["f"].shape
        for i in (0, nu // 2, nu - 1):
            for j in (0, nv // 2, nv - 1):
                pg = bc.point_geometry(patch, report.grid_u[i], report.grid_v[j])
                got = {
                    "f": pg.f,
                    "K": pg.K,
                    "biconservative": pg.residuals["biconservative"],
                    "bitension": pg.residuals["normal_bitension_min"],
                }
                for name, value in got.items():
                    assert value == report.fields[name][i, j], (name, i, j)

    @pytest.mark.parametrize("fix", ["sphere_fixture", "s3_pipeline"])
    def test_fundamental_forms_equal_point_geometry(self, fix, request):
        # the grid's first and second forms and normal at a point are the
        # point API's there, bit for bit
        patch = sphere_patch() if fix == "sphere_fixture" else request.getfixturevalue(fix)[-2]
        u, v = inner_grid(patch)
        sh = _shape(_Probe(patch, u, v), normal_sign(patch))
        for i, (ui, vj) in enumerate(itertools.product(u, v)):
            metric, second_form = fundamental_forms(patch, ui, vj)
            assert metric.tolist() == [[sh["g11"][i], sh["g12"][i]], [sh["g12"][i], sh["g22"][i]]]
            assert second_form.tolist() == [[sh["h11"][i], sh["h12"][i]],
                                            [sh["h12"][i], sh["h22"][i]]]
            assert bc.point_geometry(patch, ui, vj).normal.tobytes() == sh["eta"][i].tobytes()

    @pytest.mark.parametrize("fix", ["sphere_fixture", "s3_pipeline"])
    def test_point_rows_equal_grid_rows(self, fix, request):
        # every gate row at a point, value and mask, is the grid's row there
        patch = sphere_patch() if fix == "sphere_fixture" else request.getfixturevalue(fix)[-2]
        u, v = inner_grid(patch)
        rows = verify._gate_rows(_field_bundle(_Probe(patch, u, v), normal_sign(patch)),
                                 patch.model)
        for i, (ui, vj) in enumerate(itertools.product(u, v)):
            pg = bc.point_geometry(patch, ui, vj)
            assert pg.residuals.keys() == rows.keys()
            for name, (values, mask, _) in rows.items():
                assert pg.residuals[name] == values[i], (name, i)
                assert (name in pg.masked) == (mask is not None and not mask[i]), (name, i)
        with pytest.raises(TypeError):
            pg.residuals["pde"] = 0.0


class TestRevolutionPipelineReport:
    def test_residuals_within_profile(self, r3_pipeline):
        _, _, report = r3_pipeline
        res = report.residuals
        assert res["biconservative"]["max"] < 1e-8
        assert res["gauss_identity"]["max"] < 1e-8
        assert res["f_vs_reference"]["max"] < 1e-8
        assert res["K_vs_reference"]["max"] < 1e-8
        assert res["shape_operator_norm"]["max"] < 1e-8
        assert res["principal_values"]["max"] < 1e-8
        assert res["x2f"]["max"] < 1e-8
        assert res["pde"]["max"] < 1e-6
        assert report.passed

    def test_bitension_nonzero_on_grid(self, r3_pipeline):
        _, _, report = r3_pipeline
        assert report.bitension["min_abs"] > 0

    def test_grid_covers_requested_rect(self, r3_pipeline):
        prof, _, report = r3_pipeline
        assert report.grid["u_range"] == prof.t_of_rho([1.5, 8.0]).tolist()
        assert report.notes == []


@pytest.mark.parametrize("C", [1.0, 2.0])
def test_complete_revolution_across_the_waist_passes(C):
    # t in [-1.5, 1.5]: both halves of the profile, glued at the waist t = 0
    prof = bc.revolution_profile(C, 12.0)
    patch = bc.build_r3_revolution(prof, ((-1.5, 1.5), (0.0, 2 * np.pi)))
    report = bc.verify_patch(patch, 64, 64)
    assert report.grid["u_range"] == [-1.5, 1.5] and report.notes == []
    assert report.passed, {k: v["max"] for k, v in report.residuals.items()}


class TestCurvedPipelineReports:
    @pytest.mark.parametrize("fix", ["s3_pipeline", "h3e_pipeline", "h3p_pipeline"])
    def test_identity_suite(self, fix, request):
        _, _, _, report = request.getfixturevalue(fix)
        res = report.residuals
        assert res["biconservative"]["max"] < 1e-5
        assert res["gauss_identity"]["max"] < 1e-5
        assert res["shape_operator_norm"]["max"] < 1e-5
        assert res["principal_values"]["max"] < 1e-5
        assert res["f_vs_profile"]["max"] < 1e-5
        assert res["x2f"]["max"] < 1e-5
        assert res["pde"]["max"] < 1e-4
        assert res["model_membership"]["max"] < 1e-8
        assert res["normal_orthogonality"]["max"] < 1e-10
        assert report.passed

    def test_bitension_bounded_away_from_zero(self, s3_pipeline, h3e_pipeline, h3p_pipeline):
        for _, _, _, report in (s3_pipeline, h3e_pipeline, h3p_pipeline):
            assert report.bitension["min_abs"] > 1e-3

    def test_laplacian_consistent_with_profile_direction(self, s3_pipeline):
        # 1-d cross-check: -Delta f computed on the surface equals
        # f'' - (3/(4f)) (f')^2 along the profile, with f = 2k
        sol, prof, patch, _ = s3_pipeline
        for u in (-0.5, 0.1, 0.6):
            pg = bc.point_geometry(patch, u, 1.0)
            k, kp = float(sol.k(u)), float(sol.kp(u))
            fpp = 2.0 * float(bc.ode_rhs(k, kp, 1))
            fp = 2.0 * kp
            one_d = fpp - 3.0 / (4.0 * 2.0 * k) * fp**2
            assert abs(-pg.laplacian_f - one_d) < 1e-5

    def test_f_positive_orientation(self, s3_pipeline):
        _, _, _, report = s3_pipeline
        assert np.min(report.fields["f"]) > 0


def _reference_summary(values, U, V, mask=None):
    """The nanargmax/nanmax/nanmean formulation that _summary replaced."""
    vals = values if mask is None else np.where(mask, values, np.nan)
    good = np.isfinite(vals)
    n = int(np.count_nonzero(good))
    if n == 0:
        return {"max": None, "mean": None, "argmax": None, "count": 0}
    idx = int(np.nanargmax(np.abs(np.where(good, vals, 0.0))))
    return {
        "max": float(np.nanmax(np.abs(vals))),
        "mean": float(np.nanmean(np.abs(vals))),
        "argmax": [float(U[idx]), float(V[idx])],
        "count": n,
    }


class TestSummary:
    def test_matches_the_nan_reductions(self):
        # NaN, +-inf, masks, an all-masked field and tied maxima: the same
        # dict, float for float (repr tells the zero signs apart)
        rng = np.random.default_rng(23)
        n = 257
        U, V = rng.normal(size=n), rng.normal(size=n)
        base = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, n)
        with_nan = np.where(rng.random(n) < 0.2, np.nan, base)
        with_inf = with_nan.copy()
        with_inf[[3, 90]] = np.inf, -np.inf
        tied = np.round(base)
        tied[[10, 20, 200]] = 7.0, -7.0, 7.0
        cases = [base, with_nan, with_inf, tied, -np.abs(tied), np.zeros(n), -np.zeros(n),
                 np.full(n, np.nan), np.full(n, np.inf), np.where(base > 0, np.inf, np.nan)]
        keep = rng.random(n) < 0.5
        no_inf = ~np.isinf(with_inf)
        masks = [None, keep, ~keep, np.zeros(n, bool), np.ones(n, bool), no_inf,
                 np.arange(n) == 3]
        for values in cases:
            for mask in masks:
                kept = values.copy()
                got = verify._summary(values, U, V, mask)
                assert repr(got) == repr(_reference_summary(values, U, V, mask))
                assert values.tobytes() == kept.tobytes()


class TestReportSerialization:
    def test_schema_and_keys(self, r3_pipeline):
        _, _, report = r3_pipeline
        data = json.loads(report.to_json())
        assert data["schema"].startswith("biconsurf.verification/")
        for key in ("case", "grid", "tolerances", "residuals", "pass", "fd"):
            assert key in data
        entry = data["residuals"]["biconservative"]
        assert set(entry) >= {"max", "mean", "argmax"}
        assert data["fd"]["laplacian_sign"].startswith("geometric")
        assert set(data["fd"]) == {"inner_step", "order", "laplacian_sign"}

    def test_json_deterministic(self, r3_pipeline):
        prof, patch, report = r3_pipeline
        again = bc.verify_patch(patch, 64, 64)
        assert report.to_json() == again.to_json()

    def test_schema_stable_across_cases(self, r3_pipeline, s3_pipeline,
                                        h3e_pipeline, h3p_pipeline):
        reports = [r3_pipeline[-1], s3_pipeline[-1], h3e_pipeline[-1],
                   h3p_pipeline[-1]]
        keysets = [set(json.loads(r.to_json())) for r in reports]
        assert all(k == keysets[0] for k in keysets)
        assert {r.schema for r in reports} == {"biconsurf.verification/2"}

    def test_save(self, r3_pipeline, tmp_path):
        _, _, report = r3_pipeline
        path = report.save(tmp_path / "r.json")
        assert json.loads(Path(path).read_text())["pass"] is True

    def test_skipped_entries_serialize(self):
        rep = bc.verify_patch(cylinder_patch(), 8, 8)
        data = json.loads(rep.to_json())
        assert data["residuals"]["x2f"]["max"] is None
        assert data["gates"]["non_cmc_points"] == 0

    @pytest.mark.parametrize("block, key, path", [
        ("bitension", "min_abs", "bitension.min_abs"),
        ("residuals", "pde", "residuals.pde.max"),
    ])
    def test_nonfinite_value_is_conditioning_error(self, r3_pipeline, tmp_path,
                                                   block, key, path):
        report = r3_pipeline[-1]
        data = dict(getattr(report, block))
        data[key] = (float("nan") if block == "bitension"
                     else dict(data[key], max=float("inf")))
        broken = dataclasses.replace(report, **{block: data})
        with pytest.raises(bc.ConditioningError, match=re.escape(f"'{path}'")):
            broken.to_json()
        with pytest.raises(bc.ConditioningError):
            broken.save(tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()

    def test_pass_respects_tolerances(self, r3_pipeline):
        _, patch, _ = r3_pipeline
        strict = {"biconservative": 1e-30}
        rep = bc.verify_patch(patch, 8, 8, tolerances=strict)
        assert not rep.passed

    def test_pass_flag_consistent_with_stored_maxima(self, s3_pipeline):
        _, _, _, report = s3_pipeline
        recomputed = True
        for name, tol in report.tolerances.items():
            if name == "normal_bitension_min":
                recomputed &= report.bitension["min_abs"] > tol * report.bitension["max_abs"]
                continue
            entry = report.residuals.get(name)
            if entry is not None and entry["max"] is not None:
                recomputed &= entry["max"] <= tol
        assert recomputed == report.passed


class TestTensorGridProbe:
    @pytest.mark.parametrize(
        "fix", ["r3_pipeline", "s3_pipeline", "h3e_pipeline", "h3p_pipeline"]
    )
    def test_frames_equal_flattened_grid(self, fix, request):
        patch = request.getfixturevalue(fix)[-2]
        u = np.linspace(*patch.u_range, 7)
        v = np.linspace(*patch.v_range, 5)
        U, V = np.meshgrid(u, v, indexing="ij")
        pr = _Probe(patch, u, v, (0.0, 1e-3, -2e-3))
        for du, dv in ((0.0, 0.0), (1e-3, 0.0), (-2e-3, 0.25)):
            want = patch.frame((U + du).ravel(), (V + dv).ravel())
            got = pr.frame(du, dv)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_non_broadcasting_at_is_usage_error(self):
        # u is the first coordinate of the plane's sigma = (u, 0, 0)
        def stacked(line, v):
            u = line[0][..., 0]
            z = np.zeros_like(u)
            return (np.stack([u, v, z], -1), np.stack([z + 1, z, z], -1),
                    np.stack([z, z + 1, z], -1))

        def u_only(line, v):
            u = line[0][..., 0]
            z = np.zeros_like(u)
            return (np.stack([u, z, z], -1), np.stack([z + 1, z, z], -1),
                    np.stack([z, z + 1, z], -1))

        for at in (stacked, u_only):
            patch = dataclasses.replace(plane_patch(), at=at)
            with pytest.raises(bc.UsageError, match="broadcasting contract"):
                bc.verify_patch(patch, 8, 8)


    @pytest.mark.parametrize(
        "fix", ["r3_pipeline", "s3_pipeline", "h3e_pipeline", "h3p_pipeline"]
    )
    def test_stacked_ulines_equal_separate_calls(self, fix, request, monkeypatch):
        # the one-point probe of normal_sign and the grid probe of
        # verify_patch, whose every 4th row and column the sub-grid check
        # reads: each offset's piece of the stacked u-line is the u-line of
        # its own call, byte for byte
        patch = request.getfixturevalue(fix)[-2]
        probes = []

        class Recorded(_Probe):
            def __init__(self, *args):
                super().__init__(*args)
                probes.append(self)

        monkeypatch.setattr(verify, "_Probe", Recorded)
        bc.verify_patch(patch, 24, 24)
        h = fd_for_patch(patch).inner_step
        steps = (h, -h, 0.5 * h, -0.5 * h, 0.25 * h, -0.25 * h)
        assert [(pr.shape, pr.offsets) for pr in probes] == [
            ((1, 1), (0.0,)), ((24, 24), (0.0,) + steps),
        ]
        for pr in probes:
            for du in pr.offsets:
                want = patch.uline(pr.u + du)
                got = pr._lines[du]
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline"])
    def test_verify_never_writes_into_patch_data(self, fix, request):
        # the evaluators hand out read-only views, so a write into a u-line
        # piece or into an evaluator's output would raise; the report is the
        # unwrapped patch's, byte for byte
        patch, report = request.getfixturevalue(fix)[-2:]

        def read_only(evaluate):
            def wrapped(*args):
                views = tuple(np.asarray(a).view() for a in evaluate(*args))
                for a in views:
                    a.flags.writeable = False
                return views
            return wrapped

        frozen = dataclasses.replace(patch, **{name: read_only(getattr(patch, name))
                                              for name in ("uline", "at", "jet", "jet4")})
        got = bc.verify_patch(frozen, 64, 64)
        assert got.to_json() == report.to_json()
        assert got.fields.keys() == report.fields.keys()
        for name, values in report.fields.items():
            assert got.fields[name].tobytes() == values.tobytes(), name
        u, v = mid(patch)
        want = vars(bc.point_geometry(patch, u, v))
        for name, value in vars(bc.point_geometry(frozen, u, v)).items():
            if name == "residuals":  # floats whose repr is exact
                assert repr(dict(value)) == repr(dict(want[name]))
            elif name == "masked":
                assert value == want[name]
            else:
                assert np.asarray(value).tobytes() == np.asarray(want[name]).tobytes(), name

    def test_verify_calls_uline_once_per_probe(self, s3_pipeline):
        # normal_sign and the grid, whose every 4th row and column the
        # sub-grid check reads; the points are those of one call per u offset
        # (1 + 7 * 24)
        patch = s3_pipeline[2]
        sizes = []

        def uline(u):
            sizes.append(np.size(u))
            return patch.uline(u)

        bc.verify_patch(dataclasses.replace(patch, uline=uline), 24, 24)
        assert sizes == [1, 7 * 24]


class TestFailClosed:
    @pytest.mark.parametrize("nu, nv", [(0, 8), (-3, 8), (1, 8), (8, 1), (8.0, 8),
                                        (True, 8)])
    def test_grid_size_below_two_or_not_integer_is_usage_error(self, nu, nv):
        with pytest.raises(bc.UsageError, match="integers nu, nv >= 2"):
            bc.verify_patch(sphere_patch(), nu, nv)

    @pytest.mark.parametrize("missing", [("jet",), ("jet4",), ("jet", "jet4")],
                             ids="-".join)
    @pytest.mark.parametrize("entry", [
        lambda p: bc.verify_patch(p, 8, 8),
        lambda p: bc.point_geometry(p, *mid(p)),
        lambda p: fundamental_forms(p, *mid(p)),
        lambda p: pde_residual(p, *mid(p)),
        normal_sign,
    ], ids=["verify_patch", "point_geometry", "fundamental_forms", "pde_residual",
            "normal_sign"])
    def test_patch_without_jets_is_usage_error(self, entry, missing):
        patch = dataclasses.replace(sphere_patch(), **dict.fromkeys(missing))
        with pytest.raises(bc.UsageError, match=f"has no {' or '.join(missing)}:"):
            entry(patch)

    @pytest.mark.parametrize("step", [
        0.0, -1e-3, float("nan"), float("inf"), pytest.param(10**400, id="int-beyond-float-range"),
    ])
    def test_step_not_finite_and_positive_is_usage_error(self, step):
        patch = sphere_patch()
        message = re.escape(f"inner_step must be finite and positive, got {step!r}")
        with pytest.raises(bc.UsageError, match=message):
            FDScheme(step)
        with pytest.raises(bc.UsageError, match=message):
            bc.verify_patch(patch, 8, 8, fd=FDScheme(step))

    @pytest.mark.parametrize("step", [True, "1e-3", None])
    def test_step_not_a_number_is_usage_error(self, step):
        # True used to be read as a step of 1, the others to leak TypeError
        message = re.escape(f"FDScheme inner_step must be a real number, got {step!r}")
        with pytest.raises(bc.UsageError, match=message):
            FDScheme(step)

    @pytest.mark.parametrize("u, v, name", [
        ("0", 0.0, "u"), (True, 0.0, "u"), (None, 0.0, "u"), (0.5, None, "v"),
        (0.5, [0, 1], "v"), (0.5, "0", "v"), (0.5, True, "v"), (0.5, np.bool_(False), "v"),
    ])
    @pytest.mark.parametrize("entry", [bc.point_geometry, pde_residual],
                             ids=["point_geometry", "pde_residual"])
    def test_point_not_a_real_number_is_usage_error(self, entry, u, v, name):
        # these used to leak TypeError from float(), or to be read as numbers
        with pytest.raises(bc.UsageError, match=f"point {name} must be a real number"):
            entry(sphere_patch(), u, v)

    @pytest.mark.parametrize("v", [float("inf"), -float("inf"), float("nan"),
                                   pytest.param(10**400, id="int-beyond-float-range")])
    @pytest.mark.parametrize("entry", [bc.point_geometry, pde_residual],
                             ids=["point_geometry", "pde_residual"])
    def test_point_v_not_finite_is_usage_error(self, entry, v):
        # inf used to reach cos/sin (RuntimeWarnings, then ConditioningError),
        # and 10**400 to leak OverflowError
        with pytest.raises(bc.UsageError, match="point v=.* is not finite"):
            entry(sphere_patch(), 1.0, v)

    def test_point_takes_any_real_number(self):
        patch = sphere_patch()
        want = bc.point_geometry(patch, 1.0, 2.0)
        for u, v in ((1, 2), (np.float64(1.0), np.int64(2)), (np.float32(1.0), 2.0)):
            got = bc.point_geometry(patch, u, v)
            assert (got.u, got.v, got.f) == (want.u, want.v, want.f)
            assert type(got.u) is float and type(got.v) is float

    def test_numpy_integer_grid_size_serializes(self):
        report = bc.verify_patch(sphere_patch(), np.int64(4), 4)
        assert json.loads(report.to_json())["grid"]["nu"] == 4

    def test_numpy_bound_serializes(self):
        # a float32 bound used to pass and then leak TypeError from to_json
        rep = bc.verify_patch(sphere_patch(), 8, 8,
                              tolerances={"biconservative": np.float32(0.5)})
        assert json.loads(rep.to_json())["tolerances"] == {"biconservative": 0.5}

    def test_nan_xu_patch_raises(self, r3_pipeline):
        _, patch, _ = r3_pipeline

        def at(line, v):
            X, Xu, Xv = patch.at(line, v)
            return X, np.full_like(Xu, np.nan), Xv

        with pytest.raises(bc.ConditioningError, match="determinant"):
            bc.verify_patch(dataclasses.replace(patch, at=at), 16, 16)

    def test_nan_position_gives_nonfinite_normal(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline

        def at(line, v):
            X, Xu, Xv = patch.at(line, v)
            return np.full_like(X, np.nan), Xu, Xv

        with pytest.raises(bc.ConditioningError, match="normal"):
            bc.verify_patch(dataclasses.replace(patch, at=at), 8, 8)

    @pytest.mark.parametrize("options, message", [
        ({"tolerances": {"pde": None}}, "tolerance 'pde' must be a real number, got None"),
        ({"tolerances": {"pde": True}}, "tolerance 'pde' must be a real number, got True"),
        ({"tolerances": {"pde": "x"}}, "tolerance 'pde' must be a real number, got 'x'"),
        ({"tolerances": {"pde": float("inf")}}, "tolerance 'pde' must be finite and non-negative"),
        ({"tolerances": {"pde": float("nan")}}, "tolerance 'pde' must be finite and non-negative"),
        ({"tolerances": {"pde": -1e-9}}, "tolerance 'pde' must be finite and non-negative"),
        ({"tolerances": {1: 1.0}}, "tolerance 1 must be finite and non-negative, got 1.0"),
        ({"tolerances": [("pde", 1.0)]}, "tolerances must be a mapping"),
        ({"fd": 1e-4}, "fd must be an FDScheme"),
    ], ids=["none", "bool", "str", "inf", "nan", "negative", "int-name", "list", "fd-float"])
    def test_vacuous_or_malformed_options_are_usage_errors(self, options, message):
        # None, True and inf used to pass vacuously (True as the bound 1);
        # the list, the string and the float fd leaked AttributeError or
        # TypeError.  Each is refused before the patch is evaluated
        calls = []
        patch = sphere_patch()
        probed = dataclasses.replace(patch, uline=lambda u: calls.append(u) or patch.uline(u))
        with pytest.raises(bc.UsageError, match=re.escape(message)):
            bc.verify_patch(probed, 8, 8, **options)
        assert calls == []

    def test_required_residual_without_points_fails(self):
        # the cylinder is CMC: the non-CMC mask leaves x2f no points
        rep = bc.verify_patch(cylinder_patch(), 8, 8, tolerances={"x2f": 1.0})
        assert rep.residuals["x2f"]["count"] == 0
        assert not rep.passed

    def test_required_residual_never_computed_fails(self):
        rep = bc.verify_patch(cylinder_patch(), 8, 8, tolerances={"f_vs_profile": 1.0})
        assert "f_vs_profile" not in rep.residuals
        assert rep.notes == ["required residual 'f_vs_profile' was not evaluated"]
        assert not rep.passed

    @pytest.mark.parametrize("tolerances", [None, {}, {"normal_bitension_min": 1e-3}],
                             ids=["case-without-profile", "empty", "bitension-only"])
    def test_no_residual_tolerance_fails(self, tolerances):
        rep = bc.verify_patch(cylinder_patch(), 8, 8, tolerances=tolerances)
        assert not rep.passed
        assert "no residual tolerance applies to case 'fixture_cylinder'" in rep.notes

    def test_nonfinite_unmasked_residual_fails(self):
        ref = {"f": lambda u, v: np.where(u > 3.0, np.nan, 1.0)}
        patch = dataclasses.replace(cylinder_patch(), reference=ref)
        tol = {"f_vs_reference": 1e-6}
        rep = bc.verify_patch(patch, 8, 8, tolerances=tol)
        entry = rep.residuals["f_vs_reference"]
        assert 0 < entry["count"] < 64 and entry["max"] <= tol["f_vs_reference"]
        assert not rep.passed

    def test_skipped_relative_floor_is_noted(self, s3_pipeline):
        # the cylinder is CMC, so the relative bitension floor does not apply;
        # the report says so, and still passes on its bounded residual
        tol = {"biconservative": 1e-8, "normal_bitension_min": 1e-3}
        rep = bc.verify_patch(cylinder_patch(), 8, 8, tolerances=tol)
        assert rep.gates["non_cmc_points"] == 0
        assert rep.notes == ["'normal_bitension_min' skipped: 0 of 64 points are non-CMC"]
        assert rep.passed
        # on a mostly non-CMC grid the floor applies, and no note is written
        report = s3_pipeline[-1]
        assert report.gates["non_cmc_points"] > report.gates["total_points"] // 2
        assert report.notes == []

    @pytest.mark.parametrize("kept, applied", [(4, False), (5, True)])
    def test_relative_floor_needs_more_than_half_the_grid(self, kept, applied):
        values = np.array([1e-6, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        mask = np.arange(values.size) < kept
        U = V = np.zeros(values.size)
        entry, ok, notes = verify._relative_floor("floor", values, mask, 1e-3, U, V)
        assert entry is None and ok is not applied
        assert notes == ([] if applied else [f"'floor' skipped: {kept} of 9 points are non-CMC"])

    @pytest.mark.parametrize("fix", ["h3e_pipeline", "h3p_pipeline"])
    def test_lower_sheet_fails_only_the_sheet_rule(self, fix, request):
        # -X lies on the lower sheet of the hyperboloid: every residual stays
        # within its bound, and only the x4 > 0 rule fails the report
        patch = request.getfixturevalue(fix)[-2]

        def negated(evaluate):
            return lambda line, v: tuple(-a for a in evaluate(line, v))

        lower = dataclasses.replace(patch, at=negated(patch.at), jet=negated(patch.jet),
                                    jet4=negated(patch.jet4))
        upper, rep = bc.verify_patch(patch, 16, 16), bc.verify_patch(lower, 16, 16)
        assert upper.passed and upper.notes == []
        assert rep.residuals.keys() == upper.residuals.keys()
        for name, entry in rep.residuals.items():
            bound = rep.tolerances.get(name)
            assert bound is None or entry["max"] <= bound, name
        assert rep.bitension["min_abs"] > 1e-3 * rep.bitension["max_abs"]
        assert rep.notes == ["points with nonpositive x4 found"]
        assert not rep.passed

    def test_nan_position_on_r3_raises(self, r3_pipeline):
        # no r3 residual reads X, so only the position check catches this
        _, patch, _ = r3_pipeline

        def at(line, v):
            X, Xu, Xv = patch.at(line, v)
            return np.full_like(X, np.nan), Xu, Xv

        with pytest.raises(bc.ConditioningError, match="position"):
            bc.verify_patch(dataclasses.replace(patch, at=at), 16, 16)

    def test_one_nan_second_partial_raises(self, s3_pipeline):
        _, _, patch, _ = s3_pipeline

        def jet(line, v):
            # one grid point; the one-point orientation probe stays finite
            Xuu, Xuv, Xvv = patch.jet(line, v)
            if Xuu.shape[0] > 1:
                Xuu = Xuu.copy()
                Xuu[1, 2, 0] = np.nan
            return Xuu, Xuv, Xvv

        with pytest.raises(bc.ConditioningError, match="second partials"):
            bc.verify_patch(dataclasses.replace(patch, jet=jet), 16, 16)


def _mutated(patch, index, change):
    """The patch with u-line entry ``index`` replaced by change(line)."""

    def uline(u):
        line = list(patch.uline(u))
        line[index] = change(line)
        return tuple(line)

    return dataclasses.replace(patch, uline=uline)


class TestJetCrossCheck:
    """A builder bug in the second partials must fail the FD cross-check."""

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline", "h3e_pipeline",
                                     "h3p_pipeline"])
    def test_jet_matches_differences(self, fix, request):
        report = request.getfixturevalue(fix)[-1]
        entry = report.residuals["second_partials_fd"]
        assert entry["count"] == 64 * 64
        assert entry["max"] <= report.tolerances["second_partials_fd"]

    @staticmethod
    def assert_rejected(patch):
        rep = bc.verify_patch(patch, 24, 24)
        assert rep.residuals["second_partials_fd"]["max"] > \
            rep.tolerances["second_partials_fd"]
        assert not rep.passed

    def test_scaled_sweep_amplitude_second_derivative(self, s3_pipeline):
        # u-line of every built patch: (sigma, T, a, a', T', a'', sigma''',
        # a''', sigma'''', a'''')
        patch = s3_pipeline[2]
        self.assert_rejected(_mutated(patch, 5, lambda line: line[5] * (1 + 1e-3)))

    def test_scaled_parabolic_amplitude_second_derivative(self, h3p_pipeline):
        patch = h3p_pipeline[2]
        self.assert_rejected(_mutated(patch, 5, lambda line: line[5] * (1 + 1e-3)))

    @pytest.mark.parametrize("fix", ["s3_pipeline", "h3e_pipeline"])
    def test_flipped_model_curvature_in_frame_equation(self, fix, request):
        # T' = k n - c sigma becomes k n + c sigma
        patch = request.getfixturevalue(fix)[2]
        c = patch.model.c
        self.assert_rejected(_mutated(patch, 4, lambda line: line[4] + 2 * c * line[0]))

    def test_negated_height_second_derivative(self, r3_pipeline):
        # the revolution's T' = (0, 0, height'')
        patch = r3_pipeline[1]
        self.assert_rejected(_mutated(patch, 4, lambda line: -line[4]))

    def test_scaled_revolution_radius_second_derivative(self, r3_pipeline):
        # in the t chart the amplitude a = rho(t) has a'' = 3R(1 + 2t^2)/s
        patch = r3_pipeline[1]
        self.assert_rejected(_mutated(patch, 5, lambda line: line[5] * (1 + 1e-3)))


def _h3_truncation_case():
    # pde was 2.7e-3 to 4.2e-3 here with outer-step differences of f
    cfg = PipelineConfig(model="h3", k0=2.626, kp0=-0.2856)
    return build_pipeline_patch(cfg)[0]


def _f_partials(patch, n=12):
    u = np.linspace(*patch.u_range, n + 2)[1:-1]
    v = np.linspace(*patch.v_range, n)
    sh = _field_bundle(_Probe(patch, u, v), normal_sign(patch))
    return {name: sh[name] for name in ("Fu", "Fv", "Fuu", "Fuv", "Fvv", "laplacian")}, u


# each family's step for differencing the f-field, as a fraction of the
# rectangle diagonal; the reference below takes an eighth of it
_F_FIELD_REL = {"r3_revolution": 1e-3, "s3": 3e-3, "h3_elliptic": 3e-3,
                "h3_parabolic": 8e-3}


def _differenced_f_partials(patch, n=12):
    """The reference for _f_partials: f differenced on the same grid.

    Central differences of f (Richardson over the steps H and H/2), and the
    Laplacian from them with the Christoffel symbols of the jet.
    """
    H = _F_FIELD_REL[patch.case] * patch.rect_diagonal / 8
    u = np.linspace(*patch.u_range, n + 2)[1:-1]
    v = np.linspace(*patch.v_range, n)
    sign = normal_sign(patch)
    cache = {}

    def f(a, b):
        if (a, b) not in cache:
            cache[a, b] = _shape(_Probe(patch, u + a, v + b), sign)["f"]
        return cache[a, b]

    def rich(d):
        return (4.0 * d(0.5 * H) - d(H)) / 3.0

    F1 = np.array([rich(lambda h: (f(h, 0.0) - f(-h, 0.0)) / (2 * h)),
                   rich(lambda h: (f(0.0, h) - f(0.0, -h)) / (2 * h))])
    Fuu = rich(lambda h: (f(h, 0.0) - 2 * f(0.0, 0.0) + f(-h, 0.0)) / h**2)
    Fvv = rich(lambda h: (f(0.0, h) - 2 * f(0.0, 0.0) + f(0.0, -h)) / h**2)
    Fuv = rich(lambda h: (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h**2))
    F2 = np.array([[Fuu, Fuv], [Fuv, Fvv]])
    sh = _shape(_Probe(patch, u, v), sign)
    gi, gam = _metric_tables(sh, slice(None), patch.model)
    return {"Fu": F1[0], "Fv": F1[1], "Fuu": Fuu, "Fuv": Fuv, "Fvv": Fvv,
            "laplacian": _laplacian(gi, gam, F1, F2)}


class TestExactFieldDerivatives:
    """grad f and Delta f in closed form from the order 3 and 4 partials."""

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline", "h3e_pipeline",
                                     "h3p_pipeline"])
    def test_matches_outer_differences_at_an_eighth_of_the_step(self, fix, request):
        patch = request.getfixturevalue(fix)[-2]
        exact, _ = _f_partials(patch)
        differenced = _differenced_f_partials(patch)
        for name in ("Fu", "Fv", "Fuu", "Fuv", "Fvv", "laplacian"):
            assert np.max(np.abs(exact[name] - differenced[name])) <= 1e-6, name

    def test_r3_closed_form(self, r3_pipeline):
        # f = (2/3) C^(3/2) / (1 + t^2)^2 with C = 1 depends on t = u only
        patch = r3_pipeline[1]
        got, t = _f_partials(patch)
        t = np.repeat(t, 12)
        s2 = 1.0 + t * t
        assert np.max(np.abs(got["Fu"] + (8.0 / 3.0) * t / s2**3)) <= 1e-14
        assert np.max(np.abs(got["Fuu"] + (8.0 / 3.0) * (1.0 - 5.0 * t * t) / s2**4)) <= 1e-14
        for name in ("Fv", "Fuv", "Fvv"):
            assert np.max(np.abs(got[name])) <= 1e-14

    @pytest.mark.parametrize("make, n", [
        (_h3_truncation_case, 20),
        (lambda: build_pipeline_patch(PipelineConfig(model="s3", k0=0.6, kp0=1.0))[0], 64),
    ], ids=["h3-k0-2.626", "s3-k0-0.6"])
    def test_pde_within_tolerance_where_outer_differences_failed(self, make, n):
        rep = bc.verify_patch(make(), n, n)
        assert rep.residuals["pde"]["count"] == n * n
        assert rep.residuals["pde"]["max"] <= 1e-10 < rep.tolerances["pde"]
        assert rep.residuals["higher_partials_fd"]["max"] <= \
            rep.tolerances["higher_partials_fd"]

    def test_h3_truncation_case_passes(self):
        assert bc.verify_patch(_h3_truncation_case(), 20, 20).passed

    def test_blocks_do_not_change_the_result(self, tmp_path, monkeypatch):
        # _BLOCK_POINTS set to 24 and to 48 on 25 rows of 24 points, so the
        # last block is short: 1- and 2-row grid blocks, 1-row f-derivative
        # sub-blocks both times, and sub-grid blocks of 1 and 2 of its 7 rows
        # (6 points each).  The mesh text goes in 7-row blocks; r3 has the
        # reference rows
        def run(cfg, out):
            report = bc.verify_patch(build_pipeline_patch(cfg)[0], cfg.nu, cfg.nv)
            cmd_surface(cfg, out)
            return report, {path.name: path.read_bytes() for path in out.iterdir()}

        cases = {"s3": {"model": "s3", "k0": 1.0, "kp0": 1.0},
                 "h3p": {"model": "h3", "k0": 0.25, "kp0": 0.2},
                 "r3": {"model": "r3", "C": 1.0}}
        for case, data in cases.items():
            cfg = PipelineConfig(nu=25, nv=24, **data)
            whole, whole_files = run(cfg, tmp_path / case / "whole")
            references = [name for name in whole.residuals if name.endswith("_vs_reference")]
            assert bool(references) == (case == "r3")
            assert sorted(whole_files) == ["surface.obj", "surface.obj.channels.csv",
                                           "surface.ply", "surface.report.json"]
            for points in (24, 48):
                with monkeypatch.context() as m:
                    m.setattr(verify, "_BLOCK_POINTS", points)
                    m.setattr(mesh, "_TEXT_ROWS", 7)
                    blocked, blocked_files = run(cfg, tmp_path / case / str(points))
                assert blocked.to_json() == whole.to_json(), (case, points)
                assert blocked.fields.keys() == whole.fields.keys()
                for name in whole.fields:
                    assert blocked.fields[name].tobytes() == whole.fields[name].tobytes(), \
                        (case, points, name)
                assert blocked.grid_X.tobytes() == whole.grid_X.tobytes(), (case, points)
                assert blocked_files == whole_files, (case, points)

    @staticmethod
    def traced_peak(call):
        """The traced peak of ``call()`` above what was held before it, after
        one untraced warm-up call."""
        call()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_traced_peak_of_a_128_grid_is_block_sized(self, s3_pipeline):
        # one full-grid pass peaked at 19.9 MB here, 16 shifted frames among
        # its arrays; the block pass measures 8.4 MB
        patch = s3_pipeline[2]
        assert self.traced_peak(lambda: bc.verify_patch(patch, 128, 128)) < 12e6

    def test_traced_peak_of_a_256_grid_has_a_block_sized_sub_grid(self, s3_pipeline):
        # the sub-grid cross-check over its 4,096 points at once peaked at
        # 33.1 MB; in blocks of a quarter of _BLOCK_POINTS (1,024 points),
        # read from the grid probe, the whole verify measures 16.4 MB,
        # bounded here with a margin of 3.6 MB
        patch = s3_pipeline[2]
        assert self.traced_peak(lambda: bc.verify_patch(patch, 256, 256)) < 20e6

    def test_traced_peak_of_a_128_surface_is_the_verifiers(self, tmp_path):
        # the OBJ and PLY text made whole peaked at 12.0 MB in write_ply;
        # block by block of rows the writers measure 7.0 MB, below the
        # verifier's 8.4 MB, which the whole command measures; bounded here
        # with a margin of 1.6 MB
        cfg = PipelineConfig(model="s3", k0=1.0, kp0=1.0, nu=128, nv=128)
        assert self.traced_peak(lambda: cmd_surface(cfg, tmp_path)) < 10e6


class TestHigherPartialsCrossCheck:
    """A builder bug in the order 3 or 4 partials must fail higher_partials_fd."""

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline", "h3e_pipeline",
                                     "h3p_pipeline"])
    def test_strided_and_within_tolerance(self, fix, request):
        report = request.getfixturevalue(fix)[-1]
        entry = report.residuals["higher_partials_fd"]
        assert entry["count"] == 16 * 16
        assert entry["max"] <= report.tolerances["higher_partials_fd"]
        assert report.residuals["second_partials_fd"]["count"] == 64 * 64

    def test_odd_grid_includes_first_row_and_column(self, s3_pipeline):
        rep = bc.verify_patch(s3_pipeline[2], 9, 13)
        assert rep.residuals["higher_partials_fd"]["count"] == 3 * 4

    @staticmethod
    def assert_rejected(patch):
        rep = bc.verify_patch(patch, 24, 24)
        assert rep.residuals["higher_partials_fd"]["max"] > \
            rep.tolerances["higher_partials_fd"]
        assert not rep.passed

    @pytest.mark.parametrize("factor", [1 + 1e-3, 1 + 1e-6], ids=["1e-3", "1e-6"])
    @pytest.mark.parametrize("index", [7, 9], ids=["a3", "a4"])
    @pytest.mark.parametrize("fix", ["s3_pipeline", "h3e_pipeline", "h3p_pipeline"])
    def test_scaled_amplitude_derivative(self, fix, index, factor, request):
        # u-line entry 7 is a''', 9 is a''''; 1 + 1e-6 is the detection floor
        patch = request.getfixturevalue(fix)[2]
        self.assert_rejected(_mutated(patch, index, lambda line: line[index] * factor))

    @pytest.mark.parametrize("fix", ["s3_pipeline", "h3e_pipeline", "h3p_pipeline"])
    def test_flipped_model_curvature_in_fourth_derivative(self, fix, request):
        # sigma'''' with -c for c: + 2c k n - 2c k^2 sigma
        patch = request.getfixturevalue(fix)[2]
        c = patch.model.c
        prof = patch.profile

        def uline(u):
            line = list(patch.uline(u))
            st = prof.state(u)
            k, n, sigma = st[..., :1], st[..., 10:14], st[..., 2:6]
            line[8] = line[8] + 2 * c * k * n - 2 * c * k**2 * sigma
            return tuple(line)

        self.assert_rejected(dataclasses.replace(patch, uline=uline))

    def test_negated_height_third_derivative(self, r3_pipeline):
        # the revolution's sigma''' = (0, 0, height''')
        patch = r3_pipeline[1]
        self.assert_rejected(_mutated(patch, 6, lambda line: -line[6]))


_CURVED = {"s3": ("s3", 1.0, 1.0), "h3e": ("h3", 1.0, 1.0), "h3p": ("h3", 0.25, 0.2)}


def _built(case):
    model, k0, kp0 = _CURVED[case]
    return build_pipeline_patch(PipelineConfig(model=model, k0=k0, kp0=kp0))[0]


class TestProfileBuildMutations:
    """A bug in the profile build must fail the report or raise."""

    @staticmethod
    def assert_rejected(case, failing):
        if isinstance(failing, type):  # the build or the verifier raises
            with pytest.raises(failing), np.errstate(invalid="ignore"):
                bc.verify_patch(_built(case), 24, 24)
            return
        rep = bc.verify_patch(_built(case), 24, 24)
        over = {name for name, tol in rep.tolerances.items()
                if name in rep.residuals and rep.residuals[name]["max"] > tol}
        assert set(failing) <= over
        assert not rep.passed

    @pytest.mark.parametrize("case, failing", [
        ("s3", bc.ConstructionError),
        ("h3e", bc.ConstructionError),
        ("h3p", bc.ConditioningError),
    ])
    def test_flipped_model_curvature_in_frame_equation(self, case, failing, monkeypatch):
        # c flipped wherever it enters the profile's polar chart: the radius
        # D = <E1, E1> (c - <P, P> a^2) and the normal's meridian scale
        # sqrt(<P, P> <E1, E1> c); the circle branches' D turns negative at
        # u = 0, the parabolic normal NaN
        exact = profile._chart
        monkeypatch.setattr(profile, "_chart", lambda branch, c, C: exact(branch, -c, C))
        self.assert_rejected(case, failing)

    def test_flipped_model_curvature_in_sphere_radius(self, monkeypatch):
        # the circle branches' D = 1 - c a^2 becomes 1 + c a^2: on s3 a finite
        # curve off the quadric, which the verifier must reject
        exact = profile._chart

        def flipped(branch, c, C):
            chart = exact(branch, c, C)
            return dataclasses.replace(chart, d2=-chart.d2)

        monkeypatch.setattr(profile, "_chart", flipped)
        self.assert_rejected("s3", ("model_membership", "f_vs_profile", "second_partials_fd",
                                    "pde"))

    @pytest.mark.parametrize("case", sorted(_CURVED))
    def test_scaled_sweep_amplitude(self, case, monkeypatch):
        exact = surfaces._sweep_uline
        monkeypatch.setattr(surfaces, "_sweep_uline",
                            lambda prof, sc: exact(prof, sc * (1 + 1e-3)))
        self.assert_rejected(case, ("f_vs_profile", "gauss_identity", "model_membership"))

    @pytest.mark.parametrize("case, failing", [
        ("s3", ("model_membership", "f_vs_profile", "gauss_identity")),
        ("h3e", bc.ConditioningError),
    ])
    def test_swapped_circle_constants(self, case, failing, monkeypatch):
        exact = surfaces._sweep_patch

        def swapped(prof, case, v_range):
            if case != "h3_parabolic":
                prof = dataclasses.replace(prof, C1=prof.C2, C2=prof.C1)
            return exact(prof, case, v_range)

        monkeypatch.setattr(surfaces, "_sweep_patch", swapped)
        self.assert_rejected(case, failing)

    def test_swapped_parabolic_constants_reverse_v(self):
        # C1 (e^v - 1) + C2 (e^-v - 1) is symmetric under the swap with v -> -v:
        # the same surface, so the swap is not a bug and must pass
        patch = _built("h3p")
        prof = patch.profile
        swapped = surfaces.build_h3(dataclasses.replace(prof, C1=prof.C2, C2=prof.C1),
                                    patch.v_range)
        u = np.linspace(*patch.u_range, 7)[:, None]
        v = np.linspace(*patch.v_range, 9)[None, :]
        X, Xu, Xv = swapped.at(swapped.uline(u), v)
        Y, Yu, Yv = patch.at(patch.uline(u), -v)
        assert np.array_equal(X, Y) and np.array_equal(Xu, Yu) and np.array_equal(Xv, -Yv)
        assert bc.verify_patch(swapped, 24, 24).passed


_PROPERTY_SETTINGS = settings(max_examples=8, derandomize=True, deadline=None)


def _build_and_verify(cfg):
    """The report of a build, or None when the build or verify raised a GeometryError."""
    try:
        return bc.verify_patch(build_pipeline_patch(cfg)[0], 12, 12)
    except bc.GeometryError:
        return None


class TestBuildAndVerifyProperties:
    """Every draw ends in a pass, a fail or a GeometryError, and every report serializes."""

    @staticmethod
    def check(cfg):
        report = _build_and_verify(cfg)
        if report is not None:
            assert report.passed in (True, False)
            json.loads(report.to_json())

    @pytest.mark.parametrize("model", ["s3", "h3"])
    @_PROPERTY_SETTINGS
    @given(log_k0=st.floats(-3.0, 1.3), kp0=st.floats(-1.0, 1.0))
    def test_curved_initial_data(self, model, log_k0, kp0):
        self.check(PipelineConfig(model=model, k0=10.0**log_k0, kp0=kp0))

    @_PROPERTY_SETTINGS
    @given(log_C=st.floats(-1.5, 1.5))
    def test_r3_constant(self, log_C):
        self.check(PipelineConfig(model="r3", C=10.0**log_C))
