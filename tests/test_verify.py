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
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch, cmd_surface
from biconsurf.verify import (
    _field_bundle,
    _laplacian,
    _metric_tables,
    _Probe,
    _shape,
    normal_sign,
)

from conftest import (
    constant,
    cylinder_patch,
    great_sphere_patch,
    line_orbit,
    plane_patch,
    report_grid,
    sphere_patch,
    sweep_patch,
    vectors,
)


# the note of a report on a patch from outside the family table
NO_JET_ROWS = ("no jet rows: patch '{}' has no profile of the family table, so its jets "
               "are taken as given")


def over_bound(report) -> dict:
    """{row: max / bound} of the bounded rows over their bound."""
    return {name: report.residuals[name]["max"] / bound
            for name, bound in report.tolerances.items()
            if name in report.residuals and report.residuals[name]["max"] > bound}


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


# The finite-difference oracle of the builders' closed-form jets: the jets
# are compared with Richardson-extrapolated central differences of the
# partials one order lower, each shifted grid evaluated through the patch's
# own ``frame``, ``jet`` and ``jet4``.  Its truncation error falls at the
# scheme's order, so it is a test of the builders, not a verifier row.
_FD_REL = 1e-4


def rect_diagonal(patch) -> float:
    """The diagonal of the patch's parameter rectangle."""
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    return float(np.hypot(u1 - u0, v1 - v0))


def fd_step(patch) -> float:
    """The oracle's default step: 1e-4 times the rectangle's diagonal."""
    return _FD_REL * rect_diagonal(patch)


def fd_grid(patch, n: int, h: float):
    """u and v of an n x n grid over the rectangle, kept 2.04 h inside it,
    so that every stencil point lies in the rectangle, the evaluable
    domain."""
    reach = 1.02 * 2.0 * h
    return tuple(np.linspace(lo + reach, hi - reach, n)
                 for lo, hi in (patch.u_range, patch.v_range))


def _evaluate(patch, name, u, v):
    """The patch's ``name`` ("jet" or "jet4") on the tensor grid u x v."""
    return getattr(patch, name)(patch.uline(u[:, None]), v[None, :])


def _rich1(f, h: float):
    """Richardson-extrapolated central difference of f at 0 (steps h and h/2)."""
    d_h = (f(h) - f(-h)) / (2.0 * h)
    d_h2 = (f(0.5 * h) - f(-0.5 * h)) / h
    return (4.0 * d_h2 - d_h) / 3.0


def _second_partials_fd(patch, u, v, h: float) -> np.ndarray:
    """Largest Euclidean norm, at each point of the grid u x v, of the jet's
    (Xuu, Xuv, Xvv) minus differences of the first partials."""
    frames: dict = {}

    def frame(du, dv):
        if (du, dv) not in frames:
            frames[du, dv] = patch.frame((u + du)[:, None], (v + dv)[None, :])
        return frames[du, dv]

    Xuu = _rich1(lambda s: frame(s, 0.0)[1], h)
    Xvv = _rich1(lambda s: frame(0.0, s)[2], h)
    Xuv = 0.5 * (_rich1(lambda s: frame(0.0, s)[1], h) + _rich1(lambda s: frame(s, 0.0)[2], h))
    exact = _evaluate(patch, "jet", u, v)
    return np.max([np.linalg.norm(d - e, axis=-1)
                   for d, e in zip((Xuu, Xuv, Xvv), exact)], axis=0)


def _higher_partials_fd(patch, u, v, h: float) -> np.ndarray:
    """Largest Euclidean norm, at each point of the grid u x v, of jet4 minus
    differences of the partials one order lower (Xuuu and Xuuuu along u,
    the rest along v; Richardson over h, h/2 and h/4, sixth order)."""
    cache: dict = {}

    def jets(du, dv):
        # orders 2, 3 and 4 by the number of v's: indices 0-2, 3-6, 7-11
        if (du, dv) not in cache:
            cache[du, dv] = (_evaluate(patch, "jet", u + du, v + dv)
                             + _evaluate(patch, "jet4", u + du, v + dv))
        return cache[du, dv]

    def diff(i, along_u):
        def shifted(s):
            return jets(s, 0.0)[i] if along_u else jets(0.0, s)[i]

        return (16.0 * _rich1(shifted, 0.5 * h) - _rich1(shifted, h)) / 15.0

    # (partial, the partial it differences, direction)
    pairs = [(3, 0, True), (7, 3, True)]
    pairs += [(i, i - 4, False) for i in (4, 5, 6)]
    pairs += [(i, i - 5, False) for i in (8, 9, 10, 11)]
    exact = jets(0.0, 0.0)
    return np.max([np.linalg.norm(diff(j, along_u) - exact[i], axis=-1)
                   for i, j, along_u in pairs], axis=0)


class TestFiniteDifferences:
    def test_cross_checks_fall_at_their_order(self, r3_pipeline):
        # against an exact jet the oracle's discrepancy is truncation alone:
        # each halving of the step divides it by 2^4 (second partials,
        # fourth order) or 2^6 (orders 3 and 4, sixth order); measured
        # 15.88-15.99 and 63.5-64.8, while a wrong jet would leave a floor
        # that does not fall.  Below these steps the higher partials reach
        # rounding (2e-12).  The grid is the fixture's, on a patch of its
        # profile whose rectangle holds the largest step's stencils
        prof, patch, _ = r3_pipeline
        (u0, u1), (v0, v1) = patch.u_range, patch.v_range
        steps = (1.6e-1, 8e-2, 4e-2, 2e-2)
        u, v = np.linspace(u0, u1, 16), np.linspace(v0, v1, 16)
        reach = 2.04 * steps[0]
        patch = bc.build_r3_revolution(prof, ((u0 - reach, u1 + reach),
                                              (v0 - reach, v1 + reach)))
        for oracle, lo, hi in ((_second_partials_fd, 15.5, 17.0),
                               (_higher_partials_fd, 60.0, 72.0)):
            maxima = np.array([np.max(oracle(patch, u, v, h)) for h in steps])
            ratios = maxima[:-1] / maxima[1:]
            assert np.all((lo < ratios) & (ratios < hi)), (oracle.__name__, ratios)

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline"])
    def test_point_api_evaluates_to_the_rectangle_edge(self, fix, request):
        # the point API takes no step, so it needs no stencil margin; the
        # rectangle is the evaluable domain
        patch = request.getfixturevalue(fix)[-2]
        lo, hi = patch.u_range
        for u in (lo, hi):
            pg = bc.point_geometry(patch, u, 1.0)
            assert np.isfinite(pg.f)
            assert np.isfinite(pg.residuals["pde"])
        for u in (lo - 1e-3 * (hi - lo), hi + 1e-3 * (hi - lo), float("nan")):
            with pytest.raises(bc.UsageError, match=re.escape(
                    f"point u={u} is outside the u range [{lo}, {hi}] of patch '{patch.case}'")):
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
        ugrid, vgrid = report_grid(report)
        for i in (0, nu // 2, nu - 1):
            for j in (0, nv // 2, nv - 1):
                pg = bc.point_geometry(patch, ugrid[i], vgrid[j])
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
        assert res["f_vs_profile"]["max"] < 1e-8
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
        # the fd block states the Laplacian's sign alone: no row takes a step
        assert data["fd"] == {"laplacian_sign": "geometric (minus divergence form)"}

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
        pr = _Probe(patch, u, v)
        want = patch.frame(U.ravel(), V.ravel())
        for g, w in zip(pr.frame(), want):
            assert np.array_equal(g, w)
        # a block of u-rows 2-4 is those rows' points, 5 per row
        for g, w in zip(pr.block(slice(2, 5)).frame(), want):
            assert np.array_equal(g, w[10:25])

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
        # verify_patch, each one u-line on its column of u (no row reads a
        # shifted u): the u-line is that of a call of its own, byte for byte
        patch = request.getfixturevalue(fix)[-2]
        probes = []

        class Recorded(_Probe):
            def __init__(self, *args):
                super().__init__(*args)
                probes.append(self)

        monkeypatch.setattr(verify, "_Probe", Recorded)
        bc.verify_patch(patch, 24, 24)
        assert [pr.shape for pr in probes] == [(1, 1), (24, 24)]
        for pr in probes:
            want = patch.uline(pr.u)
            assert len(pr.line) == len(want)
            for g, w in zip(pr.line, want):
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

    def test_verify_calls_uline_once_per_probe(self, s3_pipeline, r3_pipeline):
        # normal_sign and the grid, on every patch: the rectangle's midpoint
        # and one u-line point per grid row, at no offset
        for patch in (s3_pipeline[2], r3_pipeline[1], sphere_patch()):
            calls = []

            def uline(u, patch=patch):
                calls.append(np.array(u).ravel())
                return patch.uline(u)

            bc.verify_patch(dataclasses.replace(patch, uline=uline), 24, 24)
            assert [c.tolist() for c in calls] == [[mid(patch)[0]],
                                                   np.linspace(*patch.u_range, 24).tolist()]


class TestFailClosed:
    @pytest.mark.parametrize("nu, nv", [(0, 8), (-3, 8), (1, 8), (8, 1), (8.0, 8),
                                        (True, 8)])
    def test_grid_size_below_two_or_not_integer_is_usage_error(self, nu, nv):
        with pytest.raises(bc.UsageError, match="integers nu, nv >= 2"):
            bc.verify_patch(sphere_patch(), nu, nv)

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
    ], ids=["none", "bool", "str", "inf", "nan", "negative", "int-name", "list"])
    def test_vacuous_or_malformed_options_are_usage_errors(self, options, message):
        # None, True and inf used to pass vacuously (True as the bound 1);
        # the list and the string leaked AttributeError or TypeError.  Each
        # is refused before the patch is evaluated
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
        assert rep.notes == [NO_JET_ROWS.format("fixture_cylinder"),
                             "required residual 'f_vs_profile' was not evaluated"]
        assert not rep.passed

    def test_grid_is_the_rectangle(self):
        # the rectangle is the evaluable domain: the grid reaches its ends,
        # and the point API refuses a u beyond them
        patch = dataclasses.replace(plane_patch(), u_range=(-1.5, 1.5))
        assert bc.verify_patch(patch, 8, 8).grid["u_range"] == [-1.5, 1.5]
        for u in (-1.5 - 1e-9, 1.5 + 1e-9):
            with pytest.raises(bc.UsageError, match="outside the u range"):
                bc.point_geometry(patch, u, 0.0)

    @pytest.mark.parametrize("rect", [((-0.5, float("nan")), (-1.0, 1.0)),
                                      ((float("inf"), 1.0), (-1.0, 1.0)),
                                      ((-1.0, 1.0), (0.0, -float("inf")))])
    def test_rectangle_not_finite_is_usage_error(self, rect):
        # a hand-written patch's rectangle is refused before the patch is
        # evaluated, where a NaN grid would raise ConditioningError and an
        # infinite end leak numpy's RuntimeWarning from linspace
        calls = []
        patch = dataclasses.replace(plane_patch(), u_range=rect[0], v_range=rect[1])
        probed = dataclasses.replace(patch, uline=lambda u: calls.append(u) or patch.uline(u))
        message = f"the rectangle {rect[0]} x {rect[1]} of patch 'fixture_plane' is not finite"
        with pytest.raises(bc.UsageError, match=re.escape(message)):
            bc.verify_patch(probed, 8, 8)
        assert calls == []

    @pytest.mark.parametrize("tolerances", [None, {}, {"normal_bitension_min": 1e-3}],
                             ids=["case-without-profile", "empty", "bitension-only"])
    def test_no_residual_tolerance_fails(self, tolerances):
        rep = bc.verify_patch(cylinder_patch(), 8, 8, tolerances=tolerances)
        assert not rep.passed
        assert "no residual tolerance applies to case 'fixture_cylinder'" in rep.notes

    def test_nonfinite_unmasked_residual_fails(self, r3_pipeline):
        # a profile whose k is NaN on the upper half of the rectangle: the
        # f_vs_profile row, whose mask keeps every point, is within its bound
        # where it is finite and fails the report where it is not
        prof, patch, _ = r3_pipeline
        cut = 0.5 * sum(patch.u_range)

        class Holed(type(prof)):
            def k(self, t):
                return np.where(t > cut, np.nan, super().k(t))

        holed = dataclasses.replace(patch, profile=Holed(prof.C, prof.rho_max))
        tol = {"f_vs_profile": 1e-8}
        rep = bc.verify_patch(holed, 8, 8, tolerances=tol)
        entry = rep.residuals["f_vs_profile"]
        assert entry["count"] == 32 and entry["max"] <= tol["f_vs_profile"]
        assert rep.notes == ["required residual 'f_vs_profile' is not finite at 32 "
                             "unmasked points"]
        assert not rep.passed

    def test_skipped_relative_floor_is_noted(self, s3_pipeline):
        # the cylinder is CMC, so the relative bitension floor does not apply;
        # the report says so, and still passes on its bounded residual
        tol = {"biconservative": 1e-8, "normal_bitension_min": 1e-3}
        rep = bc.verify_patch(cylinder_patch(), 8, 8, tolerances=tol)
        assert rep.gates["non_cmc_points"] == 0
        assert rep.notes == [NO_JET_ROWS.format("fixture_cylinder"),
                             "'normal_bitension_min' skipped: 0 of 64 points are non-CMC"]
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


# the step-free rows that certify the jets of a curved patch
_JET_ROWS = ("quadric_jet", "profile_jet")


def assert_rejected(patch, rows):
    """The patch's 24 x 24 report fails, every row of ``rows`` over its bound."""
    rep = bc.verify_patch(patch, 24, 24)
    assert set(rows) <= over_bound(rep).keys()
    assert not rep.passed


# the classical fixtures, patches from outside the family table
_FIXTURES = {"plane": plane_patch, "cylinder": cylinder_patch, "sphere": sphere_patch,
             "great_sphere": great_sphere_patch}
# every family's patch and the fixtures: the finite-difference oracle's cases
_ORACLE_CASES = ["r3_pipeline", "s3_pipeline", "h3e_pipeline", "h3p_pipeline", *_FIXTURES]


def oracle_case(fix, request, n=64):
    """(patch, u, v, h, bound) of an oracle case: the n x n ``fd_grid`` at
    the default step, and the bound the verifier's FD rows held, 1e-8 flat
    and 1e-7 curved."""
    patch = _FIXTURES[fix]() if fix in _FIXTURES else request.getfixturevalue(fix)[-2]
    h = fd_step(patch)
    return (patch, *fd_grid(patch, n, h), h, 1e-8 if patch.model.c == 0 else 1e-7)


class TestJetCrossCheck:
    """The builders' second partials match the finite-difference oracle, and
    a builder bug in them fails the step-free jet rows."""

    @pytest.mark.parametrize("fix", _ORACLE_CASES)
    def test_jet_matches_differences(self, fix, request):
        # measured 7.5e-12 (r3) to 1.3e-10 (h3p), and at most 1.7e-12 on
        # the fixtures
        patch, u, v, h, bound = oracle_case(fix, request)
        worst = _second_partials_fd(patch, u, v, h)
        assert worst.shape == (64, 64) and np.all(np.isfinite(worst))
        assert np.max(worst) <= bound

    @staticmethod
    def assert_rejected(patch):
        assert_rejected(patch, ("profile_jet",) if patch.model.c == 0 else _JET_ROWS)

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
    H = _F_FIELD_REL[patch.case] * rect_diagonal(patch) / 8
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
        for name in _JET_ROWS:
            assert rep.residuals[name]["max"] <= rep.tolerances[name], name

    def test_h3_truncation_case_passes(self):
        assert bc.verify_patch(_h3_truncation_case(), 20, 20).passed

    def test_blocks_do_not_change_the_result(self, tmp_path, monkeypatch):
        # _BLOCK_POINTS set to 24 and to 48 on 25 rows of 24 points, so the
        # last block is short: 1- and 2-row grid blocks and 1-row
        # f-derivative sub-blocks both times.  The mesh text goes in 7-row
        # blocks; every case has the f_vs_profile and profile_jet rows
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
            assert {"f_vs_profile", "profile_jet"} <= whole.residuals.keys()
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
    """The builders' partials of orders 3 and 4 match the finite-difference
    oracle, and a builder bug in them fails the step-free jet rows:
    profile_jet on r3, and both rows on the curved families."""

    @pytest.mark.parametrize("fix", _ORACLE_CASES)
    def test_strided_and_within_tolerance(self, fix, request):
        # on every 4th row and column of the 64 x 64 grid, the first ones
        # included; measured 1.4e-11 (r3) to 2.5e-10 (h3p), and at most
        # 4.1e-12 on the fixtures
        patch, u, v, h, bound = oracle_case(fix, request)
        worst = _higher_partials_fd(patch, u[::4], v[::4], h)
        assert worst.shape == (16, 16) and np.all(np.isfinite(worst))
        assert np.max(worst) <= bound

    @staticmethod
    def assert_rejected(patch):
        assert_rejected(patch, ("profile_jet",) if patch.model.c == 0 else _JET_ROWS)

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
        self.assert_rejected("s3", ("model_membership", "f_vs_profile", "quadric_jet",
                                    "profile_jet", "pde"))

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
        # the profile's C1 and C2 swapped where the builder reads them, so
        # the orbit and profile_jet's constraints take the swapped pair
        exact = surfaces._build_sweep

        def swapped(prof, *args):
            return exact(dataclasses.replace(prof, C1=prof.C2, C2=prof.C1), *args)

        monkeypatch.setattr(surfaces, "_build_sweep", swapped)
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


class TestStepFreeJetRows:
    """profile_jet, and quadric_jet on S3 and H3, certify the jets of every
    patch of the family table with no step."""

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline", "h3e_pipeline",
                                     "h3p_pipeline"])
    def test_rows_and_fd_block_by_family(self, fix, request):
        patch, report = request.getfixturevalue(fix)[-2:]
        rows = _JET_ROWS if patch.model.c != 0 else ("profile_jet",)
        assert set(rows) <= report.tolerances.keys() & report.residuals.keys()
        assert ("quadric_jet" in report.residuals) == (patch.model.c != 0)
        assert not {"second_partials_fd", "higher_partials_fd"} & report.residuals.keys()
        # the grid is the rectangle, and the fd block keeps the statement of
        # the Laplacian's sign alone
        assert report.fd == {"laplacian_sign": "geometric (minus divergence form)"}
        assert report.grid["u_range"] == list(patch.u_range)
        assert report.notes == []
        for name in rows:
            entry = report.residuals[name]
            assert entry["count"] == 64 * 64
            # clean floors measured 3e-16 (r3, against 1e-12) and 5e-14 (s3)
            # to 1.1e-12 (h3p, against 1e-9) at this grid: under 2e-3 of
            # the bound, so a rise of the floor shows
            assert entry["max"] <= 2e-3 * report.tolerances[name], name

    def test_point_rows_include_quadric_jet(self, s3_pipeline, r3_pipeline):
        # quadric_jet is a pointwise gate row; profile_jet reads the u-line
        s3 = bc.point_geometry(s3_pipeline[2], *mid(s3_pipeline[2])).residuals
        r3 = bc.point_geometry(r3_pipeline[1], *mid(r3_pipeline[1])).residuals
        assert "quadric_jet" in s3 and "quadric_jet" not in r3
        assert "profile_jet" not in s3

    def test_great_sphere_fixture_gets_no_jet_rows(self):
        # a patch from outside the family table has no profile_jet, and its
        # report says that its jets are taken as given; its quadric_jet is
        # computed but no bound names it
        rep = bc.verify_patch(great_sphere_patch(), 16, 16)
        assert "profile_jet" not in rep.residuals
        assert rep.residuals["quadric_jet"]["max"] <= 1e-13
        assert rep.notes[0] == NO_JET_ROWS.format("fixture_great_sphere")

    @pytest.mark.parametrize("index", [7, 9, 6, 8], ids=["a3", "a4", "sigma3", "sigma4"])
    @pytest.mark.parametrize("fix", ["s3_pipeline", "h3e_pipeline", "h3p_pipeline"])
    def test_scaled_jet_fails_a_row_a_hundredfold(self, fix, index, request):
        # u-line entries 7 and 9 are the third and fourth derivatives of the
        # amplitude a, 6 and 8 those of sigma; at 1 + 1e-6 the FD rows failed
        # at only 90-134x their bound, the step-free rows measure 125-3,300x
        patch = request.getfixturevalue(fix)[2]
        rep = bc.verify_patch(_mutated(patch, index, lambda line: line[index] * (1 + 1e-6)),
                              24, 24)
        ratios = over_bound(rep)
        assert set(_JET_ROWS) <= ratios.keys()
        assert max(ratios[name] for name in _JET_ROWS) >= 100.0
        assert not rep.passed

    @staticmethod
    def scaled_partial(patch, name, index):
        """The patch whose evaluator ``name`` returns its partial ``index``
        scaled by 1 + 1e-6."""
        evaluate = getattr(patch, name)

        def scaled(line, v):
            out = list(evaluate(line, v))
            out[index] = out[index] * (1 + 1e-6)
            return tuple(out)

        return dataclasses.replace(patch, **{name: scaled})

    @pytest.mark.parametrize("name, index", [("at", 1), ("at", 2)]
                             + [("jet", i) for i in range(3)]
                             + [("jet4", i) for i in (0, 1, 2, 3, 4, 6, 8)])
    @pytest.mark.parametrize("case", sorted(_CURVED))
    def test_scaled_evaluator_partial_fails_quadric_jet(self, case, name, index):
        # a partial of orders 1-4 scaled by 1 + 1e-6 where the patch's at,
        # jet or jet4 returns it; measured 105-13,300x the bound
        assert_rejected(self.scaled_partial(_built(case), name, index), ("quadric_jet",))

    @pytest.mark.parametrize("index", [5, 7], ids=["Xuuuv", "Xuvvv"])
    @pytest.mark.parametrize("case", sorted(_CURVED))
    def test_tangent_order_four_partials_are_read_by_no_row(self, case, index):
        # on every sweep Xuuuv = a3 S1 and Xuvvv = a1 S3 (a_i and S_j the
        # derivatives of the amplitude and the orbit) lie along Xv, so
        # <X_I, X> = <X_I, eta> = 0: the quadric and the f derivatives, which
        # read order 4 only through <X_ijkl, eta>, cannot see them, and
        # scaling them moves no residual max and no sampled field; the
        # retired FD rows compared the whole vector.  The sweep assembly that
        # forms them is shared with r3
        patch = _built(case)
        base = bc.verify_patch(patch, 24, 24)
        rep = bc.verify_patch(self.scaled_partial(patch, "jet4", index), 24, 24)
        assert rep.passed
        assert {name: e["max"] for name, e in rep.residuals.items()} == \
            {name: e["max"] for name, e in base.residuals.items()}
        for name, values in base.fields.items():
            assert np.array_equal(rep.fields[name], values), name

    @pytest.mark.parametrize("case", sorted(_CURVED))
    def test_chart_rate_fails_profile_jet(self, case, monkeypatch):
        # theta' scaled by 1 + 1e-6 in the chart's run and in T: the frame
        # stays unit speed, as _Chart.state normalizes it, but the speed
        # before that, alpha^2 + beta^2, moves by about 2e-6 beta^2, which
        # reads about 2,000x the bound; the constraint chain alone reads
        # 151-282x
        exact = profile._chart

        def faster(branch, c, C):
            chart = exact(branch, c, C)
            return dataclasses.replace(chart, rate=chart.rate * (1 + 1e-6))

        monkeypatch.setattr(profile, "_chart", faster)
        rep = bc.verify_patch(_built(case), 24, 24)
        assert over_bound(rep)["profile_jet"] >= 1000.0
        assert not rep.passed

    @pytest.mark.parametrize("fix", ["r3_pipeline", "s3_pipeline"])
    def test_fd_bound_fails_closed(self, fix, request):
        # no row takes finite differences: a bound on a retired FD row names
        # no row, so the report fails and says so; every row is as before
        patch, report = request.getfixturevalue(fix)[-2:]
        bounds = {**report.tolerances, "second_partials_fd": 1e-7, "higher_partials_fd": 1e-7}
        bounded = bc.verify_patch(patch, 64, 64, tolerances=bounds)
        assert not bounded.passed
        assert bounded.notes == [f"required residual '{name}' was not evaluated"
                                 for name in ("second_partials_fd", "higher_partials_fd")]
        assert bounded.residuals == report.residuals

    @pytest.mark.parametrize("index", range(1, 10))
    @pytest.mark.parametrize("C, rho_range", [
        (0.8, (1.5, 8.0)), (1.0, (1.5, 8.0)), (2.4, (1.5, 8.0)), (31.6, (1.5, 8.0)),
        (1.0, (1.0, 8.0)),
    ], ids=["C0.8", "C1", "C2.4", "C31.6", "C1-waist"])
    def test_scaled_revolution_entry_fails_profile_jet_a_hundredfold(self, C, rho_range,
                                                                      index):
        # every u-line entry of r3 but the height (entries 1-9) scaled by
        # 1 + 1e-6 fails profile_jet at least 100x over its bound of 1e-12,
        # also on the range that starts at the waist t = 0, where z'', rho'
        # and rho''' vanish; the weakest, rho'''' at C = 31.6, measured 760x
        # at 128 u points, against a clean floor under 4e-16
        prof = bc.revolution_profile(C, 1.5 * rho_range[1])
        patch = bc.build_r3_revolution(prof, (prof.t_of_rho(rho_range), (0.0, 2 * np.pi)))
        rep = bc.verify_patch(_mutated(patch, index, lambda line: line[index] * (1 + 1e-6)),
                              24, 24)
        assert over_bound(rep)["profile_jet"] >= 100.0
        assert not rep.passed

    @pytest.mark.parametrize("mutation", ["negated", "off-axis"])
    def test_revolution_frame_mutation_fails_profile_jet(self, r3_pipeline, mutation):
        # entries 1-9 negated together satisfy every chain but rho > 0 (the
        # frame of the mirror image z -> -z, the sweep's points kept, as
        # rho S(v) = -rho S(v + pi)); sigma''' tilted off the rotation axis
        # by 1e-6 of its size leaves every z and rho entry as it is.  No
        # other row reads either
        patch = r3_pipeline[1]

        def uline(u):
            line = list(patch.uline(u))
            if mutation == "negated":
                return (line[0],) + tuple(-entry for entry in line[1:])
            line[6] = line[6] + 1e-6 * np.abs(line[6][..., 2:]) * np.array([1.0, 0.0, 0.0])
            return tuple(line)

        rep = bc.verify_patch(dataclasses.replace(patch, uline=uline), 24, 24)
        assert set(over_bound(rep)) == {"profile_jet"}
        assert not rep.passed


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
