import ast
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from biconsurf import curvature, pipeline
from biconsurf.cli import main
from biconsurf.curvature import prime_constant
from biconsurf.families import resolve
from biconsurf.pipeline import PipelineConfig, cmd_solve, cmd_surface, cmd_sweep

import biconsurf as bc


def run(*argv):
    return main(list(argv))


def branch_of(cfg):
    """The profile branch that the sign of C of cfg's initial data picks."""
    return resolve(cfg.model, cfg.branch, lambda c: float(prime_constant(cfg.k0, cfg.kp0, c))).branch


class TestSolveCommand:
    def test_sphere_header_records_constant(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("solve", "--model", "s3", "--k0", "1", "--dk0", "1",
                   "--out", str(out)) == 0
        header = out.read_text().splitlines()
        assert header[1] == "u,k,kp,C_drift"
        cval = float(header[0].split("C=")[1].split()[0])
        assert cval == pytest.approx(169.0 / 9.0, rel=1e-12)

    def test_hyperbolic_constants(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run("solve", "--model", "h3", "--k0", "1", "--dk0", "1",
                   "--out", str(out)) == 0
        cval = float(out.read_text().split("C=")[1].split()[0])
        assert cval == pytest.approx(137.0 / 9.0, rel=1e-12)

    def test_negative_constant_auto_branch(self, tmp_path):
        cfg = PipelineConfig(model="h3", k0=0.25, kp0=0.2)
        result = cmd_solve(cfg, tmp_path / "p.csv")
        assert result["C"] == pytest.approx(-248.0 / 225.0, rel=1e-12)
        assert branch_of(cfg).value == "h2_parabolic"

    def test_explicit_branch_checked_against_constant_sign(self):
        ok = PipelineConfig(model="h3", branch="parabolic", k0=0.25, kp0=0.2)
        assert branch_of(ok) is bc.Branch.H2_PARABOLIC
        bad = PipelineConfig(model="h3", branch="elliptic", k0=0.25, kp0=0.2)
        with pytest.raises(bc.UsageError, match="contradicts the sign"):
            branch_of(bad)

    @pytest.mark.parametrize("branch, k0, dk0, code", [
        ("parabolic", "1", "1", 2), ("elliptic", "0.25", "0.2", 2),
        ("parabolic", "0.2", "0.21333333333333335", 2), ("parabolic", "0.25", "0.2", 0),
        ("auto", "0.2", "0.21333333333333335", 0),
    ])
    def test_explicit_branch_resolved_before_writing(self, tmp_path, branch, k0, dk0, code):
        # as surface and profile do, solve refuses a --branch that the sign
        # of C contradicts before it makes the output directory; auto solves
        # every C, C = 0 included
        out = tmp_path / "out" / "s.csv"
        assert run("solve", "--model", "h3", "--branch", branch, "--k0", k0, "--dk0", dk0,
                   "--out", str(out)) == code
        assert out.exists() == (code == 0) == (tmp_path / "out").exists()

    def test_drift_column_small(self, tmp_path):
        out = tmp_path / "s.csv"
        run("solve", "--model", "s3", "--out", str(out))
        rows = out.read_text().splitlines()[2:]
        drifts = [abs(float(r.split(",")[3])) for r in rows]
        assert max(drifts) < 1e-8

    def test_invalid_initial_data_is_usage_error(self, tmp_path):
        assert run("solve", "--model", "s3", "--k0=-1.0",
                   "--out", str(tmp_path / "x.csv")) == 2

    def test_dense_state_evaluated_once_on_the_grid(self, tmp_path, monkeypatch):
        # the C_drift column reads the states of the k and k' columns; the
        # file equals the one written from a second evaluation for the drift
        cfg = PipelineConfig(model="s3", k0=1.0, kp0=1.0, span=(-3.0, 3.0))
        sizes, exact = [], curvature._Dop853Dense.__call__

        def counted(dense, u):
            sizes.append(np.size(u))
            return exact(dense, u)

        monkeypatch.setattr(curvature._Dop853Dense, "__call__", counted)
        path = cmd_solve(cfg, tmp_path / "s.csv")["csv"]
        # the run's root solves evaluate one-point segments
        assert [n for n in sizes if n > 1] == [cfg.n_csv]
        monkeypatch.undo()
        sol = bc.solve_curvature(1, 1.0, 1.0, (-3.0, 3.0), rel_tol=cfg.rel_tol,
                                 abs_tol=cfg.abs_tol)
        grid = np.linspace(*sol.span, cfg.n_csv)
        rows = Path(path).read_text().splitlines()[2:]
        assert [float(r.split(",")[3]) for r in rows] == sol.drift(grid).tolist()


class TestBoundaryEvents:
    """A run that stops early says where and why, in the result and on stdout."""

    # h3 k0 = 0.25, k'0 = 0.2 over +-20 reaches k_floor on both sides
    ARGS = ("--model", "h3", "--k0", "0.25", "--dk0", "0.2", "--span", "-20", "20")

    @pytest.mark.parametrize("command", [cmd_solve, pipeline.cmd_profile, cmd_surface])
    def test_result_holds_the_events(self, tmp_path, command):
        # cmd_surface verifies the build out to its stops and returns them
        cfg = PipelineConfig(model="h3", k0=0.25, kp0=0.2, span=(-20.0, 20.0), nu=16, nv=16)
        events = command(cfg, tmp_path / "out")["boundary_events"]
        assert [e["kind"] for e in events] == ["k_floor", "k_floor"]
        assert events[0]["u"] < -12.9 and events[1]["u"] > 14.0

    @pytest.mark.parametrize("command", ["solve", "profile", "surface", "verify"])
    def test_cli_prints_one_line_per_event(self, tmp_path, capsys, command):
        # the surface of this build fails pde near 1e7 at its stops
        assert run(command, *self.ARGS, "--out", str(tmp_path / "out")) == 1
        lines = [line for line in capsys.readouterr().out.splitlines() if "stopped" in line]
        assert len(lines) == 2
        assert all(line.startswith("  stopped early: k_floor at u=") for line in lines)

    @pytest.mark.parametrize("command, model", [("solve", "s3"), ("profile", "s3"),
                                                ("profile", "r3"), ("verify", "s3"),
                                                ("verify", "r3")])
    def test_full_run_has_none(self, tmp_path, capsys, command, model):
        assert run(command, "--model", model, "--out", str(tmp_path / "out")) == 0
        assert "stopped" not in capsys.readouterr().out


class TestSurfaceCommand:
    def test_r3_full_pipeline(self, tmp_path):
        code = run("surface", "--model", "r3", "--C", "1",
                   "--nu", "24", "--nv", "24", "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "surface.report.json").read_text())
        assert report["pass"] is True
        assert report["residuals"]["biconservative"]["max"] < 1e-8
        assert (tmp_path / "surface.obj").exists()
        assert (tmp_path / "surface.ply").exists()

    @pytest.mark.parametrize("command, out", [
        ("surface", "out"), ("verify", "out"), ("profile", "out/p.csv"),
    ])
    def test_contradicted_branch_refused_before_writing(self, tmp_path, capsys, command, out):
        # C > 0 here: these commands made their output directory before the
        # build resolved the family, and left it empty when it refused
        assert run(command, "--model", "h3", "--branch", "parabolic", "--k0", "1",
                   "--dk0", "1", "--out", str(tmp_path / out)) == 2
        assert "contradicts the sign" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_records_a_contradicted_branch_per_value(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--model", "h3", "--branch", "parabolic", "--k0", "1",
                   "--dk0", "1", "--values", "1", "--nu", "8", "--nv", "8",
                   "--out", str(out)) == 1
        assert sorted(path.name for path in out.iterdir()) == ["summary.csv"]
        row = (out / "summary.csv").read_text().splitlines()[1]
        assert row.startswith("1,0,nan,nan,UsageError: branch 'parabolic' contradicts")

    def test_sweep_refuses_a_span_it_cannot_build_before_writing(self, tmp_path, capsys):
        # a span beyond SPAN_LIMIT: sweep once made its directory and
        # recorded the refusal per value, where surface exits 2 and writes
        # nothing
        out = tmp_path / "out"
        assert run("sweep", "--model", "s3", "--span", "-1000.5", "1", "--values", "1",
                   "--nu", "4", "--nv", "4", "--out", str(out)) == 2
        assert _SPAN_BEYOND_LIMIT in capsys.readouterr().err
        assert not out.exists()

    def test_span_refusal_names_the_typed_span(self, tmp_path, capsys):
        # a build integrates the span as typed, so the refusal names it; it
        # once named the span padded by the finite-difference reach
        out = tmp_path / "out"
        assert run("surface", "--model", "s3", "--span", "-1000.5", "1000", "--nu", "4",
                   "--nv", "4", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "span ends must lie within +-1000 of 0, got (-1000.5, 1000.0)" in err
        assert not out.exists()

    def test_v_range_beyond_the_span_limit_is_refused_before_writing(self, tmp_path, capsys):
        # v ends are bound as span ends are; this once passed on s3, with v
        # samples about 3e307 apart
        out = tmp_path / "out"
        assert run("verify", "--model", "s3", "--k0", "1", "--dk0", "1", "--v-range", "0",
                   "1e308", "--nu", "4", "--nv", "4", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "v_range ends must lie within +-1000 of 0, got (0.0, 1e+308)" in err
        assert not out.exists()

    def test_overflowing_exponential_orbit_is_one_conditioning_error(self, tmp_path, capsys):
        # e^v at the orientation point v = 500 overflows the metric of the
        # h3-parabolic patch: exit 3 with the one ConditioningError line,
        # where numpy's RuntimeWarnings once came first (and, as errors, a
        # traceback)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("surface", "--model", "h3", "--k0", "0.25", "--dk0", "0.2",
                       "--v-range", "0", "1000", "--nu", "4", "--nv", "4",
                       "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: ConditioningError: metric determinant is not finite on the grid"]

    def test_s3_verify_passes(self, tmp_path):
        code = run("verify", "--model", "s3", "--nu", "24", "--nv", "24",
                   "--out", str(tmp_path), "--report", str(tmp_path / "r.json"))
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["case"] == "s3" and report["pass"] is True
        assert not (tmp_path / "surface.obj").exists()

    @pytest.mark.parametrize("model, branch, message", [
        ("s3", "elliptic", "branch selection does not apply to model s3"),
        ("s3", "parabolic", "the parabolic branch exists only for model h3"),
        ("r3", "elliptic", "branch selection does not apply to model r3"),
        ("r3", "parabolic", "the parabolic branch exists only for model h3"),
    ], ids=["s3-elliptic", "s3-parabolic", "r3-elliptic", "r3-parabolic"])
    def test_branch_model_conflict_is_config_error(self, tmp_path, capsys, model, branch,
                                                   message):
        assert run("surface", "--model", model, "--branch", branch,
                   "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_branch_sign_conflict_is_config_error(self, tmp_path):
        # (k0, kp0) = (1, 1) gives C > 0, contradicting the parabolic branch
        assert run("surface", "--model", "h3", "--branch", "parabolic",
                   "--k0", "1", "--dk0", "1", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("C, rho_range, message", [
        ("1", ("0.5", "8"), "rho outside the profile domain [1.0, 8.0]"),
        ("2", ("0.1", "0.3"),
         "rho_max must exceed the waist radius C^(-3/2) = 0.3535533905932738, got 0.3"),
    ], ids=["below-the-waist", "all-below-the-waist"])
    def test_numerical_failure_exit_code(self, tmp_path, capsys, C, rho_range, message):
        # rho range reaching below the waist radius is a numerical domain
        # error, which names the profile's domain up to R1 = rho_max
        assert run("surface", "--model", "r3", "--C", C,
                   "--rho-range", *rho_range, "--out", str(tmp_path)) == 3
        assert message in capsys.readouterr().err

    def test_r3_range_from_the_waist(self, tmp_path):
        # rho = 1 = C^(-3/2) is the waist, t = 0 in the regular chart
        assert run("surface", "--model", "r3", "--rho-range", "1", "8",
                   "--nu", "16", "--nv", "16", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "surface.report.json").read_text())
        assert report["grid"]["u_range"] == [0.0, math.sqrt(8.0 ** (2.0 / 3.0) - 1.0)]

    @pytest.mark.parametrize("command", ["surface", "profile"])
    @pytest.mark.parametrize("rho_range", [("8", "1.5"), ("2", "2")])
    def test_r3_range_must_increase(self, tmp_path, capsys, command, rho_range):
        assert run(command, "--model", "r3", "--rho-range", *rho_range,
                   "--out", str(tmp_path / "out")) == 2
        assert "rho_range must increase" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run("surface", "--nonsense", "1")
        assert exc.value.code == 2

    def test_v_range_flag(self, tmp_path):
        code = run("verify", "--model", "h3", "--k0", "0.25", "--dk0", "0.2",
                   "--v-range", "-0.5", "0.5", "--nu", "12", "--nv", "12",
                   "--out", str(tmp_path), "--report", str(tmp_path / "r.json"))
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["grid"]["v_range"] == [-0.5, 0.5]

    def test_config_file_defaults_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "r3", "C": 2.0, "nu": 16, "nv": 16}))
        code = run("surface", "--config", str(cfgfile), "--C", "1.5",
                   "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "surface.report.json").read_text())
        assert report["case"] == "r3_revolution"

    def test_config_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "s3", "k_0": 0.6}))
        assert run("verify", "--config", str(cfgfile), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "k_0" in err and "known keys" in err and "k0" in err
        assert not (tmp_path / "surface.report.json").exists()

    def test_config_unconvertible_value_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "r3", "nu": "abc"}))
        assert run("verify", "--config", str(cfgfile), "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "'nu'" in err and "known keys" in err

    @pytest.mark.parametrize("values, key", [
        ({"nu": 8.7}, "nu"),
        ({"nv": 12.5}, "nv"),
        ({"nu": True}, "nu"),
        ({"k0": True}, "k0"),
        ({"dk0": False}, "dk0"),
        ({"k0": 10**400}, "k0"),
        ({"span": [-1.0, True]}, "span"),
        ({"v_range": [False, 1.0]}, "v_range"),
        ({"v_range": "05"}, "v_range"),
        ({"model": "r3", "C": True}, "C"),
        ({"model": "r3", "rho_range": [True, 3.0]}, "rho_range"),
    ])
    def test_config_bad_number_is_usage_error(self, tmp_path, capsys, values, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "s3", **values}))
        assert run("verify", "--config", str(cfgfile), "--out", str(tmp_path / "out")) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_integral_float_grid_size(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "s3", "nu": 8.0, "nv": 8}))
        code = run("verify", "--config", str(cfgfile), "--out", str(tmp_path),
                   "--report", str(tmp_path / "r.json"))
        assert code == 0
        grid = json.loads((tmp_path / "r.json").read_text())["grid"]
        assert (grid["nu"], grid["nv"]) == (8, 8)


_SPAN_WITHOUT_ZERO = "span must be a nondegenerate interval containing 0"
_SPAN_BEYOND_LIMIT = "span ends must lie within +-1000 of 0"


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, field", [
        (["solve", "--model", "s3", "--k0", "nan"], "k0"),
        (["solve", "--model", "s3", "--k0", "inf"], "k0"),
        (["solve", "--model", "h3", "--dk0", "nan"], "kp0"),
        (["solve", "--model", "s3", "--span", "-1", "nan"], "span"),
        (["profile", "--model", "r3", "--C", "nan"], "C"),
        (["profile", "--model", "r3", "--rho-range", "1", "inf"], "rho_range"),
        (["surface", "--model", "s3", "--v-range", "0", "inf"], "v_range"),
    ])
    def test_cli_exits_two_naming_the_field(self, tmp_path, capsys, argv, field):
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_tolerances(self, field):
        with pytest.raises(bc.UsageError, match=f"{field} must be finite"):
            PipelineConfig(**{field: math.inf}).validate()

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-9])
    def test_tolerances_must_be_positive(self, tmp_path, field, value):
        cfg = PipelineConfig(model="s3", **{field: value})
        with pytest.raises(bc.UsageError, match=f"{field} must be positive"):
            cfg.validate()
        # a zero abs_tol used to spin the s3 build's first step forever, and
        # a negative one to leak scipy's ValueError
        with pytest.raises(bc.UsageError, match=f"{field} must be positive"):
            pipeline.build_pipeline_patch(cfg)
        with pytest.raises(bc.UsageError, match=f"{field} must be positive"):
            cmd_solve(cfg, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_config_file_fd_step_is_an_unknown_key(self, tmp_path, capsys):
        # the verifier takes no finite-difference step
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "s3", "fd_step": 1e-3}))
        assert run("verify", "--config", str(cfgfile), "--out", str(tmp_path / "out")) == 2
        assert "unknown config key(s) fd_step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_v_range_must_be_a_pair(self):
        # a third bound used to be dropped without notice
        with pytest.raises(bc.UsageError, match="v_range must be a pair"):
            PipelineConfig(model="s3", v_range=(0.0, 1.0, 5.0)).validate()

    @pytest.mark.parametrize("fields, message", [
        ({"k0": "1"}, "k0 must be a real number, got '1'"),
        ({"k0": True}, "k0 must be a real number, got True"),
        ({"kp0": None}, "kp0 must be a real number, got None"),
        ({"model": "r3", "C": "2"}, "C must be a real number"),
        ({"k0": 10**400}, "k0 must be finite"),
        ({"model": "r3", "rho_range": (2.0,)}, "rho_range must be a pair of real numbers"),
        ({"model": "r3", "rho_range": (1.0, "8")}, "rho_range must be a pair of real numbers"),
        ({"span": (-1.0, 0.5, 7.0)}, "span must be a pair of real numbers"),
        ({"span": 1.0}, "span must be a pair of real numbers"),
        ({"v_range": (0.0, True)}, "v_range must be a pair of real numbers"),
        ({"projection": "bogus"}, "unknown projection 'bogus'"),
        ({"kp0": -10**400}, "kp0 must be finite"),
        ({"C": 10**400}, "C must be finite"),
        ({"span": (-1, 10**400)}, "span must be finite"),
        ({"rho_range": (1, 10**400)}, "rho_range must be finite"),
        ({"v_range": (0, 10**400)}, "v_range must be finite"),
        ({"rel_tol": 10**400}, "rel_tol must be finite"),
        ({"abs_tol": 10**400}, "abs_tol must be finite"),
        ({"span": (-1e305, 1e305)}, "span ends must lie within +-1000 of 0"),
    ])
    def test_unusable_field_is_usage_error(self, tmp_path, fields, message):
        # each used to leak a builtin exception (TypeError from np.isfinite
        # on an int beyond the float range), pass unnoticed, or (a bad
        # projection) fail only after the build and verification had run
        cfg = PipelineConfig(**{"model": "s3", **fields})
        with pytest.raises(bc.UsageError, match=re.escape(message)):
            cfg.validate()
        with pytest.raises(bc.UsageError, match=re.escape(message)):
            cmd_solve(cfg, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_config_file_projection_checked_before_output(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": "s3", "nu": 8, "nv": 8, "projection": "bogus"}))
        assert run("surface", "--config", str(cfgfile), "--out", str(tmp_path / "out")) == 2
        assert "unknown projection 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, projection, need, has", [
        ("r3", "poincare", 4, 3),
        ("r3", "stereographic", 4, 3),
        ("s3", "identity", 3, 4),
        ("h3", "identity", 3, 4),
    ])
    def test_chart_of_other_dimension_exits_two_before_work(
        self, tmp_path, capsys, monkeypatch, model, projection, need, has
    ):
        # a 4-D chart of r3's points used to run the build and the verifier,
        # then leak numpy's ValueError with exit 1 ("verification failed")
        message = (f"projection '{projection}' needs {need}-dimensional points; "
                   f"model {model} has {has}-dimensional ones")
        with pytest.raises(bc.UsageError, match=re.escape(message)):
            PipelineConfig(model=model, projection=projection).validate()

        def build(cfg):
            raise AssertionError("built a patch for an unusable projection")

        monkeypatch.setattr(pipeline, "build_pipeline_patch", build)
        out = tmp_path / "out"
        assert run("surface", "--model", model, "--projection", projection, "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--model", "s3", "--span", "0.5", "1"], _SPAN_WITHOUT_ZERO),
        (["surface", "--model", "s3", "--span", "0.5", "1"], _SPAN_WITHOUT_ZERO),
        (["surface", "--model", "s3", "--v-range", "0", "0"], "v_range must have nonzero width"),
        (["sweep", "--model", "h3", "--values", "1", "--span", "0.5", "1"], _SPAN_WITHOUT_ZERO),
        (["solve", "--model", "s3", "--span", "-1e305", "1e305"], _SPAN_BEYOND_LIMIT),
        (["profile", "--model", "s3", "--span", "-1e305", "1"], _SPAN_BEYOND_LIMIT),
        (["sweep", "--model", "s3", "--values", "1", "--span", "-1e305", "1"],
         _SPAN_BEYOND_LIMIT),
    ])
    def test_cli_exits_two_on_unusable_value(self, tmp_path, capsys, argv, message):
        # a curved span without u = 0 used to be refused only by the build:
        # surface left an empty output directory, and sweep exited 1; a
        # huge span end overflowed the step budget with a traceback
        assert run(*argv, "--out", str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["nu", "nv"])
    @pytest.mark.parametrize("n", [0, 1, 8.5, 8.0, True, "8"])
    def test_grid_size_must_be_an_integer_of_at_least_two(self, field, n):
        with pytest.raises(bc.UsageError, match="integers nu, nv >= 2"):
            PipelineConfig(model="s3", **{field: n}).validate()

    @pytest.mark.parametrize("n_csv", [0, 1, -3, 2.5, True, "512"])
    @pytest.mark.parametrize("command", [cmd_solve, pipeline.cmd_profile])
    def test_n_csv_must_be_an_integer_of_at_least_two(self, tmp_path, command, n_csv):
        with pytest.raises(bc.UsageError, match="n_csv must be an integer >= 2"):
            command(PipelineConfig(model="s3", n_csv=n_csv), tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


class TestExtremeFiniteInput:
    @pytest.mark.parametrize("argv, named", [
        (["surface", "--model", "s3", "--k0", "1e100", "--dk0", "0"], "k0=1e+100"),
        (["solve", "--model", "h3", "--k0", "1e100", "--dk0", "0"], "k0=1e+100"),
        (["solve", "--model", "s3", "--dk0", "1e200"], "kp0=1e+200"),
        (["surface", "--model", "r3", "--C", "1e-300"], "C=1e-300"),
    ])
    def test_non_finite_derived_value_is_domain_error(self, tmp_path, capsys, argv, named):
        assert run(*argv, "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "DomainError" in err and named in err
        assert "Traceback" not in err



class TestUnusableOutputDirectory:
    """An output path that cannot be written is a usage error, raised before the build.

    --out naming an existing file where a directory is wanted, or an
    existing directory where a file is wanted, and --report naming a
    directory.
    """

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = pipeline.build_pipeline_patch

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_pipeline_patch", counted)
        return calls

    @pytest.mark.parametrize("command", [
        ["surface", "--model", "s3"],
        ["sweep", "--model", "s3", "--values", "1"],
    ])
    @pytest.mark.parametrize("inside", [False, True])
    def test_exits_two_without_building(self, tmp_path, capsys, builds, command, inside):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if inside else blocker
        assert run(*command, "--nu", "8", "--nv", "8", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "output directory" in err and "Traceback" not in err
        assert builds == []
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", [
        ["solve", "--model", "s3", "--out"],
        ["profile", "--model", "s3", "--out"],
        ["profile", "--model", "r3", "--out"],
        ["verify", "--model", "s3", "--nu", "8", "--nv", "8", "--report"],
    ])
    def test_file_naming_a_directory_exits_two(self, tmp_path, capsys, monkeypatch,
                                               builds, command):
        monkeypatch.chdir(tmp_path)
        solves = []
        monkeypatch.setattr(pipeline, "solve_curvature", lambda *a, **k: solves.append(a))
        (tmp_path / "taken").mkdir()
        assert run(*command, "taken") == 2
        err = capsys.readouterr().err
        assert "cannot write 'taken': it is a directory" in err and "Traceback" not in err
        assert builds == [] and solves == []
        assert list(tmp_path.rglob("*")) == [tmp_path / "taken"]

    @pytest.mark.parametrize("name", ["surface.obj", "surface.obj.channels.csv", "surface.ply"])
    def test_mesh_file_naming_a_directory_exits_two(self, tmp_path, capsys, monkeypatch,
                                                    builds, name):
        # the OBJ, its channel sidecar and the PLY are checked before the build
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d" / name).mkdir(parents=True)
        assert run("surface", "--model", "r3", "--nu", "8", "--nv", "8", "--out", "d") == 2
        err = capsys.readouterr().err
        assert f"cannot write 'd/{name}': it is a directory" in err and "Traceback" not in err
        assert builds == []
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "d", tmp_path / "d" / name]


class TestNegativeExponentInput:
    """Negative numbers in exponent form are values, not option names."""

    def test_dk0(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("solve", "--model", "s3", "--k0", "1", "--dk0", "-1e-3",
                   "--out", str(out)) == 0
        cval = float(out.read_text().split("C=")[1].split()[0])
        assert cval == float(bc.prime_constant(1.0, -1e-3, 1))

    def test_span(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("solve", "--model", "s3", "--span", "-1e-3", "1",
                   "--out", str(out)) == 0
        assert "span=-0.001:1 " in out.read_text().splitlines()[0]

    def test_v_range(self, tmp_path):
        assert run("verify", "--model", "s3", "--v-range", "-1e-1", "1",
                   "--nu", "12", "--nv", "12", "--out", str(tmp_path),
                   "--report", str(tmp_path / "r.json")) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["grid"]["v_range"] == [-0.1, 1.0]


class TestSignedZeroSpan:
    """A span end of -0 has no run on its side and keeps its sign."""

    @pytest.mark.parametrize("command", ["solve", "profile"])
    @pytest.mark.parametrize("span, plain", [
        (("-0", "1"), ("0", "1")), (("-1", "-0"), ("-1", "0")),
    ])
    def test_bytes_differ_from_a_plain_zero_only_in_its_sign(self, tmp_path, command, span, plain):
        def lines(ends, name):
            out = tmp_path / name
            assert run(command, "--model", "s3", "--k0", "1", "--dk0", "1",
                       "--span", *ends, "--out", str(out)) == 0
            return out.read_bytes().split(b"\n")

        got, want = lines(span, "signed.csv"), lines(plain, "plain.csv")
        if command == "solve":
            # the header names the requested span
            want[0] = want[0].replace(f" span={':'.join(plain)} ".encode(),
                                      f" span={':'.join(span)} ".encode())
        if span[1] == "-0":
            # the last sample sits at u = -0
            assert want[-2].startswith(b"0,")
            want[-2] = b"-" + want[-2]
        assert got == want


class TestProfileCommand:
    def test_r3_profile_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run("profile", "--model", "r3", "--C", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "rho,u"
        first = lines[2].split(",")
        assert float(first[0]) == 1.5

    def test_s3_profile_columns(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run("profile", "--model", "s3", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "u,x1,x2,x3,x4,res_c1,res_c2,res_model,res_speed"
        worst = max(abs(float(r.split(",")[5])) for r in lines[2:])
        assert worst < 1e-6


class TestSweepCommand:
    def test_figure_family_ordering(self, tmp_path):
        code = run("sweep", "--model", "r3", "--values", "1", "1.5", "2",
                   "--nu", "16", "--nv", "16", "--out", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("C,pass")
        assert all(r.split(",")[1] == "1" for r in summary[1:])
        # larger C gives smaller height at the shared radius; the oracle is
        # the closed form itself evaluated at rho = 8
        heights = {}
        for i, C in enumerate((1.0, 1.5, 2.0)):
            rows = (tmp_path / f"run{i:03d}.profile.csv").read_text().splitlines()
            heights[C] = float(rows[-1].split(",")[1])
            root = math.sqrt(C * 4.0 - 1.0)
            closed = (1.5 / C) * (2.0 * root + math.log(2.0 * (2.0 * C + math.sqrt(C) * root)) / math.sqrt(C))
            assert heights[C] == pytest.approx(closed, rel=1e-12)
        assert heights[1.0] > heights[1.5] > heights[2.0]

    def test_curved_models_sweep_initial_curvature(self, tmp_path):
        cfg = PipelineConfig(model="s3", kp0=1.0, nu=12, nv=12)
        result = cmd_sweep(cfg, [0.9, 1.1], tmp_path)
        assert result["pass"]
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header.startswith("k0,")

    def test_failed_entry_recorded_and_sweep_continues(self, tmp_path):
        # C = 0.01 puts the waist radius, 1000, beyond the profile's end: a
        # failure at run time
        cfg = PipelineConfig(model="r3", nu=8, nv=8)
        result = cmd_sweep(cfg, [1.0, 0.01, 2.0], tmp_path)
        status = [r.get("pass") for r in result["runs"]]
        assert status == [True, False, True]
        assert "error" in result["runs"][1]
        assert not result["pass"]

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # only a library failure is a failed rung; a KeyError in the verifier
        # is a bug, and stops the sweep
        def verify_patch(*args, **kwargs):
            raise KeyError("not a library failure")

        monkeypatch.setattr(pipeline, "verify_patch", verify_patch)
        cfg = PipelineConfig(model="r3", nu=8, nv=8)
        with pytest.raises(KeyError, match="not a library failure"):
            cmd_sweep(cfg, [1.0, 2.0], tmp_path)

    @pytest.mark.parametrize("model, values, message", [
        ("s3", [1.0, math.nan], "k0 must be finite"),
        ("s3", [1.0, -1.0], "k0 must be positive"),
        ("r3", [1.0, -1.0], "the profile constant C must be positive"),
        ("s3", [1.0, "x"], "sweep values must be numbers"),
        ("s3", [1.0, None], "sweep values must be numbers"),
        # float() takes these for 1.0 and 1.2, but they are no real numbers
        # to _real, the reader PipelineConfig(k0=...) uses; nor is a bare 1.0
        # a list of values
        ("s3", [True], "sweep values must be numbers"),
        ("s3", [np.bool_(True)], "sweep values must be numbers"),
        ("s3", ["1.2"], "sweep values must be numbers"),
        ("s3", 1.0, "sweep values must be numbers"),
    ])
    def test_unusable_value_rejected_before_output(self, tmp_path, model, values, message):
        out = tmp_path / "out"
        with pytest.raises(bc.UsageError, match=message):
            cmd_sweep(PipelineConfig(model=model, nu=8, nv=8), values, out)
        assert not out.exists()

    def test_cli_unusable_value_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", "--model", "s3", "--values", "nan", "1", "--out", str(out)) == 2
        assert "k0 must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_values_rejected(self, tmp_path):
        cfg = PipelineConfig(model="r3")
        with pytest.raises(bc.UsageError):
            cmd_sweep(cfg, [], tmp_path)


class TestDeterminism:
    def test_solve_bit_identical(self, tmp_path):
        cfg = PipelineConfig(model="s3")
        a = cmd_solve(cfg, tmp_path / "a.csv")
        b = cmd_solve(cfg, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_surface_outputs_bit_identical(self, tmp_path):
        cfg = PipelineConfig(model="h3", k0=0.25, kp0=0.2, nu=16, nv=16)
        cmd_surface(cfg, tmp_path / "one")
        cmd_surface(cfg, tmp_path / "two")
        for name in ("surface.report.json", "surface.obj", "surface.ply",
                     "surface.obj.channels.csv"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()


class TestImportHygiene:
    """The library, its pipelines and the demos run where scipy cannot be imported."""

    BLOCK_SCIPY = """
import importlib.abc
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was not blocked")
"""

    SCRIPT = BLOCK_SCIPY + """
from pathlib import Path

import biconsurf
from biconsurf.pipeline import PipelineConfig, cmd_profile, cmd_solve, cmd_surface

out = Path(sys.argv[1])
for name, fields in [
    ("s3", dict(model="s3", k0=1.0, kp0=1.0)),
    ("h3e", dict(model="h3", k0=1.0, kp0=1.0)),
    ("h3p", dict(model="h3", k0=0.25, kp0=0.2)),
    ("r3", dict(model="r3")),
]:
    cfg = PipelineConfig(nu=8, nv=8, **fields)
    cmd_solve(cfg, out / name / "solve.csv")
    cmd_profile(cfg, out / name / "profile.csv")
    cmd_surface(cfg, out / name)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

    DEMO = BLOCK_SCIPY + """
import runpy

runpy.run_path(sys.argv[1], run_name="__main__")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

    PACKAGE = Path(bc.__file__).resolve().parent
    DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))

    def _run_blocked(self, script, arg):
        """Run ``script`` with ``arg`` in a fresh interpreter that cannot import scipy."""
        env = dict(os.environ, PYTHONPATH=str(self.PACKAGE.parent))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", script, str(arg)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_pipelines_run_without_scipy(self, tmp_path):
        # the pipelines print nothing but the list of loaded scipy modules
        assert self._run_blocked(self.SCRIPT, tmp_path).strip() == "[]"
        for name in ("s3", "h3e", "h3p", "r3"):
            for file in ("solve.csv", "profile.csv", "surface.obj", "surface.report.json"):
                assert (tmp_path / name / file).stat().st_size > 0

    def test_no_module_imports_scipy(self):
        # every import statement, also those inside functions or under TYPE_CHECKING
        found = []
        for path in sorted(self.PACKAGE.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
    def test_demo_runs_without_scipy(self, tmp_path, demo):
        # a copy writes its output/ next to itself, under tmp_path
        script = tmp_path / demo.name
        shutil.copy(demo, script)
        # the demos print a narrative; the list of scipy modules comes last
        assert self._run_blocked(self.DEMO, script).splitlines()[-1] == "[]"
