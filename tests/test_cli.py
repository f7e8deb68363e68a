import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from biconsurf import pipeline
from biconsurf.cli import main
from biconsurf.pipeline import PipelineConfig, cmd_solve, cmd_surface, cmd_sweep

import biconsurf as bc


def run(*argv):
    return main(list(argv))


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
        assert cfg.resolved_branch().value == "h2_parabolic"

    def test_explicit_branch_checked_against_constant_sign(self):
        ok = PipelineConfig(model="h3", branch="parabolic", k0=0.25, kp0=0.2)
        assert ok.resolved_branch() is bc.Branch.H2_PARABOLIC
        bad = PipelineConfig(model="h3", branch="elliptic", k0=0.25, kp0=0.2)
        with pytest.raises(bc.UsageError, match="contradicts the sign"):
            bad.resolved_branch()

    def test_drift_column_small(self, tmp_path):
        out = tmp_path / "s.csv"
        run("solve", "--model", "s3", "--out", str(out))
        rows = out.read_text().splitlines()[2:]
        drifts = [abs(float(r.split(",")[3])) for r in rows]
        assert max(drifts) < 1e-8

    def test_invalid_initial_data_is_usage_error(self, tmp_path):
        assert run("solve", "--model", "s3", "--k0=-1.0",
                   "--out", str(tmp_path / "x.csv")) == 2


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

    def test_s3_verify_passes(self, tmp_path):
        code = run("verify", "--model", "s3", "--nu", "24", "--nv", "24",
                   "--out", str(tmp_path), "--report", str(tmp_path / "r.json"))
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["case"] == "s3" and report["pass"] is True
        assert not (tmp_path / "surface.obj").exists()

    def test_branch_model_conflict_is_config_error(self, tmp_path):
        assert run("surface", "--model", "s3", "--branch", "parabolic",
                   "--out", str(tmp_path)) == 2

    def test_branch_sign_conflict_is_config_error(self, tmp_path):
        # (k0, kp0) = (1, 1) gives C > 0, contradicting the parabolic branch
        assert run("surface", "--model", "h3", "--branch", "parabolic",
                   "--k0", "1", "--dk0", "1", "--out", str(tmp_path)) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        # rho range reaching below the waist radius is a numerical domain error
        assert run("surface", "--model", "r3", "--C", "1",
                   "--rho-range", "0.5", "8", "--out", str(tmp_path)) == 3

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
        ({"fd_step": True}, "fd_step"),
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


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, field", [
        (["solve", "--model", "s3", "--k0", "nan"], "k0"),
        (["solve", "--model", "s3", "--k0", "inf"], "k0"),
        (["solve", "--model", "h3", "--dk0", "nan"], "kp0"),
        (["solve", "--model", "s3", "--span", "-1", "nan"], "span"),
        (["profile", "--model", "r3", "--C", "nan"], "C"),
        (["profile", "--model", "r3", "--rho-range", "1", "inf"], "rho_range"),
        (["surface", "--model", "s3", "--v-range", "0", "inf"], "v_range"),
        (["surface", "--model", "s3", "--fd-step", "nan"], "fd_step"),
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

    @pytest.mark.parametrize("argv, message", [
        (["surface", "--model", "s3", "--fd-step", "0"], "fd_step must be positive"),
        (["surface", "--model", "s3", "--fd-step", "-0.001"], "fd_step must be positive"),
        (["surface", "--model", "s3", "--v-range", "0", "0"], "v_range must have nonzero width"),
    ])
    def test_cli_exits_two_on_unusable_value(self, tmp_path, capsys, argv, message):
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

    @pytest.mark.parametrize("model, parameter", [
        ("s3", "C"), ("h3", "C"), ("s3", "k1"), ("r3", "k0"), ("r3", "kp0"), ("s3", "nu"),
    ])
    def test_unsweepable_parameter_rejected_before_output(self, tmp_path, model, parameter):
        out = tmp_path / "out"
        with pytest.raises(bc.UsageError, match=f"cannot sweep '{parameter}'"):
            cmd_sweep(PipelineConfig(model=model, nu=8, nv=8), [0.9, 1.1], out,
                      parameter=parameter)
        assert not out.exists()

    def test_initial_slope_sweep(self, tmp_path):
        cfg = PipelineConfig(model="s3", nu=12, nv=12)
        result = cmd_sweep(cfg, [0.9, 1.1], tmp_path, parameter="kp0")
        assert result["pass"]
        gauss = [run["max_gauss"] for run in result["runs"]]
        assert gauss[0] != gauss[1]
        assert (tmp_path / "summary.csv").read_text().startswith("kp0,")

    @pytest.mark.parametrize("model, values, message", [
        ("s3", [1.0, math.nan], "k0 must be finite"),
        ("s3", [1.0, -1.0], "k0 must be positive"),
        ("r3", [1.0, -1.0], "the profile constant C must be positive"),
        ("s3", [1.0, "x"], "sweep values must be numbers"),
        ("s3", [1.0, None], "sweep values must be numbers"),
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
    """The library and its pipelines run where scipy cannot be imported."""

    SCRIPT = """
import importlib.abc
import sys
from pathlib import Path


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

    def test_pipelines_run_without_scipy(self, tmp_path):
        src = str(Path(bc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
        for name in ("s3", "h3e", "h3p", "r3"):
            for file in ("solve.csv", "profile.csv", "surface.obj", "surface.report.json"):
                assert (tmp_path / name / file).stat().st_size > 0
