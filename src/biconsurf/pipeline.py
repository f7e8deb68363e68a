"""Pipeline orchestration: initial data to CSV, meshes and reports.

Every pipeline is a pure function of its configuration: no clocks, no
randomness, fixed field orderings and 17-significant-digit floats, so
repeated runs produce byte-identical outputs.  The curved pipelines pad the
integration span by the finite-difference reach so the declared parameter
rectangle stays fully verifiable, and integrate the curvature ODE once per
build, jointly with the profile's chart angle.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import defaults
from .curvature import (
    _conserved_constant,
    _span,
    curvature_problem,
    prime_constant,
    solve_curvature,
)
from .errors import GeometryError, UsageError, _pair, _real
from .mesh import (
    _PROJECTIONS,
    _cells_text,
    _chart_dimension,
    _float_cells,
    _grid_mesh,
    _sidecar_path,
    sample_mesh,  # noqa: F401  (perfbench/bench_trace.py wraps pipeline.sample_mesh)
    write_obj,
    write_ply,
)
from .profile import Branch, reconstruct_profile, revolution_profile
from .surfaces import _grid_size, _v_range, build_h3, build_r3_revolution, build_s3
from .verify import fd_scheme, verify_patch

__all__ = ["PipelineConfig", "cmd_solve", "cmd_profile", "cmd_surface", "cmd_sweep"]

_FMT = "{:.17g}"


def _fmt(x) -> str:
    return _FMT.format(float(x))


def _write_lines(path, lines, table=None) -> str:
    """Write ``lines``, then the float ``table`` (if any) as ``%.17g`` CSV rows."""
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        if table is not None:
            fh.write(_cells_text(_float_cells(np.column_stack(table)), ","))
    return str(path)


# numeric fields that must hold finite real numbers, or pairs of them
_FINITE_FIELDS = (
    "k0", "kp0", "C", "span", "rho_range", "v_range", "rel_tol", "abs_tol",
)
_PAIR_FIELDS = ("span", "rho_range", "v_range")
_OPTIONAL_FIELDS = ("v_range",)


@dataclass(frozen=True)
class PipelineConfig:
    """Validated description of one pipeline run."""

    model: str = "s3"                      # r3 | s3 | h3
    branch: str = "auto"                   # auto | elliptic | parabolic
    k0: float = 1.0
    kp0: float = 1.0
    C: float = 1.0                         # r3 profile constant
    rho_range: tuple = defaults.DEFAULT_RHO_RANGE
    span: tuple = defaults.DEFAULT_SPAN
    nu: int = defaults.DEFAULT_GRID
    nv: int = defaults.DEFAULT_GRID
    v_range: tuple | None = None
    rel_tol: float = defaults.PIPELINE_RTOL
    abs_tol: float = defaults.PIPELINE_ATOL
    projection: str = "auto"
    n_csv: int = 512

    def validate(self) -> "PipelineConfig":
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_FIELDS:
                continue
            values = _pair(value, name) if name in _PAIR_FIELDS else (_real(value, name),)
            if not all(map(math.isfinite, values)):
                raise UsageError(f"{name} must be finite, got {value!r}")
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if value <= 0:
                raise UsageError(f"{name} must be positive, got {value!r}")
        if self.model not in ("r3", "s3", "h3"):
            raise UsageError(f"unknown model '{self.model}'")
        if self.branch not in ("auto", "elliptic", "parabolic"):
            raise UsageError(f"unknown branch '{self.branch}'")
        if self.projection not in _PROJECTIONS:
            raise UsageError(f"unknown projection '{self.projection}'")
        _chart_dimension(self.projection, 3 if self.model == "r3" else 4, f"model {self.model}")
        if self.branch == "parabolic" and self.model != "h3":
            raise UsageError("the parabolic branch exists only for model h3")
        if self.branch == "elliptic" and self.model == "r3":
            raise UsageError("branch selection does not apply to model r3")
        if self.model != "r3":
            if self.k0 <= 0:
                raise UsageError("k0 must be positive")
            _span(self.span)
        if self.model == "r3" and self.C <= 0:
            raise UsageError("the profile constant C must be positive")
        if self.model == "r3" and not self.rho_range[0] < self.rho_range[1]:
            raise UsageError(f"rho_range must increase, got {self.rho_range!r}")
        _grid_size(self.nu, self.nv)
        n = self.n_csv
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise UsageError(f"n_csv must be an integer >= 2, got {n!r}")
        if self.v_range is not None:
            _v_range(self.v_range)
        return self

    @property
    def c(self) -> int:
        return {"r3": 0, "s3": 1, "h3": -1}[self.model]

    def resolved_branch(self) -> Branch:
        """The profile branch; an explicit h3 branch must match the sign of C."""
        if self.model == "s3":
            return Branch.S2
        if self.model != "h3":
            raise UsageError("profile branches exist only for s3 and h3")
        C = _conserved_constant(-1, self.k0, self.kp0)
        if C == 0:
            raise UsageError("degenerate initial data: the constant C vanishes")
        auto = Branch.H2_ELLIPTIC if C > 0 else Branch.H2_PARABOLIC
        asked = {"elliptic": Branch.H2_ELLIPTIC, "parabolic": Branch.H2_PARABOLIC}
        if self.branch != "auto" and asked[self.branch] is not auto:
            raise UsageError(
                f"branch '{self.branch}' contradicts the sign of the constant "
                f"of the supplied initial data (auto-resolves to {auto.value})"
            )
        return auto


def _padded_span(cfg: PipelineConfig, v_range) -> tuple:
    """Integration span: the requested one padded by the verifier's FD reach."""
    diag = float(np.hypot(cfg.span[1] - cfg.span[0], v_range[1] - v_range[0]))
    pad = 1.2 * fd_scheme(diag).reach + 0.01
    return (cfg.span[0] - pad, cfg.span[1] + pad)


def _default_v_range(cfg: PipelineConfig, branch: Branch | None) -> tuple:
    if cfg.v_range is not None:
        return tuple(cfg.v_range)
    if branch is Branch.H2_PARABOLIC:
        return defaults.V_PARABOLIC
    return defaults.V_FULL_TURN


def build_pipeline_patch(cfg: PipelineConfig):
    """Run initial data through profile reconstruction to a trimmed patch.

    Returns ``(patch, sol)``; ``sol`` is None for r3.  A curved build
    integrates the ODE once: (k, k') run jointly with the profile's chart
    angle, and ``sol`` is the record of that run
    (``patch.profile.curvature``).
    """
    cfg = cfg.validate()
    if cfg.model == "r3":
        prof = revolution_profile(cfg.C, cfg.rho_range[1] * 1.5)
        rect = (prof.t_of_rho(cfg.rho_range), _default_v_range(cfg, None))
        return build_r3_revolution(prof, rect), None

    branch = cfg.resolved_branch()
    v_range = _default_v_range(cfg, branch)
    problem = curvature_problem(
        cfg.c, cfg.k0, cfg.kp0, _padded_span(cfg, v_range),
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
    )
    prof = reconstruct_profile(problem, branch)
    patch = build_s3(prof, v_range) if cfg.model == "s3" else build_h3(prof, v_range)
    # declare the requested rectangle; the evaluators keep the padded span
    span = (max(cfg.span[0], prof.span[0]), min(cfg.span[1], prof.span[1]))
    patch = dataclasses.replace(patch, u_range=span)
    return patch, prof.curvature


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: PipelineConfig, out) -> dict:
    """Integrate the curvature ODE and emit (u, k, k', C drift) as CSV."""
    cfg = cfg.validate()
    out = _output_file(out)
    sol = solve_curvature(
        cfg.c, cfg.k0, cfg.kp0, tuple(cfg.span),
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
    )
    grid = np.linspace(sol.span[0], sol.span[1], cfg.n_csv)
    st = sol.state(grid)
    drift = prime_constant(st[..., 0], st[..., 1], cfg.c) - sol.C
    lines = [
        f"# model={cfg.model} c={cfg.c} k0={_fmt(cfg.k0)} kp0={_fmt(cfg.kp0)} "
        f"C={_fmt(sol.C)} span={_fmt(sol.span[0])}:{_fmt(sol.span[1])} "
        f"rel_tol={_fmt(sol.rel_tol)}",
        "u,k,kp,C_drift",
    ]
    path = _write_lines(out, lines, [grid, st[:, 0], st[:, 1], drift])
    max_drift = float(np.max(np.abs(drift)))
    ok = max_drift <= 100.0 * sol.rel_tol * max(1.0, abs(sol.C))
    return {
        "csv": path,
        "C": sol.C,
        "max_drift": max_drift,
        "turning_points": sol.turning_points.tolist(),
        "truncated": sol.truncated,
        "ok": bool(ok),
    }


def cmd_profile(cfg: PipelineConfig, out) -> dict:
    """Emit the profile curve as CSV (closed form for r3, the polar chart else)."""
    cfg = cfg.validate()
    out = _output_file(out)
    if cfg.model == "r3":
        prof = revolution_profile(cfg.C, cfg.rho_range[1] * 1.5)
        rho = np.linspace(cfg.rho_range[0], cfg.rho_range[1], cfg.n_csv)
        u = prof.u_of_rho(rho)
        lines = [f"# model=r3 C={_fmt(cfg.C)}", "rho,u"]
        return {"csv": _write_lines(out, lines, [rho, u]), "ok": True}

    patch, sol = build_pipeline_patch(cfg)
    prof = patch.profile
    grid = np.linspace(patch.u_range[0], patch.u_range[1], cfg.n_csv)
    st = prof.state(grid)
    sig = st[..., 2:6]
    res = prof._constraint_residuals(st)
    lines = [
        f"# model={cfg.model} branch={prof.branch.value} C={_fmt(prof.C)} "
        f"k0={_fmt(cfg.k0)} kp0={_fmt(cfg.kp0)}",
        "u,x1,x2,x3,x4,res_c1,res_c2,res_model,res_speed",
    ]
    names = ("constraint_c1", "constraint_c2", "model_membership", "unit_speed")
    path = _write_lines(out, lines, [grid, sig] + [res[name] for name in names])
    worst = max(float(np.max(np.abs(r))) for r in res.values())
    ok = (
        float(np.max(np.abs(res["constraint_c1"]))) <= defaults.CONSTRAINT_TOL
        and float(np.max(np.abs(res["constraint_c2"]))) <= defaults.CONSTRAINT_TOL
        and float(np.max(np.abs(res["model_membership"]))) <= defaults.MEMBERSHIP_TOL
        and float(np.max(np.abs(res["unit_speed"]))) <= defaults.MEMBERSHIP_TOL
    )
    return {"csv": path, "worst_residual": worst, "ok": bool(ok)}


def _output_dir(path) -> Path:
    """``path`` as an existing directory, created if needed.

    A path that cannot be a directory (an existing file, say) is a
    UsageError, raised before any work is done.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(
            f"cannot use '{out}' as an output directory: {exc.strerror or exc}"
        ) from exc
    return out


def _output_file(path) -> Path:
    """``path`` as a file to write, its directory created if needed.

    A path naming an existing directory, or under one that cannot be made,
    is a UsageError, raised before any work is done.
    """
    path = Path(path)
    if path.is_dir():
        raise UsageError(f"cannot write '{path}': it is a directory")
    _output_dir(path.parent)
    return path


def cmd_surface(
    cfg: PipelineConfig,
    out_dir,
    basename: str = "surface",
    write_meshes: bool = True,
    report_path=None,
) -> dict:
    """Full pipeline: build, verify, export meshes and the JSON report."""
    cfg = cfg.validate()
    out_dir = _output_dir(out_dir)
    target = _output_file(report_path or out_dir / f"{basename}.report.json")
    obj, ply = out_dir / f"{basename}.obj", out_dir / f"{basename}.ply"
    if write_meshes:
        for path in (obj, _sidecar_path(obj), ply):
            _output_file(path)
    patch, _ = build_pipeline_patch(cfg)
    report = verify_patch(patch, cfg.nu, cfg.nv)

    written = {}
    if write_meshes:
        channels = {
            "f": report.fields["f"],
            "K": report.fields["K"],
            "residual": report.fields["biconservative"],
        }
        # the mesh of the verified grid's points, so channels align with vertices
        mesh = _grid_mesh(patch.case, report.grid_X, cfg.projection, channels)
        written["obj"] = write_obj(mesh, obj)
        written["ply"] = write_ply(mesh, ply)
    saved = report.save(target)
    return {
        "report": saved,
        "written": written,
        "pass": report.passed,
        "case": report.case,
        "residuals": report.residuals,
    }


def cmd_sweep(cfg: PipelineConfig, values, out_dir, parameter: str = "auto") -> dict:
    """One pipeline per parameter value, plus a summary CSV.

    For r3 the swept parameter is the profile constant C (also emitting the
    u(rho) curve per value); for s3/h3 it is k0, or kp0 if asked.  Any other
    parameter is a UsageError, as is a value that makes an invalid
    configuration, both raised before anything is written.  A GeometryError
    at run time is recorded and the sweep continues.
    """
    cfg = cfg.validate()
    try:
        values = [float(value) for value in values]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"sweep values must be numbers ({exc})") from None
    if not values:
        raise UsageError("sweep needs a nonempty list of parameter values")
    swept = ("C",) if cfg.model == "r3" else ("k0", "kp0")
    parameter = swept[0] if parameter == "auto" else parameter
    if parameter not in swept:
        raise UsageError(f"cannot sweep '{parameter}' for model {cfg.model}; "
                         f"choose 'auto' or {' or '.join(swept)}")
    runs = [dataclasses.replace(cfg, **{parameter: value}).validate() for value in values]
    out_dir = _output_dir(out_dir)

    rows = []
    results = []
    for i, (value, run) in enumerate(zip(values, runs)):
        tag = f"run{i:03d}"
        entry = {"value": value, "tag": tag}
        try:
            if cfg.model == "r3":
                prof_out = cmd_profile(run, out_dir / f"{tag}.profile.csv")
                entry["profile_csv"] = prof_out["csv"]
            surf = cmd_surface(run, out_dir, basename=tag, write_meshes=False)
            entry["pass"] = surf["pass"]
            entry["max_biconservative"] = surf["residuals"]["biconservative"]["max"]
            entry["max_gauss"] = surf["residuals"]["gauss_identity"]["max"]
        except GeometryError as exc:  # keep sweeping; record the failure
            entry["pass"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)
        rows.append(
            ",".join(
                [
                    _fmt(value),
                    "1" if entry.get("pass") else "0",
                    _fmt(entry.get("max_biconservative", float("nan"))),
                    _fmt(entry.get("max_gauss", float("nan"))),
                    entry.get("error", "").replace(",", ";"),
                ]
            )
        )
    header = f"{parameter},pass,max_biconservative,max_gauss,error"
    summary = _write_lines(out_dir / "summary.csv", [header] + rows)
    return {
        "summary": summary,
        "runs": results,
        "pass": all(r.get("pass") for r in results),
    }
