"""Pipeline orchestration: initial data to CSV, meshes and reports.

Every pipeline is a pure function of its configuration: no clocks, no
randomness, fixed field orderings and 17-significant-digit floats, so
repeated runs produce byte-identical outputs.  The curved pipelines
integrate the curvature ODE once per build, over the requested span,
jointly with the profile's chart angle.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import defaults
from .curvature import _conserved_constant, _span, solve_curvature
from .errors import GeometryError, UsageError, _pair, _real
from .families import Family, model_rows, resolve, select
from .mesh import (
    _PROJECTIONS,
    _cells_text,
    _chart_dimension,
    _float_cells,
    _grid_mesh,
    _sidecar_path,
    _write_blocks,
    sample_mesh,  # noqa: F401  (perfbench/bench_trace.py wraps pipeline.sample_mesh)
    write_obj,
    write_ply,
)
from .profile import reconstruct_profile, revolution_profile
# the curved builders are called through this module's namespace, by the
# names their family rows give, so a caller may wrap them here
from .surfaces import _grid_size, _v_range, build_h3, build_r3_revolution, build_s3  # noqa: F401
from .verify import verify_patch

__all__ = ["PipelineConfig", "cmd_solve", "cmd_profile", "cmd_surface", "cmd_sweep"]

_FMT = "{:.17g}"


def _fmt(x) -> str:
    return _FMT.format(float(x))


def _write_lines(path, lines, table=None) -> str:
    """Write ``lines``, then the float ``table`` (if any) as ``%.17g`` CSV rows."""
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        if table is not None:
            cells = _float_cells(table)
            _write_blocks(fh, len(cells), lambda b: _cells_text(cells[b], ","))
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
        rows = model_rows(self.model, self.branch)
        if self.projection not in _PROJECTIONS:
            raise UsageError(f"unknown projection '{self.projection}'")
        _chart_dimension(self.projection, rows[0].space.ambient.dim, f"model {self.model}")
        select(rows, self.branch)
        # the closed-form r3 family reads C and rho_range, the others k0 and span
        if self.model == "r3":
            if self.C <= 0:
                raise UsageError("the profile constant C must be positive")
            if not self.rho_range[0] < self.rho_range[1]:
                raise UsageError(f"rho_range must increase, got {self.rho_range!r}")
        else:
            if self.k0 <= 0:
                raise UsageError("k0 must be positive")
            _span(self.span)
        _grid_size(self.nu, self.nv)
        n = self.n_csv
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise UsageError(f"n_csv must be an integer >= 2, got {n!r}")
        if self.v_range is not None:
            _v_range(self.v_range)
        return self

    @property
    def c(self) -> int:
        return model_rows(self.model)[0].space.c

    def _family(self) -> Family:
        """The family row of the run; on h3 the sign of C picks it."""
        return resolve(self.model, self.branch,
                       lambda c: _conserved_constant(c, self.k0, self.kp0))


def build_pipeline_patch(cfg: PipelineConfig):
    """Run initial data through profile reconstruction to a patch.

    Returns ``(patch, sol)``; ``sol`` is None for r3.  A curved build
    integrates the ODE once, in ``reconstruct_profile`` over the requested
    span: (k, k') run jointly with the profile's chart angle, and ``sol``
    is the record of that run (``patch.profile.curvature``).  The patch's
    rectangle is the span the run covered.
    """
    cfg = cfg.validate()
    family = cfg._family()
    v_range = family.v_range if cfg.v_range is None else tuple(cfg.v_range)
    if cfg.model == "r3":
        prof = revolution_profile(cfg.C, cfg.rho_range[1])
        return build_r3_revolution(prof, (prof.t_of_rho(cfg.rho_range), v_range)), None

    prof = reconstruct_profile(family.branch, cfg.k0, cfg.kp0, cfg.span,
                               rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)
    patch = globals()[family.builder](prof, v_range)
    return patch, prof.curvature


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: PipelineConfig, out) -> dict:
    """Integrate the curvature ODE and emit (u, k, k', C drift) as CSV.  An
    explicit ``branch`` must admit the sign of C; "auto" solves every C."""
    cfg = cfg.validate()
    if cfg.branch != "auto":
        cfg._family()
    out = _output_file(out)
    sol = solve_curvature(
        cfg.c, cfg.k0, cfg.kp0, tuple(cfg.span),
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
    )
    grid = np.linspace(sol.span[0], sol.span[1], cfg.n_csv)
    st = sol.state(grid)
    drift = sol._drift(st)
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
        "boundary_events": sol.boundary_events,
        "ok": bool(ok),
    }


def cmd_profile(cfg: PipelineConfig, out) -> dict:
    """Emit the profile curve as CSV (closed form for r3, the polar chart else).
    The family is resolved before the output file's directory is made."""
    cfg = cfg.validate()
    cfg._family()
    out = _output_file(out)
    if cfg.model == "r3":
        prof = revolution_profile(cfg.C, cfg.rho_range[1])
        rho = np.linspace(cfg.rho_range[0], cfg.rho_range[1], cfg.n_csv)
        u = prof.u_of_rho(rho)
        lines = [f"# model=r3 C={_fmt(cfg.C)}", "rho,u"]
        return {"csv": _write_lines(out, lines, [rho, u]), "boundary_events": [], "ok": True}

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
    return {"csv": path, "worst_residual": worst, "boundary_events": sol.boundary_events,
            "ok": bool(ok)}


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
    """Full pipeline: build, verify, export meshes and the JSON report.  The
    family is resolved before the output directory is made.  The result's
    ``boundary_events`` are the early stops of the build's run (none on
    r3), so a truncated build, which is verified out to its stop, says so."""
    cfg = cfg.validate()
    cfg._family()
    out_dir = _output_dir(out_dir)
    target = _output_file(report_path or out_dir / f"{basename}.report.json")
    obj, ply = out_dir / f"{basename}.obj", out_dir / f"{basename}.ply"
    if write_meshes:
        for path in (obj, _sidecar_path(obj), ply):
            _output_file(path)
    patch, sol = build_pipeline_patch(cfg)
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
        "boundary_events": [] if sol is None else sol.boundary_events,
    }


def cmd_sweep(cfg: PipelineConfig, values, out_dir) -> dict:
    """One pipeline per parameter value, plus a summary CSV.

    For r3 the swept parameter is the profile constant C (also emitting the
    u(rho) curve per value); for s3/h3 it is k0.  Each value is read as a
    real number (``_real``); one that is not, or that makes an invalid
    configuration, is a UsageError raised before anything is written.  A
    GeometryError at run time is recorded and the sweep continues, a branch
    that contradicts the sign of C among them.
    """
    cfg = cfg.validate()
    try:
        values = [_real(value, "each value") for value in values]
    except (TypeError, UsageError) as exc:
        raise UsageError(f"sweep values must be numbers ({exc})") from None
    if not values:
        raise UsageError("sweep needs a nonempty list of parameter values")
    closed_form = cfg.model == "r3"
    parameter = "C" if closed_form else "k0"
    runs = [dataclasses.replace(cfg, **{parameter: value}).validate() for value in values]
    out_dir = _output_dir(out_dir)

    rows = []
    results = []
    for i, (value, run) in enumerate(zip(values, runs)):
        tag = f"run{i:03d}"
        entry = {"value": value, "tag": tag}
        try:
            if closed_form:
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
