"""Seeded workload inputs, one operation each, and the fail-closed output checks.

An operation is one ``cmd_surface`` call, one sweep value (``cmd_sweep`` over a
single value) or one ``cmd_solve`` + ``cmd_profile`` pair.  A round is the
fixed list of operations a workload runs.  Round 0 runs the nominal rungs:
they are the reference inputs of the determinism repeat, the worst headroom
and the per-layer counts, because the residuals (the h3 drift above all) move
far more than the inputs do.  Every later round draws fresh values from
``(workload, seed, round)`` by jittering the rungs a little, so the same seed
gives the same inputs, no round repeats another (a cache across calls gains
nothing) and every round keeps the same branches, spans and pass/fail outcomes.

The checks read the files each operation wrote.  An operation counts as failed
unless the program reported success, every residual its tolerance profile
names was evaluated (count > 0, finite max, within tolerance), the report JSON
parses with NaN/Infinity rejected, every CSV/mesh value is finite and the
solve/profile ``ok`` flags hold.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from biconsurf import defaults, pipeline
from biconsurf.curvature import prime_constant
from biconsurf.pipeline import PipelineConfig

# nominal initial data per case; "branch" is the branch the draw must land on
CASES = {
    "s3": {"model": "s3", "k0": 1.0, "kp0": 1.0},
    "h3-elliptic": {"model": "h3", "branch": "elliptic", "k0": 1.0, "kp0": 1.0},
    "h3-parabolic": {"model": "h3", "branch": "parabolic", "k0": 0.25, "kp0": 0.2},
    "r3": {"model": "r3", "C": 1.0},
}
# order inside a round; a curved case first, so the warm-up repeat covers an ODE
CASE_ORDER = ("s3", "h3-elliptic", "h3-parabolic", "r3")
CURVED = CASE_ORDER[:3]
_SIGN = {"s3": 1.0, "h3-elliptic": 1.0, "h3-parabolic": -1.0}
_MODEL_C = {"s3": 1, "h3": -1}

# sweep rungs: C for r3, k0 for the others (k'0 stays at the case's value).
# s3 at k0 = 0.6 fails the pde tolerance today and exercises failure counting.
SWEEP_RUNGS = {
    "s3": (0.6, 0.9, 1.15),
    "h3-elliptic": (0.7, 0.95, 1.2),
    "h3-parabolic": (0.22, 0.24, 0.26),
    "r3": (1.0, 1.6, 2.4),
}
# profile-long half-widths, jittered at the nominal initial data: several
# turning points on s3; h3 breaks the drift contract beyond about +-4 today,
# and those failures count
PROFILE_HALF_WIDTHS = (4.0, 6.0, 8.0, 10.0)

WORKLOADS = {
    "surface-128": "cmd_surface with meshes and report, r3/s3/h3-elliptic/h3-parabolic at 128x128",
    "sweep-64": "cmd_sweep, three values per model at 64x64, no meshes",
    "profile-long": "cmd_solve + cmd_profile over spans +-4 to +-10 with CSV output",
}
# relative half-width of the seeded jitter around each rung (rounds >= 1)
JITTER = {"surface-128": 0.02, "sweep-64": 0.005, "profile-long": 0.002}


@dataclass(frozen=True)
class Op:
    """One operation: its kind (surface | sweep | solve_profile) and inputs."""

    kind: str
    case: str
    params: dict

    def config(self) -> PipelineConfig:
        params = dict(self.params)
        params.pop("value", None)
        return PipelineConfig(**params)

    def describe(self) -> str:
        shown = {k: v for k, v in self.params.items() if k not in ("model", "branch", "value")}
        return f"{self.kind}:{self.case} " + " ".join(
            f"{k}={v!r}" if not isinstance(v, float) else f"{k}={v:.17g}"
            for k, v in sorted(shown.items())
        )


@dataclass
class OpResult:
    """Outcome of one operation as judged by the checks.

    ``seconds`` is wall time; ``cpu_seconds`` is the CPU time of this process
    over the same interval, which leaves out the time the VM's CPU was taken
    by other guests (steal); ``reference`` is the mean CPU time of the
    benchmark's reference computation just before and after the operation.
    """

    op: Op
    seconds: float
    failed: bool
    problems: list
    headroom: float | None
    points: int
    digests: dict = field(default_factory=dict)
    claimed_pass: bool = False
    cpu_seconds: float = 0.0
    reference: float = 0.0

    @property
    def wrong_claim(self) -> bool:
        """The program claimed success but its outputs fail the checks."""
        return self.claimed_pass and self.failed


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _jitter(rng: random.Random, rung: float, rel: float) -> float:
    return rung * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _draw_case(rng: random.Random, case: str, rel: float, rung: float | None = None) -> dict:
    """Jittered parameters of one case; curved draws must keep the branch sign."""
    params = dict(CASES[case])
    key = "C" if case == "r3" else "k0"
    base = params[key] if rung is None else rung
    for _ in range(100):
        params[key] = _jitter(rng, base, rel)
        if case == "r3":
            return params
        C = float(prime_constant(params["k0"], params["kp0"], _MODEL_C[params["model"]]))
        if C * _SIGN[case] > 0:
            return params
    raise ValueError(f"no draw around {base} lands on the {case} branch")


def draw_round(workload: str, seed: int, rnd: int) -> list:
    """The operations of round ``rnd``; a pure function of its arguments.

    Round 0 is the nominal rungs for every seed; later rounds jitter them.
    """
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    rel = JITTER[workload] if rnd else 0.0
    if workload == "surface-128":
        return [
            Op("surface", case, {**_draw_case(rng, case, rel), "nu": 128, "nv": 128})
            for case in CASE_ORDER
        ]
    if workload == "sweep-64":
        ops = []
        for i in range(len(SWEEP_RUNGS["s3"])):
            for case in CASE_ORDER:
                params = _draw_case(rng, case, rel, SWEEP_RUNGS[case][i])
                params["value"] = params["C"] if case == "r3" else params["k0"]
                ops.append(Op("sweep", case, {**params, "nu": 64, "nv": 64}))
        return ops
    if workload == "profile-long":
        ops = []
        for half in PROFILE_HALF_WIDTHS:
            for case in CURVED:
                L = _jitter(rng, half, rel)
                ops.append(Op("solve_profile", case, {**CASES[case], "span": (-L, L)}))
        return ops
    raise ValueError(f"unknown workload '{workload}'")


# ---------------------------------------------------------------------------
# strict readers
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_report(path) -> dict:
    """Parse a report, refusing NaN/Infinity (json accepts them by default)."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def report_problems(report: dict) -> tuple[list, float | None]:
    """Fail-closed reading of one verification report: (problems, headroom).

    Headroom is the worst residual max / tolerance over the residuals the
    report's tolerance profile names (the relative bitension floor excluded).
    """
    problems = []
    worst = None
    if report.get("pass") is not True:
        problems.append("report did not pass")
    tolerances = report.get("tolerances") or {}
    residuals = report.get("residuals") or {}
    required = [n for n in tolerances if n != "normal_bitension_min"]
    if not required:
        problems.append("tolerance profile names no residuals")
    for name in required:
        entry = residuals.get(name) or {}
        count, peak = entry.get("count", 0), entry.get("max")
        if not (isinstance(count, int) and count > 0 and _finite(peak)):
            problems.append(f"residual {name} not evaluated (count={count}, max={peak})")
            continue
        ratio = peak / tolerances[name]
        worst = ratio if worst is None else max(worst, ratio)
        if ratio > 1.0:
            problems.append(f"residual {name} {peak:.3g} over tolerance {tolerances[name]:.3g}")
    return problems, worst


def read_csv(path, n_cols: int) -> list:
    """Data rows of a pipeline CSV as floats; raises on a malformed or non-finite row.

    ``#`` lines are comments and the first other line is the header.
    """
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    rows = []
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        if len(cells) != n_cols or not all(math.isfinite(x) for x in cells):
            raise ValueError(f"bad row in {Path(path).name}: {line[:80]}")
        rows.append(cells)
    return rows


def mesh_problems(out: Path, basename: str, nu: int, nv: int) -> list:
    """Vertex/face counts and finiteness of the OBJ, its channel CSV and the PLY."""
    problems = []
    n_vert, n_face = nu * nv, (nu - 1) * (nv - 1)
    obj = (out / f"{basename}.obj").read_bytes()
    ply = (out / f"{basename}.ply").read_bytes()
    channels = (out / f"{basename}.obj.channels.csv").read_bytes()
    for name, data in (("obj", obj), ("ply", ply), ("channels", channels)):
        low = data.lower()
        if b"nan" in low or b"inf" in low:
            problems.append(f"{name} holds non-finite values")
    if obj.count(b"\nv ") + obj.startswith(b"v ") != n_vert or obj.count(b"\nf ") != n_face:
        problems.append("obj vertex/face count mismatch")
    if f"element vertex {n_vert}\n".encode() not in ply or f"element face {n_face}\n".encode() not in ply:
        problems.append("ply header count mismatch")
    if channels.count(b"\n") != n_vert + 1:
        problems.append("channel CSV row count mismatch")
    return problems


def digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _call(op: Op, out: Path):
    cfg = op.config()
    if op.kind == "surface":
        return pipeline.cmd_surface(cfg, out)
    if op.kind == "sweep":
        return pipeline.cmd_sweep(cfg, [op.params["value"]], out)
    if op.kind == "solve_profile":
        return (
            pipeline.cmd_solve(cfg, out / "solve.csv"),
            pipeline.cmd_profile(cfg, out / "profile.csv"),
        )
    raise ValueError(f"unknown operation kind '{op.kind}'")


def _check_surface(op: Op, result, out: Path):
    report = load_report(out / "surface.report.json")
    problems, headroom = report_problems(report)
    problems += mesh_problems(out, "surface", op.params["nu"], op.params["nv"])
    return problems, headroom, op.params["nu"] * op.params["nv"]


def _check_sweep(op: Op, result, out: Path):
    run = result["runs"][0]
    problems = [f"sweep error: {run['error']}"] if "error" in run else []
    rows = (out / "summary.csv").read_text().splitlines()
    if len(rows) != 2 or rows[1].split(",")[1] != ("1" if result["pass"] else "0"):
        problems.append("summary row disagrees with the returned verdict")
    if op.case == "r3" and "error" not in run:
        if len(read_csv(out / "run000.profile.csv", 2)) != op.config().n_csv:
            problems.append("profile CSV row count mismatch")
    report_path = out / "run000.report.json"
    if not report_path.exists():
        return problems + ["no report written"], None, 0
    more, headroom = report_problems(load_report(report_path))
    return problems + more, headroom, op.params["nu"] * op.params["nv"]


def _check_solve_profile(op: Op, result, out: Path):
    solved, profiled = result
    cfg = op.config()
    problems = []
    if not solved["ok"]:
        problems.append("solve not ok")
    if not profiled["ok"]:
        problems.append("profile not ok")
    k_rows = read_csv(out / "solve.csv", 4)
    p_rows = read_csv(out / "profile.csv", 9)
    if len(k_rows) != cfg.n_csv or len(p_rows) != cfg.n_csv:
        problems.append("CSV row count mismatch")
    drift_tol = 100.0 * cfg.rel_tol * max(1.0, abs(solved["C"]))
    headroom = max(
        max(abs(r[3]) for r in k_rows) / drift_tol,
        max(max(abs(r[5]), abs(r[6])) for r in p_rows) / defaults.CONSTRAINT_TOL,
        max(max(abs(r[7]), abs(r[8])) for r in p_rows) / defaults.MEMBERSHIP_TOL,
    )
    if headroom > 1.0:
        problems.append(f"drift/constraint headroom {headroom:.3g} over 1")
    return problems, headroom, len(k_rows) + len(p_rows)


# (what the program claimed, the checks of its files) per operation kind
_CHECKS = {
    "surface": (lambda r: r["pass"], _check_surface),
    "sweep": (lambda r: r["pass"], _check_sweep),
    "solve_profile": (lambda r: r[0]["ok"] and r[1]["ok"], _check_solve_profile),
}


def run_op(op: Op, out: Path) -> OpResult:
    """Run one operation into a fresh directory, time it, then check its files."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = _call(op, out)
    except Exception as exc:  # a raising operation is a counted failure
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
        return OpResult(op, seconds, True, [f"{type(exc).__name__}: {exc}"], None, 0,
                        digests(out), cpu_seconds=cpu)
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    claim, check = _CHECKS[op.kind]
    try:
        problems, headroom, points = check(op, result, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems, headroom, points = [f"unreadable output: {exc}"], None, 0
    return OpResult(op, seconds, bool(problems), problems, headroom, points,
                    digests(out), bool(claim(result)), cpu)
