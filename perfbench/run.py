"""End-to-end and per-layer benchmark of the biconsurf pipelines.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surface-128 --seed 1 --seconds 28 --trace 0

One single-threaded process runs whole rounds of seeded operations (see
bench_ops) through the public ``pipeline.cmd_*`` functions for about
``--seconds`` (a round starts only if half the last round's time is still
left), checks every output fail-closed, and prints the metrics by name and
unit, then one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
even rounds run with the layer hooks of bench_trace installed and odd rounds
without, and the metrics are the per-layer ones plus the tracing overhead.

Host speed.  The benchmark runs on shared VMs: the hypervisor takes the CPU
away in bursts (steal), and the speed of the CPU it gives drifts by up to 2x
over minutes, for this program and any other CPU-bound code alike.  So the
end-to-end times are CPU seconds of this single-threaded process, which leave
out steal, and they are put in reference seconds: a fixed computation
(``reference_work``: interpreter loop, numpy over a few MB and a scipy DOP853
solve with a Python right-hand side, about 20 ms, no biconsurf code) is timed
just before and just after every operation, and each operation's CPU seconds
are multiplied by ``REF_S / (mean CPU seconds of those reference samples)``,
i.e. reported as the time it would have taken on a host where the reference
takes ``REF_S``.  The host switches between speeds every few seconds, so the
pairing is per operation; each set-up sample is paired in the same way with
reference samples taken in its own interpreter right after the import.  A
change to the program scales these times as it scales its own time; the wall
times and the reference mean are printed as comments and kept in the record.
The reference follows the drift only in part (measured on a shared 2-vCPU
Xeon VM, the operations move about 0.7-0.9 times as much as it does), so the
scaled times still spread.

End-to-end metrics (untraced rounds; times in reference seconds):
  setup_s         median time of ``import biconsurf`` in 5 fresh interpreters
  op_p50_s        median seconds of one operation (n stated in the output)
  op_p90_s        90th percentile of the same samples
  ops_per_s       attempted operations per second of operation time
  points_per_s    verified grid points (nu*nv) per second; on profile-long,
                  CSV sample rows written per second
  pass_ratio      1 - fail_ratio, over every attempted operation
  worst_headroom  max over round 0's operations of residual/tolerance
  peak_rss_mb     peak resident memory of this process

Where a layer's saving should show (op_p50_s, points_per_s): verify,
surfaces, profile dense output and ambient (curved cases only; r3 takes the
3D cross product) on surface-128 and sweep-64, never on profile-long;
curvature, profile reconstruction and pipeline self time (CSV formatting)
on profile-long first, sweep-64 a little; mesh on surface-128 only.

Round 0 runs the nominal inputs (see bench_ops), so worst_headroom and the
per-layer counts, which are those of round 0 (traced), do not depend on the
seed and repeat exactly; per-layer times are wall seconds per traced round.

Outputs, the run record and the spans go to perfbench/_work/.  The run fails
(exit 2, no result line) when the checkout holds no src/biconsurf.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_SAMPLES = 5
# reference seconds: times are scaled as if reference_work() took REF_S
REF_S = 0.02
# one more reference sample per this many seconds of the operation before
REF_EVERY_S = 0.5

END_TO_END = {
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "points_per_s": "1/s",
    "pass_ratio": "ratio",
    "worst_headroom": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "verify.verify_s": "s",
    "verify.self_s": "s",
    "verify.points_per_s": "1/s",
    "verify.evals_per_point": "ratio",
    "verify.residual_coverage": "ratio",
    "surfaces.uline_calls": "count",
    "surfaces.uline_points": "count",
    "surfaces.uline_s": "s",
    "surfaces.at_calls": "count",
    "surfaces.at_points": "count",
    "surfaces.at_s": "s",
    "ambient.cofactor_s": "s",
    "ambient.cofactor_points": "count",
    "profile.reconstruct_s": "s",
    "profile.steps": "count",
    "profile.rhs_evals": "count",
    "profile.dense_s": "s",
    "profile.dense_points": "count",
    "profile.dense_unique_ratio": "ratio",
    "curvature.solve_s": "s",
    "curvature.calls": "count",
    "curvature.steps": "count",
    "curvature.rhs_evals": "count",
    "pipeline.build_s": "s",
    "pipeline.self_s": "s",
    "mesh.sample_s": "s",
    "mesh.obj_s": "s",
    "mesh.ply_s": "s",
    "mesh.bytes_written": "count",
    "mesh.write_MBps": "MB/s",
    "trace.overhead_p50_s": "s",
}


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for name in THREAD_VARS:
        os.environ[name] = "1"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Digest of the library sources, for checkouts that carry no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "biconsurf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reference_work():
    """A fixed computation that uses no biconsurf code; returns a callable timing it."""
    import numpy as np
    from scipy.integrate import solve_ivp

    x = np.linspace(0.0, 1.0, 450_000)

    def rhs(t, y):
        return [y[1], -y[0] - 0.1 * y[1] ** 3]

    def once() -> float:
        t0 = time.process_time()
        s = 0
        for i in range(60000):
            s += i * i % 7
        s += (np.sin(x) * x).sum()
        solve_ivp(rhs, (0.0, 10.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
        return time.process_time() - t0

    return once


def measure_setup(samples: int = SETUP_SAMPLES) -> list:
    """[CPU seconds to import biconsurf, mean reference seconds right after],
    each pair from a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    code = (
        "import time; t = time.process_time(); import biconsurf; "
        "d = time.process_time() - t\n"
        "import statistics; from run import reference_work\n"
        "ref = reference_work(); ref()\n"
        "print(repr(d), repr(statistics.mean(ref() for _ in range(3))))"
    )
    pairs = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        pairs.append([float(x) for x in done.stdout.strip().splitlines()[-1].split()])
    return pairs


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    warm: object                                 # OpResult of the untimed warm-up
    rounds: list = field(default_factory=list)   # [(traced, [OpResult])]
    tracer: object = None
    first_counts: Counter = field(default_factory=Counter)
    seconds: float = 0.0
    refs: list = field(default_factory=list)     # reference_work() times, in order

    def results(self, traced=None) -> list:
        return [r for t, rs in self.rounds for r in rs if traced is None or t == traced]

    @property
    def deterministic(self) -> bool:
        """The warm-up and its timed repeat wrote byte-identical files."""
        first = self.rounds[0][1][0]
        return bool(self.warm.digests) and self.warm.digests == first.digests


def measure(draw, seconds: float, trace: bool, work: Path) -> Measurement:
    """Run rounds ``draw(0), draw(1), ...`` for about ``seconds``.

    Round 0's first operation runs once untimed first (warm-up) and is
    repeated as the first timed operation, which checks byte-determinism.
    Rounds always complete; a round starts only while half the last round's
    duration still fits.  With ``trace``, even rounds are traced and at least
    one traced and one untraced round run.  The reference computation is
    timed between operations, 1 + (previous operation's seconds //
    REF_EVERY_S) times, and after the last; each result's ``reference`` is
    the mean of the samples just before and just after it.
    """
    # imported here: both import biconsurf, which main() first puts on the path
    from bench_ops import run_op
    from bench_trace import Tracer

    first = draw(0)
    meas = Measurement(warm=run_op(first[0], work / "warmup"))
    tracer = Tracer() if trace else None
    meas.tracer = tracer
    reference = reference_work()
    reference()
    start = time.perf_counter()
    rnd, last, op_seconds = 0, 0.0, 0.0
    blocks = []                                  # reference samples before each op

    def sample():
        return [reference() for _ in range(1 + int(op_seconds // REF_EVERY_S))]

    while rnd < (2 if trace else 1) or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        ops = first if rnd == 0 else draw(rnd)
        traced = trace and rnd % 2 == 0
        results = []
        for j, op in enumerate(ops):
            blocks.append(sample())
            if traced:
                tracer.op = (rnd, j)
                with tracer.installed():
                    results.append(run_op(op, work / f"op{j:02d}"))
            else:
                results.append(run_op(op, work / f"op{j:02d}"))
            op_seconds = results[-1].seconds
        if traced and rnd == 0:
            meas.first_counts = tracer.counts.copy()
        meas.rounds.append((traced, results))
        rnd += 1
        last = time.perf_counter() - began
    meas.seconds = time.perf_counter() - start
    blocks.append(sample())
    for result, before, after in zip(meas.results(), blocks, blocks[1:]):
        result.reference = statistics.mean(before + after)
    meas.refs = [t for block in blocks for t in block]
    return meas


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def in_reference_seconds(cpu_seconds: float, reference: float) -> float:
    """CPU seconds measured while the reference took ``reference`` seconds."""
    return cpu_seconds * REF_S / reference


def end_to_end(meas: Measurement, setup: list) -> dict:
    """``setup`` holds [import CPU seconds, reference seconds] pairs."""
    timed = meas.results(traced=False)
    samples = [in_reference_seconds(r.cpu_seconds, r.reference) for r in timed]
    busy = sum(samples)
    everything = meas.results()
    headrooms = [r.headroom for r in meas.rounds[0][1] if r.headroom is not None]
    return {
        "op_p50_s": statistics.median(samples),
        "op_p90_s": statistics.quantiles(samples, n=10, method="inclusive")[-1],
        "ops_per_s": len(timed) / busy,
        "points_per_s": sum(r.points for r in timed) / busy,
        "pass_ratio": sum(1 for r in everything if not r.failed) / len(everything),
        "worst_headroom": max(headrooms) if headrooms else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(in_reference_seconds(*pair) for pair in setup),
    }


def per_layer(meas: Measurement) -> dict:
    tracer = meas.tracer
    traced_rounds = [i for i, (t, _) in enumerate(meas.rounds) if t]
    n = len(traced_rounds)
    ops = {(i, j) for i in traced_rounds for j in range(len(meas.rounds[i][1]))}
    total, self_time = tracer.span_totals(ops)
    c0, cum = meas.first_counts, tracer.counts

    def t(name):
        return total[name] / n

    io = total["mesh.write_obj"] + total["mesh.write_ply"]
    traced_p50 = statistics.median(r.seconds for r in meas.results(traced=True))
    plain_p50 = statistics.median(r.seconds for r in meas.results(traced=False))
    return {
        "verify.verify_s": t("verify.verify_patch"),
        "verify.self_s": self_time["verify.verify_patch"] / n,
        "verify.points_per_s": _ratio(cum["verify.points"], total["verify.verify_patch"]),
        "verify.evals_per_point": _ratio(c0["verify.at_points"], c0["verify.points"]),
        "verify.residual_coverage": _ratio(c0["verify.residuals_covered"],
                                           c0["verify.residuals_required"]),
        "surfaces.uline_calls": c0["surfaces.uline_calls"],
        "surfaces.uline_points": c0["surfaces.uline_points"],
        "surfaces.uline_s": t("surfaces.uline"),
        "surfaces.at_calls": c0["surfaces.at_calls"],
        "surfaces.at_points": c0["surfaces.at_points"],
        "surfaces.at_s": t("surfaces.at"),
        "ambient.cofactor_s": t("ambient.cofactor"),
        "ambient.cofactor_points": c0["ambient.cofactor_points"],
        "profile.reconstruct_s": t("profile.reconstruct"),
        "profile.steps": c0["profile.steps"],
        "profile.rhs_evals": c0["profile.rhs_evals"],
        "profile.dense_s": t("profile.dense"),
        "profile.dense_points": c0["profile.dense_points"],
        "profile.dense_unique_ratio": _ratio(c0["profile.dense_unique"],
                                             c0["profile.dense_points"]),
        "curvature.solve_s": t("curvature.solve"),
        "curvature.calls": c0["curvature.calls"],
        "curvature.steps": c0["curvature.steps"],
        "curvature.rhs_evals": c0["curvature.rhs_evals"],
        "pipeline.build_s": t("pipeline.build"),
        "pipeline.self_s": sum(v for k, v in self_time.items() if k.startswith("pipeline.")) / n,
        "mesh.sample_s": t("mesh.sample"),
        "mesh.obj_s": t("mesh.write_obj"),
        "mesh.ply_s": t("mesh.write_ply"),
        "mesh.bytes_written": c0["mesh.bytes_written"],
        "mesh.write_MBps": _ratio(cum["mesh.bytes_written"] / 1e6, io),
        "trace.overhead_p50_s": traced_p50 - plain_p50,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _record(meas: Measurement) -> dict:
    return {
        "warmup": {"op": meas.warm.op.describe(), "digests": meas.warm.digests},
        "rounds": [
            {
                "traced": traced,
                "ops": [
                    {
                        "op": r.op.describe(),
                        "seconds": r.seconds,
                        "cpu_seconds": r.cpu_seconds,
                        "reference": r.reference,
                        "failed": r.failed,
                        "problems": r.problems,
                        "headroom": r.headroom,
                        "digests": r.digests,
                    }
                    for r in results
                ],
            }
            for traced, results in meas.rounds
        ],
        "first_round_counts": meas.first_counts,
    }


def main(argv=None) -> int:
    pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["surface-128", "sweep-64", "profile-long"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biconsurf" / "__init__.py").is_file():
        print(f"error: no biconsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import biconsurf

    if SRC.resolve() not in Path(biconsurf.__file__).resolve().parents:
        print(f"error: imported biconsurf from {biconsurf.__file__}", file=sys.stderr)
        return 2
    from bench_ops import WORKLOADS, draw_round

    env = environment(args.seed)
    setup = [] if args.trace else measure_setup()
    meas = measure(lambda rnd: draw_round(args.workload, args.seed, rnd),
                   args.seconds, bool(args.trace), WORK / args.workload)

    everything = meas.results()
    failed = [r for r in everything if r.failed]
    wrong = [r for r in everything if r.wrong_claim]
    judged = any(r.headroom is not None for r in meas.rounds[0][1])
    correct = meas.deterministic and not wrong and judged
    metrics = per_layer(meas) if args.trace else end_to_end(meas, setup)
    units = PER_LAYER if args.trace else END_TO_END

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "about": WORKLOADS[args.workload], "env": env,
              "setup_samples": setup, "reference": meas.refs, "metrics": metrics, **_record(meas)}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if meas.tracer is not None:
        meas.tracer.write(WORK / f"{tag}.spans.jsonl")

    timed = meas.results(traced=False)
    print(f"# perfbench {args.workload}: {WORKLOADS[args.workload]}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {len(meas.rounds)} rounds, {len(everything)} ops ({len(timed)} untraced, "
          f"{len(timed) // 10} beyond p90) in {meas.seconds:.1f} s; "
          f"setup samples {len(setup)}")
    print(f"# reference mean {statistics.mean(meas.refs):.6g} s over {len(meas.refs)} "
          f"samples (REF_S {REF_S} s); unscaled op p50 "
          f"{statistics.median(r.seconds for r in timed):.6g} s wall, "
          f"{statistics.median(r.cpu_seconds for r in timed):.6g} s cpu"
          + (f"; unscaled setup {statistics.median(t for t, _ in setup):.6g} s cpu"
             if setup else ""))
    print("# round 0 inputs (later rounds are in the record):")
    for r in meas.rounds[0][1]:
        print(f"#   {r.op.describe()}")
    print(f"# determinism: {meas.warm.op.describe()} run twice, digests "
          f"{'match' if meas.deterministic else 'DIFFER'}")
    for name, digest in sorted(meas.warm.digests.items()):
        print(f"#   {name} sha256={digest}")
    print(f"# failed {len(failed)}/{len(everything)} (fail_ratio "
          f"{len(failed) / len(everything):.6g}); passed-but-wrong {len(wrong)}")
    for r in failed[: len(meas.rounds[0][1])]:
        print(f"#   FAIL {r.op.describe()}: {'; '.join(r.problems)[:160]}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"# record {WORK.name}/{tag}.json")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(everything),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
