"""Tests of the benchmark's own checks and counters.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from biconsurf import pipeline  # noqa: E402
from biconsurf.curvature import prime_constant  # noqa: E402

from bench_ops import (  # noqa: E402
    CASES,
    WORKLOADS,
    Op,
    OpResult,
    draw_round,
    load_report,
    report_problems,
    run_op,
)

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def test_nan_xu_patch_is_counted_failed(tmp_path, monkeypatch):
    op = Op("surface", "r3", {**CASES["r3"], "nu": 16, "nv": 16})
    good = run_op(op, tmp_path / "good")
    assert not good.failed and good.claimed_pass

    build = pipeline.build_r3_revolution

    def nan_build(*args, **kwargs):
        patch = build(*args, **kwargs)

        def at(line, v):
            X, Xu, Xv = patch.at(line, v)
            return X, np.full_like(Xu, np.nan), Xv

        return dataclasses.replace(patch, at=at)

    monkeypatch.setattr(pipeline, "build_r3_revolution", nan_build)
    bad = run_op(op, tmp_path / "nan")
    assert bad.failed

    # each fail-closed rule catches it on its own: the strict parser refuses
    # the bare NaN, and the residuals the profile requires were never evaluated
    report_path = tmp_path / "nan" / "surface.report.json"
    try:
        load_report(report_path)
    except ValueError:
        pass
    else:
        raise AssertionError("a report holding NaN parsed")
    problems, _ = report_problems(json.loads(report_path.read_text()))
    assert problems


def test_traced_counters_repeat_exactly(tmp_path):
    ops = [
        Op("surface", "s3", {**CASES["s3"], "nu": 16, "nv": 16}),
        Op("surface", "r3", {**CASES["r3"], "nu": 16, "nv": 16}),
        Op("sweep", "h3-parabolic", {**CASES["h3-parabolic"], "value": 0.25, "nu": 16, "nv": 16}),
        Op("solve_profile", "h3-elliptic", {**CASES["h3-elliptic"], "span": (-2.0, 2.0)}),
    ]

    def counts():
        meas = bench_run.measure(lambda rnd: ops, 0.0, True, tmp_path / "work")
        layer = bench_run.per_layer(meas)
        return meas.first_counts, {
            name: layer[name] for name, unit in bench_run.PER_LAYER.items() if unit == "count"
        }

    first, second = counts(), counts()
    assert first == second
    assert all(value > 0 for value in first[1].values())


def test_times_are_scaled_by_the_reference_speed():
    op = Op("surface", "r3", {**CASES["r3"], "nu": 16, "nv": 16})

    def metrics(slowdown):
        # the second half of the run is 1.5x slower, and its reference shows it
        results = [OpResult(op, 9.9, False, [], 0.5, 256, cpu_seconds=c * slowdown,
                            reference=ref * slowdown)
                   for c, ref in ((0.1, 0.02), (0.2, 0.02), (0.45, 0.03), (0.6, 0.03))]
        meas = bench_run.Measurement(warm=results[0], rounds=[(False, results)])
        setup = [[0.8 * slowdown, 0.01 * slowdown], [1.8 * slowdown, 0.02 * slowdown],
                 [0.9 * slowdown, 0.01 * slowdown]]
        return bench_run.end_to_end(meas, setup)

    plain, slow = metrics(1.0), metrics(1.7)
    # scaled: 0.1/0.02, 0.2/0.02, 0.45/0.03, 0.6/0.03 = 5, 10, 15, 20 REF_S
    assert abs(plain["op_p50_s"] - 12.5 * bench_run.REF_S) < 1e-12
    assert abs(plain["setup_s"] - 90.0 * bench_run.REF_S) < 1e-12
    for name in ("op_p50_s", "op_p90_s", "ops_per_s", "points_per_s", "setup_s"):
        assert abs(slow[name] / plain[name] - 1.0) < 1e-12


def test_draws_are_seeded_and_land_on_their_branch():
    model_c = {"s3": 1, "h3": -1}
    for workload in WORKLOADS:
        assert draw_round(workload, 7, 0) == draw_round(workload, 8, 0)
        assert draw_round(workload, 7, 1) == draw_round(workload, 7, 1)
        assert draw_round(workload, 7, 1) != draw_round(workload, 8, 1)
        for seed in range(5):
            for op in draw_round(workload, seed, 1) + draw_round(workload, seed, 2):
                p = op.params
                if p["model"] == "r3":
                    assert p["C"] > 0
                    continue
                C = float(prime_constant(p["k0"], p["kp0"], model_c[p["model"]]))
                assert (C < 0) == (op.case == "h3-parabolic")


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
