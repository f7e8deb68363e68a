"""Layer spans and work counters, recorded from outside the library.

The tracer wraps the public callables each biconsurf module looks up at call
time (``pipeline.build_s3``, ``verify._cofactor_complement``,
``curvature.ode_rhs``, ...) and restores them on exit, so the library itself
is unchanged.  A span is ``[name, start, end, parent, op]``; its layer is the
part of the name before the first dot.  Spans stay in memory until the run
writes them out.
"""
from __future__ import annotations

import dataclasses
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from biconsurf import curvature, pipeline, profile, verify


class Tracer:
    """Spans and counters of one run; ``op`` tags the spans of the running operation."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._open: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        self._open[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """fn as a span; ``after(result, *args)`` updates counters once it ends."""

        def wrapped(*args, **kwargs):
            result = self.timed(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def counting(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- the layer boundaries ----------------------------------------------

    def _patch_hooks(self, patch):
        """The patch with its ``uline``/``at`` evaluators wrapped."""
        counts = self.counts

        def uline_after(result, u):
            counts["surfaces.uline_calls"] += 1
            counts["surfaces.uline_points"] += int(np.size(u))

        def at_after(result, line, v):
            n = int(np.size(v))
            counts["surfaces.at_calls"] += 1
            counts["surfaces.at_points"] += n
            if self._open["verify.verify_patch"]:
                counts["verify.at_points"] += n

        return dataclasses.replace(
            patch,
            uline=self.wrap("surfaces.uline", patch.uline, uline_after),
            at=self.wrap("surfaces.at", patch.at, at_after),
        )

    def _hooks(self):
        """(owner, attribute, replacement) for every traced boundary."""
        counts = self.counts
        hooks = []

        for name in ("cmd_solve", "cmd_profile", "cmd_surface", "cmd_sweep"):
            hooks.append((pipeline, name, self.wrap(f"pipeline.{name}", getattr(pipeline, name))))
        hooks.append((pipeline, "build_pipeline_patch",
                      self.wrap("pipeline.build", pipeline.build_pipeline_patch)))

        def solve_after(sol, *args, **kwargs):
            counts["curvature.calls"] += 1
            counts["curvature.steps"] += len(sol.u) - 1

        hooks.append((pipeline, "solve_curvature",
                      self.wrap("curvature.solve", pipeline.solve_curvature, solve_after)))
        hooks.append((curvature, "ode_rhs", self.counting("curvature.rhs_evals", curvature.ode_rhs)))

        def reconstruct_after(prof, *args, **kwargs):
            counts["profile.calls"] += 1
            counts["profile.steps"] += len(prof.u) - 1

        hooks.append((pipeline, "reconstruct_profile",
                      self.wrap("profile.reconstruct", pipeline.reconstruct_profile,
                                reconstruct_after)))
        hooks.append((profile, "ode_rhs", self.counting("profile.rhs_evals", profile.ode_rhs)))

        def dense_after(result, curve, u):
            u = np.asarray(u)
            counts["profile.dense_points"] += int(u.size)
            counts["profile.dense_unique"] += int(np.unique(u).size)

        hooks.append((profile.ProfileCurve, "state",
                      self.wrap("profile.dense", profile.ProfileCurve.state, dense_after)))

        for name in ("build_s3", "build_h3", "build_r3_revolution"):
            build = getattr(pipeline, name)
            hooks.append((pipeline, name, self._traced_build(build)))

        def cofactor_after(result, sig, mat):
            counts["ambient.cofactor_points"] += int(np.prod(np.shape(mat)[:-2]))

        hooks.append((verify, "_cofactor_complement",
                      self.wrap("ambient.cofactor", verify._cofactor_complement, cofactor_after)))

        def verify_after(report, *args, **kwargs):
            counts["verify.calls"] += 1
            counts["verify.points"] += int(report.grid["nu"] * report.grid["nv"])
            for name in report.tolerances:
                if name == "normal_bitension_min":
                    continue
                counts["verify.residuals_required"] += 1
                entry = report.residuals.get(name) or {}
                if entry.get("count", 0) > 0 and entry.get("max") is not None \
                        and np.isfinite(entry["max"]):
                    counts["verify.residuals_covered"] += 1

        hooks.append((pipeline, "verify_patch",
                      self.wrap("verify.verify_patch", pipeline.verify_patch, verify_after)))

        hooks.append((pipeline, "sample_mesh", self.wrap("mesh.sample", pipeline.sample_mesh)))

        def written_after(paths, *args, **kwargs):
            for path in [paths] if isinstance(paths, str) else paths:
                counts["mesh.bytes_written"] += os.path.getsize(path)

        hooks.append((pipeline, "write_obj",
                      self.wrap("mesh.write_obj", pipeline.write_obj, written_after)))
        hooks.append((pipeline, "write_ply",
                      self.wrap("mesh.write_ply", pipeline.write_ply, written_after)))
        return hooks

    def _traced_build(self, build):
        def traced(*args, **kwargs):
            return self._patch_hooks(self.timed("surfaces.build", build, *args, **kwargs))

        traced.__wrapped__ = build
        return traced

    @contextmanager
    def installed(self):
        """Install every hook for the duration of the block."""
        saved = []
        try:
            for owner, attr, replacement in self._hooks():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def span_totals(self, ops) -> tuple[Counter, Counter]:
        """(total seconds, self seconds) per span name, over the spans of ``ops``.

        Self time is a span's duration minus that of its direct children.
        """
        total, child, self_time = Counter(), Counter(), Counter()
        for name, start, end, parent, op in self.spans:
            if op in ops:
                total[name] += end - start
                child[parent] += end - start
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                self_time[name] += (end - start) - child[idx]
        return total, self_time

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
