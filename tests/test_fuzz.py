"""The fail-closed contract over a fixed fuzz protocol.

Ninety draws from ``random.Random(5)``: the model uniform over r3, s3 and h3,
then C = 10^U(-1.5, 1.5) for r3, or k0 = 10^U(-3, 1.3) and k'0 = U(-1, 1)
for the curved models.  Each draw is built over the default span and
verified at 20 x 20.  Every draw must pass, fail with named residuals or
raise a ``GeometryError`` subclass; no other exception may leak.  The counts
are the baseline that a change to the gates or to the builds moves.
"""
import random
from collections import Counter

import biconsurf as bc
from biconsurf.pipeline import PipelineConfig, build_pipeline_patch


def _draws(n=90, seed=5):
    rng = random.Random(seed)
    for _ in range(n):
        model = rng.choice(["r3", "s3", "h3"])
        if model == "r3":
            yield PipelineConfig(model=model, C=10.0 ** rng.uniform(-1.5, 1.5))
        else:
            k0 = 10.0 ** rng.uniform(-3.0, 1.3)
            yield PipelineConfig(model=model, k0=k0, kp0=rng.uniform(-1.0, 1.0))


def _failed(report) -> frozenset:
    """The gates a report fails: residuals over their bound, and the bitension floor."""
    failed = {name for name, tol in report.tolerances.items()
              if name in report.residuals and report.residuals[name]["max"] > tol}
    tol = report.tolerances.get("normal_bitension_min")
    gates, bit = report.gates, report.bitension
    if (tol is not None and gates["non_cmc_points"] > gates["total_points"] // 2
            and not bit["min_abs"] > tol * bit["max_abs"]):
        failed.add("normal_bitension_min")
    return frozenset(failed)


def test_fuzz_protocol_counts():
    outcomes, failures = Counter(), Counter()
    for cfg in _draws():
        try:
            report = bc.verify_patch(build_pipeline_patch(cfg)[0], 20, 20)
        except bc.GeometryError as exc:
            assert type(exc) is not bc.GeometryError, exc  # a named subclass
            outcomes[type(exc).__name__] += 1
            continue
        failed = _failed(report)
        if report.passed:
            assert not failed, (cfg, failed)
            outcomes["pass"] += 1
        else:
            assert failed, cfg  # a failed report names what failed
            outcomes["fail"] += 1
            failures[failed] += 1
    assert outcomes == {"pass": 26, "fail": 53, "DomainError": 11}
    by_gate = Counter(name for names, n in failures.items() for name in names for _ in range(n))
    assert by_gate == {"normal_bitension_min": 53, "second_partials_fd": 11,
                       "higher_partials_fd": 3, "pde": 1}
    assert failures[frozenset({"normal_bitension_min"})] == 40
