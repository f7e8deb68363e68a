"""Command-line front end.

Subcommands: solve, profile, surface, verify, sweep.  Exit codes: 0 when
every verification passed, 1 on a verification failure, 2 on usage or
configuration errors, 3 on numerical failures.  An optional JSON config
file supplies defaults; explicit flags win.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import GeometryError, UsageError
from .pipeline import (
    PipelineConfig,
    cmd_profile,
    cmd_solve,
    cmd_surface,
    cmd_sweep,
)

EXIT_PASS = 0
EXIT_VERIFICATION_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# A negative float literal, exponent, inf and nan included.  argparse's own
# pattern (``^-\d+$|^-\d*\.\d+$`` on Python 3.10-3.12) takes "-1e-3" for an
# option name; no option of this program looks like a number.
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?$|^-(?:inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal as a value.

    Subcommand parsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON file of defaults")
    p.add_argument("--model", choices=["r3", "s3", "h3"], default=None)
    p.add_argument("--branch", choices=["auto", "elliptic", "parabolic"], default=None)
    p.add_argument("--k0", type=float, default=None)
    p.add_argument("--dk0", type=float, default=None, help="initial k'(0)")
    p.add_argument("--C", type=float, default=None, help="r3 profile constant")
    p.add_argument("--span", type=float, nargs=2, default=None, metavar=("U0", "U1"))
    p.add_argument("--rho-range", type=float, nargs=2, default=None, metavar=("R0", "R1"))
    p.add_argument("--nu", type=int, default=None)
    p.add_argument("--nv", type=int, default=None)
    p.add_argument("--v-range", type=float, nargs=2, default=None, metavar=("V0", "V1"))
    p.add_argument("--fd-step", type=float, default=None)
    p.add_argument("--projection", type=str, default=None,
                   choices=["auto", "identity", "stereographic", "poincare"])
    p.add_argument("--out", type=str, default=None, help="output file or directory")
    p.add_argument("--report", type=str, default=None, help="report JSON path")


def _number(value) -> float:
    if isinstance(value, bool):
        raise ValueError("a boolean is not a number")
    return float(value)


def _count(value) -> int:
    number = _number(value)
    if not number.is_integer():
        raise ValueError("not an integer")
    return int(number)


def _pair(value) -> tuple:
    if isinstance(value, str):
        raise ValueError("expected two numbers, got a string")
    pair = tuple(_number(x) for x in value)
    if len(pair) != 2:
        raise ValueError(f"expected two numbers, got {len(pair)}")
    return pair


# config-file key (the flag's name) -> (PipelineConfig field, conversion);
# an explicit flag wins over the file, and absent keys keep the defaults
_CONFIG_KEYS = {
    "model": ("model", str),
    "branch": ("branch", str),
    "k0": ("k0", _number),
    "dk0": ("kp0", _number),
    "C": ("C", _number),
    "rho_range": ("rho_range", _pair),
    "span": ("span", _pair),
    "nu": ("nu", _count),
    "nv": ("nv", _count),
    "v_range": ("v_range", _pair),
    "fd_step": ("fd_step", _number),
    "projection": ("projection", str),
}


def _config_from_args(args) -> PipelineConfig:
    file_values = {}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError("config file must contain a JSON object")
    known = f"known keys: {', '.join(_CONFIG_KEYS)}"
    unknown = sorted(set(file_values) - set(_CONFIG_KEYS))
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(unknown)}; {known}")

    fields = {}
    for key, (name, convert) in _CONFIG_KEYS.items():
        flag = getattr(args, key)
        value = flag if flag is not None else file_values.get(key)
        if value is None:
            continue
        try:
            fields[name] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(
                f"config key '{key}' has unusable value {value!r} ({exc}); {known}"
            )
    return PipelineConfig(**fields).validate()


def _out_path(args, default_name: str) -> str:
    return args.out if args.out else default_name


def main(argv=None) -> int:
    parser = _Parser(
        prog="biconsurf",
        description="Construct and verify biconservative surfaces in the "
        "three 3-dimensional space forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("solve", "integrate the curvature ODE to CSV"),
        ("profile", "emit the profile curve CSV"),
        ("surface", "build, verify and export one surface"),
        ("verify", "build and verify (report only, no meshes)"),
        ("sweep", "run a family of pipelines and summarize"),
    ]:
        p = sub.add_parser(name, help=desc)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--values", type=float, nargs="+", required=True,
                           help="swept parameter values (C for r3, k0 otherwise)")

    args = parser.parse_args(argv)

    try:
        cfg = _config_from_args(args)
        if args.command == "solve":
            result = cmd_solve(cfg, _out_path(args, "solve.csv"))
            print(f"C={result['C']!r} max_drift={result['max_drift']:.3e} "
                  f"csv={result['csv']}")
            return EXIT_PASS if result["ok"] else EXIT_VERIFICATION_FAIL
        if args.command == "profile":
            result = cmd_profile(cfg, _out_path(args, "profile.csv"))
            print(f"csv={result['csv']}")
            return EXIT_PASS if result["ok"] else EXIT_VERIFICATION_FAIL
        if args.command in ("surface", "verify"):
            out_dir = _out_path(args, ".")
            result = cmd_surface(
                cfg, out_dir,
                write_meshes=args.command == "surface",
                report_path=args.report,
            )
            status = "PASS" if result["pass"] else "FAIL"
            print(f"{status} case={result['case']} report={result['report']}")
            for name, entry in sorted(result["residuals"].items()):
                if entry["max"] is not None:
                    print(f"  {name}: max={entry['max']:.3e}")
            return EXIT_PASS if result["pass"] else EXIT_VERIFICATION_FAIL
        if args.command == "sweep":
            result = cmd_sweep(cfg, args.values, _out_path(args, "sweep_out"))
            for run in result["runs"]:
                mark = "ok" if run.get("pass") else "FAILED"
                extra = run.get("error", "")
                print(f"  value={run['value']}: {mark} {extra}".rstrip())
            print(f"summary={result['summary']}")
            return EXIT_PASS if result["pass"] else EXIT_VERIFICATION_FAIL
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
