"""The family table: one row per family of non-CMC biconservative surfaces.

``FAMILIES`` holds the revolution surface of R3, the circle sweep of S3 and
the circle (C > 0) and exponential (C < 0) sweeps of H3, keyed by the
report's ``case``.  Every decision that depends on the family reads its row,
so a new family is one new row.  Only how a family is built stays split:
r3 in closed form (``branch`` None), the others from the curvature ODE.
The row names are kept for the bytes of the reports: the family of
``--branch parabolic`` and ``Branch.H2_PARABOLIC`` is the case
"h3_parabolic", though its orbit is that of a boost, a hyperbolic isometry.
The module imports numpy, ``ambient``, ``defaults`` and ``errors`` only.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np

from . import defaults
from .ambient import H3, R3, S3, SpaceForm
from .errors import UsageError


class Branch(str, enum.Enum):
    S2 = "s2"
    H2_ELLIPTIC = "h2_elliptic"
    H2_PARABOLIC = "h2_parabolic"


def _rotation(v):
    """(S, S', S'', S''', S'''') of the rotation orbit S = (cos v, sin v, 0)."""
    cv, sv = np.cos(v), np.sin(v)
    zero = np.zeros_like(cv)
    S, S1, S2, S3 = (
        np.stack([x, y, zero], axis=-1)
        for x, y in ((cv, sv), (-sv, cv), (-cv, -sv), (sv, -cv))
    )
    return S, S1, S2, S3, S


def _circle(v, C1, C2):
    """The same for the circle orbit S = C1 (cos v - 1) + C2 sin v."""
    cv, sv = np.cos(v)[..., None], np.sin(v)[..., None]
    S = C1 * (cv - 1.0) + C2 * sv
    S1 = -C1 * sv + C2 * cv
    return S, S1, -(S + C1), -S1, S + C1


def _exponential(v, C1, C2):
    """The same for the exponential orbit S = C1 (e^v - 1) + C2 (e^-v - 1).
    Where e^|v| overflows the values are not finite, without a warning: the
    verifier refuses them with a ConditioningError."""
    with np.errstate(over="ignore", invalid="ignore"):
        ev, emv = np.exp(v)[..., None], np.exp(-v)[..., None]
        S = C1 * (ev - 1.0) + C2 * (emv - 1.0)
        S1, S2 = C1 * ev - C2 * emv, C1 * ev + C2 * emv
    return S, S1, S2, S1, S2


@dataclass(frozen=True, eq=False)
class Family:
    """A row of ``FAMILIES``; the profile fields are None on r3.

    Of the ``constants``, <P, C1> = s1, and P, E1, E2 are orthogonal to each
    other and to the profile plane's normal (C2, or C1 - C2 on h3_parabolic);
    E1 is timelike on h3_elliptic.
    """

    case: str                 # the report's case and the TOL_PROFILES key
    space: SpaceForm
    model: str                # the CLI's --model
    branch: Branch | None     # the profile branch
    branch_name: str | None   # the CLI's --branch, where the model has a choice
    C_sign: int               # the sign of the constant C
    wrong_sign: str | None    # reconstruct_profile's refusal of another sign; None on
                              # s3, where all initial data give C > 0
    constants: tuple | None   # (C1, C2) of the sweep, (P, E1, E2) of the profile's chart
    amplitude: float | None   # sc = amplitude / (3 sqrt|C|) in a = sc k^(-3/4)
    constraint: tuple | None  # (s1, s2): <sigma, C1> = s1 a, <sigma, C2> = s2 a
    orbit: Callable           # the v-orbit S and its v-derivatives to order 4
    v_range: tuple            # the default v range
    projection: str           # the chart of projection "auto"
    builder: str              # the surfaces builder of the patch
    tolerances: dict          # the verifier's bounds

    def admits(self, C: float) -> bool:
        """Whether the constant C has the family's sign."""
        return (C > 0) - (C < 0) == self.C_sign


_E = np.eye(4)
# the fields the two circle sweeps share
_CIRCLE = dict(amplitude=4.0, constraint=(1.0, 0.0), orbit=_circle,
               v_range=defaults.V_FULL_TURN, tolerances=defaults.TOL_INTEGRATED)
FAMILIES = MappingProxyType({f.case: f for f in (
    Family("r3_revolution", R3, "r3", None, None, 1, None, constants=None, amplitude=None,
           constraint=None, orbit=_rotation, v_range=defaults.V_FULL_TURN,
           projection="identity", builder="build_r3_revolution",
           tolerances=defaults.TOL_CLOSED_FORM),
    Family("s3", S3, "s3", Branch.S2, None, 1, None,
           constants=(_E[2], _E[3], _E[2], _E[0], _E[1]),
           projection="stereographic", builder="build_s3", **_CIRCLE),
    Family("h3_elliptic", H3, "h3", Branch.H2_ELLIPTIC, "elliptic", 1,
           "branch h2_elliptic requires C > 0", constants=(_E[1], _E[0], _E[1], _E[3], _E[2]),
           projection="poincare", builder="build_h3", **_CIRCLE),
    Family("h3_parabolic", H3, "h3", Branch.H2_PARABOLIC, "parabolic", -1,
           "the exponential branch requires C < 0",
           constants=(_E[0] + _E[3], _E[1] + _E[3], _E[0] + _E[1] + 2.0 * _E[3],
                      _E[0] + _E[1] + _E[3], _E[2]),
           amplitude=2.0 * math.sqrt(2.0), constraint=(-1.0, -1.0), orbit=_exponential,
           v_range=defaults.V_PARABOLIC, projection="poincare", builder="build_h3",
           tolerances=defaults.TOL_INTEGRATED),
)})
BY_BRANCH = MappingProxyType({f.branch: f for f in FAMILIES.values() if f.branch is not None})
TOL_PROFILES = {f.case: dict(f.tolerances) for f in FAMILIES.values()}
MODELS = tuple(dict.fromkeys(f.model for f in FAMILIES.values()))
BRANCHES = ("auto",) + tuple(f.branch_name for f in FAMILIES.values() if f.branch_name)


def model_rows(model: str, branch: str = "auto") -> tuple:
    """The rows of a --model name, after checking it and a --branch name."""
    rows = tuple(f for f in FAMILIES.values() if f.model == model)
    if not rows:
        raise UsageError(f"unknown model '{model}'")
    if branch not in BRANCHES:
        raise UsageError(f"unknown branch '{branch}'")
    return rows


def select(rows: tuple, branch: str) -> tuple:
    """The rows of one model that a --branch name admits.  A name the model
    lacks is refused: "does not apply" where the model has its sign of C."""
    chosen = tuple(f for f in rows if branch in ("auto", f.branch_name))
    if not chosen:
        named = [f for f in FAMILIES.values() if f.branch_name == branch]
        if any(f.C_sign == named[0].C_sign for f in rows):
            raise UsageError(f"branch selection does not apply to model {rows[0].model}")
        models = " or ".join(dict.fromkeys(f.model for f in named))
        raise UsageError(f"the {branch} branch exists only for model {models}")
    return chosen


def resolve(model: str, branch: str, constant: Callable) -> Family:
    """The row of a --model and --branch pair.  Of a model's several rows the
    sign of C = constant(c) picks one, c the model's curvature, which an
    explicit branch must admit."""
    rows = model_rows(model, branch)
    if len(rows) == 1:
        return select(rows, branch)[0]
    C = constant(rows[0].space.c)
    auto = next((f for f in rows if f.admits(C)), None)
    if auto is None:
        raise UsageError("degenerate initial data: the constant C vanishes")
    if auto not in select(rows, branch):
        raise UsageError(
            f"branch '{branch}' contradicts the sign of the constant "
            f"of the supplied initial data (auto-resolves to {auto.branch.value})"
        )
    return auto
