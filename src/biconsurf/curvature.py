"""Intrinsic curvature ODE of the profile curve and its first integral.

The geodesic curvature k(u) of the profile curve satisfies

    k'' k = (7/4) (k')^2 + (4c/3) k^2 - 4 k^4,

where c in {0, +1, -1} is the curvature of the surrounding model.  Along any
solution the quantity

    C = ( (k')^2 + (16c/9) k^2 + 16 k^4 ) / k^(7/2)

is conserved; conversely (k')^2 = P(k) = -(16c/9) k^2 - 16 k^4 + C k^(7/2),
so solutions live where P >= 0.  This module integrates the ODE with an
adaptive embedded Runge-Kutta scheme (dense output, event detection) and
exposes C, the admissible k-interval, and the derived quantities kappa2 and
W used by the surface constructions.

The scheme is DOP853, stepped by ``_dop853``: scipy's ``solve_ivp(...,
method="DOP853", dense_output=True, events=...)`` repeated operation for
operation, with the tableau of :mod:`biconsurf.dop853` and event roots from
``_brentq``, a port of scipy's C ``brentq``, so its steps, states, event
roots and interpolants are bit-identical to scipy's, and the module imports
numpy alone.  The three interpolant stages do not feed the stepping, so
the step loop only tests the signs of the events, and each run builds the
segment table of all its accepted steps in one batched pass at its end
(``_interpolants``); the event roots, and the state at a terminal root,
are then solved on the one-segment ``_Dop853Dense`` of each step with an
event.  A two-sided run (``_integrate_two_sided``) returns its record, a
:class:`CurvatureSolution`: the steps, events and covered span, and one
dense evaluator (``_Dop853Dense``), the tables of both sides in order of u.
Each side stops after a step budget proportional to its length
(``_STEPS_PER_UNIT``), so a pole inside the span ends it in seconds.

The float path.  A two- or three-component state costs numpy more in
per-call overhead than in arithmetic, so the driver steps on Python floats:
the state is a list, and ``t``, ``h``, the stage arguments ``y + dot h``,
the new state, the error scale, the quotients by it and the step-size
controller are floats, computed with the operations of scipy's numpy code
in the same order, which IEEE arithmetic rounds alike.  Numpy keeps what
numpy or BLAS rounds its own way: the stage sums (``K[:s].T.dot(a)``, the
error estimates ``K.T.dot(E5)`` and ``K.T.dot(E3)``), the norms
(``x.dot(x)``) and every power of k in the right-hand sides and
``prime_poly`` (``np.power``; numpy's vectorised power loop and the C
library's ``pow`` behind float ``**`` disagree in the last bit for a few
percent of inputs, and the drift-limited solves amplify such bits into
different steps).  One power does not: the ``inadmissible`` event's slack
term takes k^(7/2) as the float ``k**3.5``, the C ``pow``, on every step
of every run.  Where float arithmetic raises and numpy's
gives inf or NaN (division by zero, NaN in a maximum), the driver gives
numpy's value.  Each stage is written into its row of the run's stage
table through a view held for the run (``row[...] = rhs(...)``).  One numpy
scalar left in the loop would turn every value after it into numpy-scalar
arithmetic again, so the float path ends in floats: the events get the
state as a list, also inside a root solve (the segment's values through
``tolist``), and the right-hand sides and ``prime_poly`` return floats on
float input.

A run's right-hand side ``rhs(u, y)`` (``_run_rhs``) is bound once per run,
after c and C are checked, to c, 4c/3 and, for a profile, the chart's
``rate``, ``d0`` and ``d2 sc^2``.  It takes the state as a sequence of
components: plain Python floats while stepping, one array per component in
the interpolant pass.  Both run one kernel, so k'' and theta' each have one
formula, which ``ode_rhs`` and ``_Chart.dtheta`` evaluate too; floats take
``float(np.power(k, 4.0))`` and ``math.sqrt``, arrays ``np.power`` and
``np.sqrt``, which round alike, and squares are ``x * x``, exactly numpy's
``x**2``.  Inside the solves k is clamped at 1e-300, and the ``k_floor``
event stops the integration first; the public functions do not clamp but
check that k is positive and c is -1, 0 or +1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dop853
from .ambient import space_form
from .defaults import ADMISSIBILITY_SLACK, K_FLOOR, ODE_ATOL, ODE_RTOL, SPAN_LIMIT
from .errors import DomainError, NoSolutionError, UsageError, _array, _pair, _real

__all__ = [
    "ode_rhs",
    "prime_constant",
    "prime_poly",
    "admissible_interval",
    "kappa2",
    "w_value",
    "CurvatureProblem",
    "curvature_problem",
    "CurvatureSolution",
    "solve_curvature",
]

# positive equilibrium k = 1/sqrt(3) exists only for c = +1
_EQUILIBRIUM_K = 3.0 ** -0.5

# The conserved constant divides by k^(7/2), which amplifies integration
# error wherever k is small; integrating two orders below the requested
# tolerance keeps the drift contract (100 * rel_tol * |C|) honest.  The
# floor stays above 100 eps, where scipy's solvers would clip rtol and
# ``_dop853``, which does not, would part from them.
_TOL_SAFETY = 1e-2
_RTOL_FLOOR = 3e-14


def _internal_tols(rel_tol: float, abs_tol: float) -> tuple[float, float]:
    return max(rel_tol * _TOL_SAFETY, _RTOL_FLOOR), abs_tol * _TOL_SAFETY


_K_POSITIVE = "geodesic curvature k must be positive"


def _require_positive_k(k) -> np.ndarray:
    """``k`` as an array; ``DomainError`` unless every entry is > 0 (so not NaN)."""
    k = _array(k, "k")
    if not np.all(k > 0):
        raise DomainError(_K_POSITIVE)
    return k


def _run_rhs(c: int, angle=None, floor: float = 1e-300):
    """The right-hand side ``rhs(u, y)`` of a run at the checked curvature c.

    It returns (k', k''), and with ``angle`` = (rate, d0, d2 sc^2) of a
    profile's chart (``_Chart``) also theta' = rate k^(1/4) k^(3/2) /
    (d0 k^(3/2) + d2 sc^2), from y[0] = k clamped at ``floor`` and y[1] = k',
    floats for floats and arrays for arrays (see the module docstring).
    """
    c43 = 4.0 * c / 3.0
    if angle is not None:
        rate, d0, d2s = angle
    power, fsqrt = np.power, math.sqrt

    def rhs(u, y):
        k, kp = y[0], y[1]
        if isinstance(k, float):
            if floor > k:  # max(k, floor), NaN kept
                k = floor
            k4, sqrt = float(power(k, 4.0)), fsqrt
        else:
            k = np.maximum(k, floor)
            k4, sqrt = power(k, 4.0), np.sqrt
        kpp = (1.75 * (kp * kp) + c43 * (k * k) - 4.0 * k4) / k
        if angle is None:
            return [kp, kpp]
        s = sqrt(k)
        ks = k * s  # k^(3/2), and D = (d0 ks + d2 sc^2) / ks
        return [kp, kpp, rate * sqrt(s) * ks / (d0 * ks + d2s)]

    return rhs


def ode_rhs(k, kp, c: int):
    """Second derivative k'' = ((7/4) kp^2 + (4c/3) k^2 - 4 k^4) / k.

    Floats take a scalar path, bit-identical to the array one.  A c other
    than -1, 0 and +1 raises ``UsageError``.
    """
    c = space_form(c).c
    if isinstance(k, float) and isinstance(kp, float):
        if not k > 0:
            raise DomainError(_K_POSITIVE)
    else:
        k, kp = _require_positive_k(k), _array(kp, "kp")
    return _run_rhs(c, floor=0.0)(None, (k, kp))[1]


def prime_constant(k, kp, c: int):
    """Conserved constant C = (kp^2 + (16c/9) k^2 + 16 k^4) / k^(7/2)."""
    c = space_form(c).c
    k, kp = _require_positive_k(k), _array(kp, "kp")
    return (kp**2 + (16.0 * c / 9.0) * k**2 + 16.0 * k**4) / k**3.5


def _prime_poly(k, C: float, c: int):
    """``prime_poly`` of checked arguments: on floats a float, bit-identical
    to the array path."""
    if isinstance(k, float):
        k4, k7_2 = float(np.power(k, 4.0)), float(np.power(k, 3.5))
    else:
        k4, k7_2 = np.power(k, 4.0), np.power(k, 3.5)
    return -(16.0 * c / 9.0) * (k * k) - 16.0 * k4 + C * k7_2


def prime_poly(k, C: float, c: int):
    """P(k) = -(16c/9) k^2 - 16 k^4 + C k^(7/2); equals (k')^2 on solutions.

    Floats take a scalar path, bit-identical to the array one.  A c other
    than -1, 0 and +1, or a C that is not a real number (or an array of
    them), raises ``UsageError``; a k that is not positive (or NaN)
    ``DomainError``.  No CLI path calls it: it stays as the paper's
    quantity the README lists.
    """
    c = space_form(c).c
    C = _real(C, "C") if np.isscalar(C) else _array(C, "C", UsageError)
    if isinstance(k, float):
        if not k > 0:
            raise DomainError(_K_POSITIVE)
    else:
        k = _require_positive_k(k)
    return _prime_poly(k, C, c)


def kappa2(k, C: float):
    """Curvature 3/4 sqrt(|C|) k^(3/4) of the second family of curves; no CLI
    path calls it, it stays as the paper's quantity the README lists."""
    k = _require_positive_k(k)
    C = _real(C, "C")
    if C == 0:
        raise DomainError("kappa2 is undefined for C = 0")
    if not math.isfinite(C):
        raise DomainError(f"kappa2 needs a finite C, got {C!r}")
    return 0.75 * np.sqrt(abs(C)) * k**0.75


def w_value(k, kp):
    """Branch discriminant W = (9/16)(kp/k)^2 + 9 k^2 - 1.

    For c = -1 solutions W = (9C/16) k^(3/2), so its sign equals the sign of
    the integration constant and selects circular vs exponential orbits.
    No CLI path calls it: it stays as the paper's quantity the README lists.
    """
    k, kp = _require_positive_k(k), _array(kp, "kp")
    return 0.5625 * (kp / k) ** 2 + 9.0 * k**2 - 1.0


def _brentq(f, xa: float, xb: float, tol: float, name: str) -> float:
    """A root of the event ``f`` between ``xa`` and ``xb``, by Brent's method.

    scipy's C ``brentq`` (``scipy/optimize/Zeros/brentq.c``, after R. P.
    Brent, *Algorithms for Minimization Without Derivatives*, 1973, ch. 4)
    on Python floats, operation for operation, with ``xtol = rtol = tol``
    and scipy's 100 iterations: the same calls of ``f`` and the same root
    bits as ``scipy.optimize.brentq``.  Where scipy raises ``ValueError``
    (a NaN value, or one sign at both ends) or ``RuntimeError`` (no
    convergence), this raises ``DomainError`` naming the event ``name``.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"the {name} event is NaN at u = {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # below, f is never NaN and compared for sign only where it is not 0,
    # so ``< 0`` reads the sign bit as C's ``signbit`` does
    if (fpre < 0) == (fcur < 0):
        raise DomainError(
            f"the {name} event has one sign at u = {xpre!r} and u = {xcur!r}"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise DomainError(
        f"the {name} event root did not converge in 100 iterations; last u = {xcur!r}"
    )


def admissible_interval(C: float, c: int) -> tuple[float, float]:
    """Maximal interval of k > 0 where P(k) >= 0.

    Endpoints are located by bracketing and Brent's method (``_brentq``).
    For c in {0, -1} the polynomial is positive down to k = 0 and the lower
    endpoint is returned as 0.0 (open end).  A c other than -1, 0 and +1
    raises ``UsageError``, a C that is not finite ``DomainError``.  No CLI
    path calls it: it stays as the paper's quantity the README lists.
    """
    space_form(c)
    C = _real(C, "C")
    if not math.isfinite(C):
        raise DomainError(f"admissible_interval needs a finite C, got {C!r}")
    # g(k) = P(k)/k^2 has the same positive roots with a cleaner shape
    def g(k):
        return -16.0 * c / 9.0 - 16.0 * k**2 + C * k**1.5

    def endpoint(lo, hi):
        return _brentq(g, lo, hi, _EVENT_TOL, "admissible-interval endpoint")

    if c == 1:
        # g rises to a single maximum at k_m then falls; positive region
        # exists only when g(k_m) > 0
        if C <= 0:
            raise NoSolutionError("c = +1 requires a positive constant C")
        k_m = 9.0 * C**2 / 4096.0
        if g(k_m) <= 0:
            raise NoSolutionError(
                "P(k) is nowhere positive: C is below the admissibility threshold"
            )
        k_lo = endpoint(1e-18, k_m)
        hi = 2.0 * k_m
        while g(hi) >= 0:
            hi *= 2.0
        k_hi = endpoint(k_m, hi)
        return (k_lo, k_hi)

    if c == 0:
        if C <= 0:
            raise NoSolutionError("c = 0 requires a positive constant C")
        return (0.0, (C / 16.0) ** 2)

    # c = -1: g(0+) = 16/9 > 0 and g is eventually negative for either sign
    # of C, so there is a single positive root
    hi = 1.0
    while g(hi) >= 0:
        hi *= 2.0
    k_hi = endpoint(1e-18, hi)
    return (0.0, k_hi)


class _Dop853Dense:
    """Dense output of DOP853 runs from u = 0 over ``span``, one segment table.

    Segment i interpolates one accepted step: ``t_old`` and ``h`` have shape
    (nseg,), ``y_old`` (nseg, n) and ``F`` (7, nseg, n), one table per
    interpolant row (``_interpolants``), so an evaluation gathers one
    (points, n) table at a time.  ``u`` holds the runs' step times sorted,
    u = 0 once.  A point takes the segment scipy's ``OdeSolution`` of its
    run would give it (at a step time the one nearer its run's start, so
    the run toward +u owns u = 0) and is evaluated with the operations of
    scipy's DOP853 interpolant, in their order, so every value is
    bit-identical to that of the same run under ``solve_ivp``.  A point
    outside ``span`` (beyond a small slack), NaN included, raises
    ``DomainError``; one inside the slack is clipped to ``span``.  The
    event roots of a run are solved on the one-segment table of their step.
    """

    def __init__(self, u, span, t_old, h, y_old, F):
        # the stacked index of each segment by position (no two overlap; of
        # the two that start at u = 0 the descending one lies below), and
        # the inner step times, each moved down one ulp where the segment
        # below it descends, so that a search from the left gives a step
        # time the upper segment there and the lower one elsewhere
        self._order = np.lexsort((h, t_old))
        inner = u[1:-1]
        self._inner = np.where(h[self._order[:-1]] < 0, np.nextafter(inner, -np.inf), inner)
        self.span = span
        self.t_old, self.h, self.y_old, self.F = t_old, h, y_old, F
        self.nstate = y_old.shape[1]

    def segments(self, t) -> np.ndarray:
        """Stacked segment index of each point of 1-D ``t``."""
        return self._order[np.searchsorted(self._inner, t)]

    def at(self, t, seg) -> np.ndarray:
        """States at 1-D ``t`` on segments ``seg``, one row per point."""
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        one_minus_x = 1 - x
        y = np.zeros((t.size, self.nstate))
        for i, row in enumerate(self.F[::-1]):
            y += row.take(seg, axis=0)
            y *= x if i % 2 == 0 else one_minus_x
        y += self.y_old[seg]
        return y

    def __call__(self, u):
        """States at ``u`` of any shape, stacked last."""
        u = np.asarray(u, dtype=float)
        lo, hi = self.span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not np.all((u >= lo - slack) & (u <= hi + slack)):
            raise DomainError(
                f"evaluation point outside the solved span [{lo}, {hi}]"
            )
        flat = np.clip(u, lo, hi).ravel()
        return self.at(flat, self.segments(flat)).reshape(u.shape + (self.nstate,))


# The DOP853 tableau, and the step-size controller constants of scipy's
# Runge-Kutta solvers.
_STAGES = [(s, dop853.A[s, :s], float(dop853.C[s])) for s in range(1, dop853.N_STAGES)]
_EXTRA_STAGES = [
    (s, a[:s], float(c))
    for s, (a, c) in enumerate(zip(dop853.A_EXTRA, dop853.C_EXTRA), start=dop853.N_STAGES + 1)
]
_N_STAGES_EXTENDED = dop853.N_STAGES + 1 + len(_EXTRA_STAGES)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / (dop853.ERROR_ESTIMATOR_ORDER + 1)
_EVENT_TOL = 4 * float(np.finfo(float).eps)
# Accepted steps a run may take per unit of u (its budget is this times
# max(1, |t_bound|), rounded down), and its status when it has taken them
# short of its bound: over 10 times the most per unit of any run known to
# end well (3,763 steps over 1.01, an h3 build from k0 = 0.001, kp0 = 0;
# the benchmark's longest run takes 294 steps).  A right-hand side with a
# pole inside the span steps toward the pole until the step size
# underflows, which can take minutes.
_STEPS_PER_UNIT = 40_000
_BUDGET_SPENT = -2
# the boundary event of a run that stopped short, by status
_STOP_KINDS = {-1: "step_underflow", _BUDGET_SPENT: "step_budget"}


def _norm(x) -> float:
    """``np.linalg.norm`` of a 1-D float array, computed as it computes it
    (``math.sqrt`` rounds as ``np.sqrt`` does)."""
    return math.sqrt(x.dot(x))


def _rms(x):
    """The RMS norm of scipy's initial step rule, a numpy scalar as there."""
    return np.float64(_norm(x)) / x.size ** 0.5


def _error_scale(y, y_new, rtol: float, atol: float) -> list:
    """scipy's ``atol + np.maximum(abs(y), abs(y_new)) * rtol`` on lists of
    floats; the maximum is NaN where either side is, as ``np.maximum``'s,
    where ``max`` would depend on the order of its arguments."""
    return [atol + (b if b > a or b != b else a) * rtol
            for a, b in zip(map(abs, y), map(abs, y_new))]


def _scaled_norm_2(err, scale) -> float:
    """The squared norm of ``err / scale``, lists of floats, as numpy takes it.

    A zero scale (``atol = 0``; it is never -0.0) gives numpy's inf or NaN
    for the quotient, where float division would raise.  The norm is at most
    sqrt(max float), or inf, so its square cannot overflow.
    """
    return _norm(np.array([e / s if s else e * math.inf for e, s in zip(err, scale)])) ** 2


def _error_norm(err5, err3, scale, h_abs: float) -> float:
    """scipy's DOP853 error norm of the error estimates ``err5`` and ``err3``
    over the error scale, on floats; a zero denominator gives numpy's 0/0."""
    err5_norm_2, err3_norm_2 = _scaled_norm_2(err5, scale), _scaled_norm_2(err3, scale)
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = math.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * len(scale))
    # denom is 0 only where err5_norm_2 is
    return h_abs * err5_norm_2 / denom if denom else math.nan


def _interpolants(rhs, t_old, h, y_old, y_new, K) -> np.ndarray:
    """Interpolant tables F, shape (7, m, n), of m accepted DOP853 steps.

    ``K`` (m, 16, n) holds each step's 13 stages; the three extra stages are
    filled in here, one ``rhs`` call each on component arrays over the
    steps.  Each step gets the operations scipy's DOP853 applies to it
    alone: the stacked ``np.matmul`` runs the same matrix-vector and
    matrix-matrix products per step.
    """
    Kt = K.transpose(0, 2, 1)
    hc = h[:, None]
    for s, a, c in _EXTRA_STAGES:
        dy = np.matmul(Kt[:, :, :s], a) * hc
        K[:, s] = np.transpose(rhs(t_old + c * h, (y_old + dy).T))
    f_old = K[:, 0]
    delta_y = y_new - y_old
    F = np.empty((3 + len(dop853.D),) + y_old.shape)
    F[0] = delta_y
    F[1] = hc * f_old - delta_y
    F[2] = 2 * delta_y - hc * (K[:, dop853.N_STAGES] + f_old)
    F[3:] = (h[:, None, None] * np.matmul(dop853.D, K)).transpose(1, 0, 2)
    return F


@dataclass(frozen=True, eq=False)
class _Dop853Run:
    """One DOP853 run from u = 0, as ``solve_ivp`` would report it.

    ``t``, ``y`` (n, len(t)), ``status`` (0 reached the bound, 1 stopped by
    a terminal event, -1 step-size underflow) and ``t_events`` have the
    meaning of the fields of scipy's result; status ``_BUDGET_SPENT`` is a
    run that spent its step budget short of its bound.  ``table`` is the
    segment table (t_old, h, y_old, F) of its accepted steps, in the
    layout of ``_Dop853Dense``.
    """

    t: np.ndarray
    y: np.ndarray
    status: int
    t_events: list
    table: tuple


def _dop853(rhs, y0, t_bound, rtol, atol, events) -> _Dop853Run:
    """Integrate ``rhs`` from u = 0 toward ``t_bound`` with scipy's DOP853.

    Step for step ``solve_ivp(rhs, (0.0, t_bound), y0, method="DOP853",
    dense_output=True, rtol=rtol, atol=atol, events=events)`` for a scalar
    ``rtol >= 100 eps`` and ``atol > 0`` and events with boolean
    ``terminal``: the initial step rule, the stage sums, the error norm, the
    step-size controller, the event sign tests and root solves (``_brentq``),
    the terminal-event ordering and the dropped step when a root falls on
    the last step time.  A first step that is not finite (a right-hand side
    or error scale that is not) would spin scipy's step loop; here it raises
    ``DomainError``, as does an event root solve where scipy's ``brentq``
    raises.  A non-finite error norm rejects the step, as in scipy,
    so such a run ends in a step-size underflow (status -1).  A run that
    spends its step budget, ``_STEPS_PER_UNIT * max(1, |t_bound|)`` rounded
    down, short of its bound stops there (status ``_BUDGET_SPENT``), where
    scipy would go on.

    The stepping runs on Python floats (see the module docstring): the
    state (a list), the times, the step sizes, the stage arguments, the
    error scale and quotients and the controller, with the operations of
    scipy's numpy code in its order.  The initial step rule keeps numpy
    scalars, as scipy's does.  The loop only tests the events' signs; one
    ``_interpolants`` pass then builds the run's table, on whose segments
    the roots are solved.
    """
    t0, t_bound, rtol, atol = 0.0, float(t_bound), float(rtol), float(atol)
    y = [float(x) for x in y0]
    n = len(y)
    f = rhs(t0, y)
    direction = float(np.sign(t_bound - t0))
    budget = int(_STEPS_PER_UNIT * max(1.0, abs(t_bound)))

    # scipy's select_initial_step (its RMS norm), clamped to the interval;
    # its norms are numpy scalars, which take a zero or non-finite norm to
    # inf or NaN where floats would raise
    y_arr, f_arr = np.array(y), np.array(f, dtype=float)
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y_arr) * rtol
    d0, d1 = _rms(y_arr / scale), _rms(f_arr / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = float(min(h0, interval_length))
    f1 = np.array(rhs(t0 + h0 * direction, (y_arr + h0 * direction * f_arr).tolist()),
                  dtype=float)
    d2 = _rms((f1 - f_arr) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = float(min(100 * h0, h1, interval_length))
    if not math.isfinite(h_abs):
        raise DomainError(
            f"the first ODE step toward u = {t_bound!r} is not finite: the "
            "right-hand side or the error scale at u = 0 is not"
        )

    # one stage table per run: each stage is written into its row and its
    # stage sum read, through views held for the run and their bound ``dot``
    K = np.empty((_N_STAGES_EXTENDED, n))
    sums = [(K[s], K[:s].T.dot, a, c) for s, a, c in _STAGES]
    dot_b, dot_e = K[:dop853.N_STAGES].T.dot, K[:dop853.N_STAGES + 1].T.dot
    f_row, fsal_row = K[0], K[dop853.N_STAGES]
    B, E5, E3, nextafter = dop853.B, dop853.E5, dop853.E3, math.nextafter

    terminal = np.array([bool(e.terminal) for e in events])
    event_dir = [e.direction for e in events]
    g = [event(t0, y) for event in events]
    # the step ends, u = 0 first, each step's h and stage table, and the
    # (step, active events) of each step with an event
    ts, ys, hs, Ks, fired = [t0], [y], [], [], []
    t = t0
    status = None
    while status is None:
        if len(hs) == budget:
            status = _BUDGET_SPENT
            break
        # one accepted step (scipy's RungeKutta._step_impl)
        min_step = 10 * abs(nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            f_row[...] = f
            for row, dot, a, c in sums:
                row[...] = rhs(t + c * h, [x + dx * h for x, dx in zip(y, dot(a).tolist())])
            y_new = [x + h * dx for x, dx in zip(y, dot_b(B).tolist())]
            f_new = rhs(t + h, y_new)
            fsal_row[...] = f_new

            scale = _error_scale(y, y_new, rtol, atol)
            error_norm = _error_norm(dot_e(E5).tolist(), dot_e(E3).tolist(), scale, h_abs)

            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        if direction * (t_new - t_bound) >= 0:
            status = 0
        hs.append(h)
        Ks.append(K.copy())
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)

        # scipy's find_active_events; a terminal event ends the run
        g_new = [event(t, y) for event in events]
        active = [
            i for i, (a, b, d) in enumerate(zip(g, g_new, event_dir))
            if (a <= 0 and b >= 0 and d >= 0) or (a >= 0 and b <= 0 and d <= 0)
        ]
        if active:
            fired.append((len(hs) - 1, active))
            if terminal[active].any():
                status = 1
        g = g_new

    t_steps, y_steps = np.array(ts), np.array(ys)
    t_old, h, y_old = t_steps[:-1], np.array(hs), y_steps[:-1]
    F = _interpolants(rhs, t_old, h, y_old, y_steps[1:],
                      np.array(Ks).reshape(len(hs), _N_STAGES_EXTENDED, n))

    # scipy's handle_events on each step with an event, on its segment
    t_events = [[] for _ in events]
    for i, active in fired:
        ends = np.sort(t_steps[i:i + 2])
        dense = _Dop853Dense(ends, tuple(ends), t_old[i:i + 1], h[i:i + 1], y_old[i:i + 1],
                             F[:, i:i + 1])
        roots = np.asarray([
            _brentq(lambda u, event=events[e]: event(u, dense(u).tolist()), ts[i], ts[i + 1],
                    _EVENT_TOL, events[e].__name__)
            for e in active
        ])
        active = np.asarray(active)
        if terminal[active].any():
            order = np.argsort(roots) if direction > 0 else np.argsort(-roots)
            active, roots = active[order], roots[order]
            last = np.nonzero(terminal[active])[0][0] + 1
            active, roots = active[:last], roots[:last]
            # the run ends at the root; one on the last step time drops the step
            if i > 0 and ts[i] == roots[-1]:
                t_steps, y_steps = t_steps[:-1], y_steps[:-1]
                t_old, h, y_old, F = t_old[:-1], h[:-1], y_old[:-1], F[:, :-1]
            else:
                t_steps[-1], y_steps[-1] = roots[-1], dense(roots[-1])
        for e, root in zip(active, roots):
            t_events[e].append(root)

    return _Dop853Run(
        t=t_steps,
        y=y_steps.T,
        status=status,
        t_events=[np.asarray(te) for te in t_events],
        table=(t_old, h, y_old, F),
    )


@dataclass(frozen=True)
class CurvatureProblem:
    """Validated initial data of the curvature ODE, not yet integrated.

    ``span`` is the target interval around u = 0.  :func:`solve_curvature`
    and :func:`~biconsurf.profile.reconstruct_profile` each make one from
    their arguments and integrate it once.
    """

    c: int
    C: float
    k0: float
    kp0: float
    span: tuple[float, float]
    rel_tol: float = ODE_RTOL
    abs_tol: float = ODE_ATOL


def _conserved_constant(c: int, k0: float, kp0: float) -> float:
    """C of the initial data; a non-finite C is a DomainError naming the data."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        C = float(prime_constant(_real(k0, "k0"), _real(kp0, "kp0"), c))
    if not math.isfinite(C):
        raise DomainError(
            f"the conserved constant C of k0={k0!r}, kp0={kp0!r} is not finite"
        )
    return C


def _span(span) -> tuple[float, float]:
    """(u_min, u_max) of a curvature span as floats: a finite, nondegenerate
    interval containing 0, with both ends within ``SPAN_LIMIT`` of it."""
    u_min, u_max = _pair(span, "span")
    if not (math.isfinite(u_min) and math.isfinite(u_max)):
        raise UsageError(f"span must be finite, got {span!r}")
    if max(abs(u_min), abs(u_max)) > SPAN_LIMIT:
        raise UsageError(f"span ends must lie within +-{SPAN_LIMIT:g} of 0, got {span!r}")
    if not (u_min <= 0.0 <= u_max) or u_min == u_max:
        raise UsageError("span must be a nondegenerate interval containing 0")
    return u_min, u_max


def curvature_problem(
    c: int,
    k0: float,
    kp0: float,
    span: tuple[float, float] = (-1.0, 1.0),
    rel_tol: float = ODE_RTOL,
    abs_tol: float = ODE_ATOL,
) -> CurvatureProblem:
    """Check initial data and a target span, and compute the constant C.

    c must be -1, 0 or +1, k0 positive, C finite, the span a nondegenerate
    interval containing u = 0, and both tolerances positive and finite; the
    constant-curvature equilibrium of the sphere is refused, since its
    solution would be constant.
    """
    space_form(c)
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not 0.0 < _real(tol, name) < np.inf:
            raise UsageError(f"{name} must be positive and finite, got {tol!r}")
    if not _real(k0, "k0") > 0:
        raise DomainError("k0 must be positive")
    _real(kp0, "kp0")
    span = _span(span)
    C = _conserved_constant(c, k0, kp0)
    if c == 1 and kp0 == 0.0 and abs(k0 - _EQUILIBRIUM_K) < 1e-12:
        raise UsageError(
            "initial data sits at the constant-curvature equilibrium; "
            "the solution would be constant"
        )
    return CurvatureProblem(
        c=c,
        C=C,
        k0=float(k0),
        kp0=float(kp0),
        span=span,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


@dataclass(frozen=True, eq=False)
class CurvatureSolution:
    """Dense-output solution of the curvature ODE with its first integral.

    It is the record of one two-sided run (``_integrate_two_sided``): the
    2-state run of :func:`solve_curvature` or the (k, k', theta) run of
    ``reconstruct_profile``, with (k, k') its components 0-1.  ``u`` and
    ``kp_samples`` hold the run's accepted steps and k' there (sorted by
    u); ``_dense``, one segment table over ``span``, evaluates the whole
    state.  ``turning_points`` are the detected roots of k'; the
    ``boundary_events`` record any early stop (k floor, admissibility exit,
    step-size underflow or spent step budget), in which case ``truncated``
    is set and ``span`` is the actually covered interval; a side of zero
    length keeps its requested end.
    """

    c: int
    C: float
    span: tuple[float, float]
    u: np.ndarray
    kp_samples: np.ndarray
    turning_points: np.ndarray
    boundary_events: list
    truncated: bool
    rel_tol: float
    _dense: _Dop853Dense

    def state(self, u):
        """(k, k') at arbitrary u inside the solved span, stacked last.

        A u outside the span, or not finite, raises ``DomainError``.
        """
        return self._dense(u)[..., :2]

    def k(self, u):
        return self.state(u)[..., 0]

    def kp(self, u):
        return self.state(u)[..., 1]

    def drift(self, u):
        """prime_constant(k, k', c) - C at u inside the solved span: how far
        the run has moved off its first integral, the ``C_drift`` column of
        ``cmd_solve``."""
        return self._drift(self.state(u))

    def _drift(self, st):
        """``drift`` of already evaluated states (k, k', ...), stacked last."""
        return prime_constant(st[..., 0], st[..., 1], self.c) - self.C


def _integrate_two_sided(problem: CurvatureProblem, rhs, y0, events) -> CurvatureSolution:
    """Integrate ``rhs`` from ``y0`` at u = 0 out to both ends of ``problem.span``.

    ``y0`` starts with (k0, kp0), and (k, k') are the state's components
    0-1.  Each side is one order-8 embedded Runge-Kutta run (``_dop853``),
    stepping below the problem's tolerances (``_internal_tols``); the
    segment tables of the two runs, one ``_interpolants`` pass each, are
    joined into one dense evaluator.  A terminal event that fires ends its
    side early and is recorded in ``boundary_events`` under the event
    function's name, as is a step-size underflow (``step_underflow``) or a
    spent step budget (``step_budget``); the roots of the other events are
    the turning points.
    """
    rtol, atol = _internal_tols(problem.rel_tol, problem.abs_tol)
    # the right side first; a side of zero length has no run and keeps its
    # requested end, a signed zero included
    sides = [(end > 0, _dop853(rhs, y0, end, rtol, atol, events))
             for end in problem.span[::-1] if end != 0]
    covered, roots, boundary = list(problem.span), [], []
    for right, res in sides[::-1]:  # boundary events from the left side on
        covered[right] = float(res.t[-1])
        for event, t_event in zip(events, res.t_events):
            if event.terminal:
                boundary.extend({"u": float(ue), "kind": event.__name__} for ue in t_event)
            else:
                roots.extend(t_event.tolist())
        if res.status in _STOP_KINDS:
            boundary.append({"u": float(res.t[-1]), "kind": _STOP_KINDS[res.status]})

    covered, runs = tuple(covered), [res for _, res in sides]
    # the steps of both runs in order, u = 0 once (each run's times are strict)
    u, first = np.unique(np.concatenate([res.t for res in runs]), return_index=True)
    kp = np.concatenate([res.y[1] for res in runs])[first]
    t_old, h, y_old, F = (np.concatenate(part, axis=axis) for part, axis
                          in zip(zip(*(res.table for res in runs)), (0, 0, 0, 1)))
    return CurvatureSolution(
        c=problem.c,
        C=problem.C,
        span=covered,
        u=u,
        kp_samples=kp,
        turning_points=np.array(sorted(roots)),
        boundary_events=boundary,
        truncated=bool(boundary),
        rel_tol=problem.rel_tol,
        _dense=_Dop853Dense(u, covered, t_old, h, y_old, F),
    )


def _event_functions(C: float, c: int):
    """Events of every curvature run; they read only (k, k') = y[0], y[1]."""

    def turning(u, y):
        return y[1]

    turning.terminal = False
    turning.direction = 0.0

    def k_floor(u, y):
        return y[0] - K_FLOOR

    k_floor.terminal = True
    k_floor.direction = -1.0

    def inadmissible(u, y):
        k = max(y[0], K_FLOOR)
        return _prime_poly(k, C, c) + ADMISSIBILITY_SLACK * max(1.0, abs(C) * k**3.5)

    inadmissible.terminal = True
    inadmissible.direction = -1.0

    return [turning, k_floor, inadmissible]


def solve_curvature(
    c: int,
    k0: float,
    kp0: float,
    span: tuple[float, float] = (-1.0, 1.0),
    rel_tol: float = ODE_RTOL,
    abs_tol: float = ODE_ATOL,
) -> CurvatureSolution:
    """Integrate the curvature ODE from (k(0), k'(0)) = (k0, kp0).

    The data are checked by :func:`curvature_problem`.  Integration runs
    outward in both directions (``_integrate_two_sided``), stepping below
    the requested tolerance so the first-integral drift stays within
    100 * rel_tol * |C| even where k is small.  It stops early (recorded as
    a boundary event, not an error) if k falls to the positivity floor or
    P(k) becomes negative beyond tolerance; the first integral is
    monitored, never projected.  A pipeline build does not call this: it
    integrates (k, k') once, jointly with the profile's chart angle.
    """
    problem = curvature_problem(c, k0, kp0, span, rel_tol, abs_tol)
    return _integrate_two_sided(
        problem, _run_rhs(problem.c), [problem.k0, problem.kp0],
        _event_functions(problem.C, problem.c),
    )
