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

The right-hand sides handed to the solvers (here and in the profile frame
integration) run on plain Python floats: ``ode_rhs`` and ``prime_poly`` take
a scalar path for floats that is bit-identical to their array formula.
Squares are ``x * x``, exactly numpy's ``x**2``, and powers are
``np.power``: numpy's vectorised power loop and the C library's ``pow``
(behind Python's float ``**``) disagree in the last bit for a few percent of
inputs, and the drift-limited solves amplify such differences into
different step sequences.  ``ode_rhs`` checks that k is positive (for floats
one comparison); inside the solves the right-hand side clamps k at 1e-300
and the ``k_floor`` event stops the integration first.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .defaults import ADMISSIBILITY_SLACK, K_FLOOR, ODE_ATOL, ODE_RTOL
from .errors import DomainError, NoSolutionError, UsageError

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
# floor stays above scipy's internal rtol clip.
_TOL_SAFETY = 1e-2
_RTOL_FLOOR = 3e-14


def _internal_tols(rel_tol: float, abs_tol: float) -> tuple[float, float]:
    return max(rel_tol * _TOL_SAFETY, _RTOL_FLOOR), abs_tol * _TOL_SAFETY


_K_POSITIVE = "geodesic curvature k must be positive"


def _require_positive_k(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0):
        raise DomainError(_K_POSITIVE)
    return k


def ode_rhs(k, kp, c: int):
    """Second derivative k'' = ((7/4) kp^2 + (4c/3) k^2 - 4 k^4) / k.

    Floats take a scalar path, bit-identical to the array one.
    """
    if isinstance(k, float) and isinstance(kp, float):
        if k <= 0:
            raise DomainError(_K_POSITIVE)
    else:
        k, kp = _require_positive_k(k), np.asarray(kp, dtype=float)
    return (1.75 * (kp * kp) + (4.0 * c / 3.0) * (k * k) - 4.0 * np.power(k, 4)) / k


def prime_constant(k, kp, c: int):
    """Conserved constant C = (kp^2 + (16c/9) k^2 + 16 k^4) / k^(7/2)."""
    k = _require_positive_k(k)
    kp = np.asarray(kp, dtype=float)
    return (kp**2 + (16.0 * c / 9.0) * k**2 + 16.0 * k**4) / k**3.5


def prime_poly(k, C: float, c: int):
    """P(k) = -(16c/9) k^2 - 16 k^4 + C k^(7/2); equals (k')^2 on solutions.

    Floats take a scalar path, bit-identical to the array one.
    """
    if not isinstance(k, float):
        k = np.asarray(k, dtype=float)
    return -(16.0 * c / 9.0) * (k * k) - 16.0 * np.power(k, 4) + C * np.power(k, 3.5)


def kappa2(k, C: float):
    """Curvature 3/4 sqrt(|C|) k^(3/4) of the second family of curves."""
    k = _require_positive_k(k)
    if C == 0:
        raise DomainError("kappa2 is undefined for C = 0")
    return 0.75 * np.sqrt(abs(C)) * k**0.75


def w_value(k, kp):
    """Branch discriminant W = (9/16)(kp/k)^2 + 9 k^2 - 1.

    For c = -1 solutions W = (9C/16) k^(3/2), so its sign equals the sign of
    the integration constant and selects circular vs exponential orbits.
    """
    k = _require_positive_k(k)
    kp = np.asarray(kp, dtype=float)
    return 0.5625 * (kp / k) ** 2 + 9.0 * k**2 - 1.0


def _bisect(f, lo: float, hi: float, rel: float = 1e-12) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel * max(abs(lo), abs(hi), 1e-300):
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def admissible_interval(C: float, c: int) -> tuple[float, float]:
    """Maximal interval of k > 0 where P(k) >= 0.

    Endpoints are located by bracketing and bisection to 1e-12 relative.
    For c in {0, -1} the polynomial is positive down to k = 0 and the lower
    endpoint is returned as 0.0 (open end).
    """
    # g(k) = P(k)/k^2 has the same positive roots with a cleaner shape
    def g(k):
        return -16.0 * c / 9.0 - 16.0 * k**2 + C * k**1.5

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
        k_lo = _bisect(g, 1e-18, k_m)
        hi = 2.0 * k_m
        while g(hi) >= 0:
            hi *= 2.0
        k_hi = _bisect(lambda k: -g(k), k_m, hi)
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
    k_hi = _bisect(lambda k: -g(k), 1e-18, hi)
    return (0.0, k_hi)


class _Dop853Dense:
    """Dense output of DOP853 runs, stacked into arrays and evaluated in one pass.

    ``sols`` are the ``OdeSolution`` objects of ``solve_ivp(...,
    method="DOP853", dense_output=True)`` runs.  Their interpolants are
    stacked once: ``t_old`` and ``h`` of shape (nseg,), ``y_old`` of shape
    (nseg, n) and ``F`` of shape (7, nseg, n), one table per interpolant
    row, so an evaluation gathers one (points, n) table at a time.  A point
    takes the segment ``OdeSolution`` gives it (at a step time, the one of
    lower index) and is evaluated with the operations of
    ``Dop853DenseOutput``, in their order, so every value is bit-identical
    to ``sol(t)``.  Only attributes that scipy 1.10 already has are read:
    ``ts``, ``interpolants`` and each interpolant's ``t_old``, ``h``,
    ``y_old`` and ``F``.
    """

    def __init__(self, sols):
        pieces, self._runs = [], []
        for sol in sols:
            ts = np.asarray(sol.ts, dtype=float)
            descending = bool(ts[-1] < ts[0])
            # (inner step times ascending, descending, first segment, segments)
            inner = ts[-2:0:-1] if descending else ts[1:-1]
            self._runs.append((inner, descending, len(pieces), len(sol.interpolants)))
            pieces.extend(sol.interpolants)
        self.t_old = np.array([p.t_old for p in pieces], dtype=float)
        self.h = np.array([p.h for p in pieces], dtype=float)
        self.y_old = np.array([p.y_old for p in pieces], dtype=float)
        self.F = np.stack([p.F for p in pieces], axis=1, dtype=float)
        self.nstate = self.y_old.shape[1]

    def segments(self, t, run: int = 0) -> np.ndarray:
        """Stacked segment index of each point of 1-D ``t`` in run ``run``.

        ``OdeSolution`` searches all step times (side "left" ascending,
        "right" on the reversed times descending), subtracts 1 and clips to
        [0, nseg - 1]; searching the inner step times alone gives that index
        with no clip.  A descending run's index is then mirrored.
        """
        inner, descending, first, n = self._runs[run]
        seg = np.searchsorted(inner, t, side="right" if descending else "left")
        return first + (n - 1 - seg if descending else seg)

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

    def __call__(self, t):
        """States of the first run at ``t`` of any shape, stacked last."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        return self.at(flat, self.segments(flat)).reshape(t.shape + (self.nstate,))


class _TwoSidedDense:
    """Dense evaluator stitched from forward and backward integrations.

    ``right`` and ``left`` are the ``solve_ivp`` results of the runs from
    u = 0 to the right and to the left end of ``span`` (either may be None);
    only their stacked interpolants (:class:`_Dop853Dense`) are kept.  A
    point with u < 0 is read from the left run, any other from the right
    one.  A point outside ``span`` (beyond a small slack), NaN included,
    raises ``DomainError``.
    """

    def __init__(self, right, left, span):
        runs = [res.sol for res in (right, left) if res is not None]
        self._dense = _Dop853Dense(runs)
        self._two_sided = len(runs) == 2
        self.span = span

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        lo, hi = self.span
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not np.all((u >= lo - slack) & (u <= hi + slack)):
            raise DomainError(
                f"evaluation point outside the solved span [{lo}, {hi}]"
            )
        # after clipping, negative u only occurs when a left run exists
        flat = np.clip(u, lo, hi).ravel()
        dense = self._dense
        seg = dense.segments(flat)
        if self._two_sided:
            seg = np.where(flat < 0.0, dense.segments(flat, 1), seg)
        return dense.at(flat, seg).reshape(u.shape + (dense.nstate,))


@dataclass(frozen=True)
class CurvatureProblem:
    """Validated initial data of the curvature ODE, not yet integrated.

    ``span`` is the target interval around u = 0.  A
    :class:`CurvatureSolution` has the same fields, with ``span`` the
    interval actually covered, so either one can seed
    :func:`~biconsurf.profile.reconstruct_profile`.
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
    with np.errstate(over="ignore", invalid="ignore"):
        C = float(prime_constant(k0, kp0, c))
    if not np.isfinite(C):
        raise DomainError(
            f"the conserved constant C of k0={k0!r}, kp0={kp0!r} is not finite"
        )
    return C


def curvature_problem(
    c: int,
    k0: float,
    kp0: float,
    span: tuple[float, float] = (-1.0, 1.0),
    rel_tol: float = ODE_RTOL,
    abs_tol: float = ODE_ATOL,
) -> CurvatureProblem:
    """Check initial data and a target span, and compute the constant C.

    k0 must be positive, C finite, and the span a nondegenerate interval
    containing u = 0; the constant-curvature equilibrium of the sphere is
    refused, since its solution would be constant.
    """
    if k0 <= 0:
        raise DomainError("k0 must be positive")
    u_min, u_max = float(span[0]), float(span[1])
    if not (u_min <= 0.0 <= u_max) or u_min == u_max:
        raise UsageError("span must be a nondegenerate interval containing 0")
    if c == 1 and kp0 == 0.0 and abs(k0 - _EQUILIBRIUM_K) < 1e-12:
        raise UsageError(
            "initial data sits at the constant-curvature equilibrium; "
            "the solution would be constant"
        )
    return CurvatureProblem(
        c=c,
        C=_conserved_constant(c, k0, kp0),
        k0=float(k0),
        kp0=float(kp0),
        span=(u_min, u_max),
        rel_tol=rel_tol,
        abs_tol=abs_tol,
    )


@dataclass(frozen=True, eq=False)
class _TwoSidedRun:
    """Outward integrations from u = 0, merged into one record."""

    u: np.ndarray                 # accepted steps of both sides, sorted
    y: np.ndarray                 # states at ``u``, one row per component
    span: tuple[float, float]     # interval actually covered
    roots: np.ndarray             # sorted roots of the non-terminal events
    boundary: list                # early stops, left side first
    dense: _TwoSidedDense


def _integrate_two_sided(rhs, y0, span, rel_tol, abs_tol, events) -> _TwoSidedRun:
    """Integrate from u = 0 out to both ends of ``span``.

    Each side is one order-8 embedded Runge-Kutta run (DOP853) with dense
    output, stepping below the requested tolerances (``_internal_tols``).
    A terminal event that fires ends its side early and is recorded in
    ``boundary`` under the event function's name, as is a step-size
    underflow (``step_underflow``).
    """
    u_min, u_max = span
    rtol_i, atol_i = _internal_tols(rel_tol, abs_tol)

    def integrate(target):
        return solve_ivp(
            rhs,
            (0.0, target),
            y0,
            method="DOP853",
            dense_output=True,
            rtol=rtol_i,
            atol=atol_i,
            events=events,
        )

    right = integrate(u_max) if u_max > 0 else None
    left = integrate(u_min) if u_min < 0 else None

    reached = [u_min, u_max]
    roots, boundary = [], []
    for side, res in enumerate((left, right)):
        if res is None:
            continue
        for event, t_event in zip(events, res.t_events):
            if event.terminal:
                boundary.extend({"u": float(ue), "kind": event.__name__} for ue in t_event)
            else:
                roots.extend(t_event.tolist())
        if res.status == -1:
            boundary.append({"u": float(res.t[-1]), "kind": "step_underflow"})
        reached[side] = float(res.t[-1])

    ts, ys = [], []
    if left is not None:
        ts.append(left.t[::-1])
        ys.append(left.y[:, ::-1])
    if right is not None:
        sl = slice(1, None) if left is not None else slice(None)
        ts.append(right.t[sl])
        ys.append(right.y[:, sl])
    covered = (reached[0], reached[1])
    return _TwoSidedRun(
        u=np.concatenate(ts),
        y=np.concatenate(ys, axis=1),
        span=covered,
        roots=np.array(sorted(roots)),
        boundary=boundary,
        dense=_TwoSidedDense(right, left, covered),
    )


@dataclass(frozen=True, eq=False)
class CurvatureSolution:
    """Dense-output solution of the curvature ODE with its first integral.

    It is a view of one two-sided run: (k, k') are components 0-1 of that
    run's state, which is the 2-state run of :func:`solve_curvature` or the
    joint (k, k', frame) run of ``reconstruct_profile``.  ``u``,
    ``k_samples``, ``kp_samples`` hold the run's accepted steps (sorted by
    u).  ``turning_points`` are the detected roots of k'; the
    ``boundary_events`` record any early stop (k floor, admissibility exit,
    or step-size underflow), in which case ``truncated`` is set and ``span``
    is the actually covered interval.
    """

    c: int
    C: float
    k0: float
    kp0: float
    span: tuple[float, float]
    requested_span: tuple[float, float]
    u: np.ndarray
    k_samples: np.ndarray
    kp_samples: np.ndarray
    turning_points: np.ndarray
    boundary_events: list = field(default_factory=list)
    truncated: bool = False
    k_interval: tuple[float, float] = (0.0, np.inf)
    rel_tol: float = ODE_RTOL
    abs_tol: float = ODE_ATOL
    _dense: _TwoSidedDense | None = None

    def state(self, u):
        """(k, k') at arbitrary u inside the solved span, stacked last.

        A u outside the span, or not finite, raises ``DomainError``.
        """
        return self._dense(u)[..., :2]

    def k(self, u):
        return self.state(u)[..., 0]

    def kp(self, u):
        return self.state(u)[..., 1]

    def drift(self, n: int = 1001) -> float:
        """Max |prime_constant(k, k', c) - C| over a dense sample of the span."""
        lo, hi = self.span
        grid = np.unique(np.concatenate([np.linspace(lo, hi, n), self.u]))
        st = self.state(grid)
        return float(np.max(np.abs(prime_constant(st[..., 0], st[..., 1], self.c) - self.C)))


def _curvature_view(problem: CurvatureProblem, run: _TwoSidedRun) -> CurvatureSolution:
    """The curvature solution held in components 0-1 of ``run``."""
    try:
        interval = admissible_interval(problem.C, problem.c)
    except NoSolutionError:
        interval = (problem.k0, problem.k0)
    return CurvatureSolution(
        c=problem.c,
        C=problem.C,
        k0=problem.k0,
        kp0=problem.kp0,
        span=run.span,
        requested_span=problem.span,
        u=run.u,
        k_samples=run.y[0],
        kp_samples=run.y[1],
        turning_points=run.roots,
        boundary_events=run.boundary,
        truncated=bool(run.boundary),
        k_interval=interval,
        rel_tol=problem.rel_tol,
        abs_tol=problem.abs_tol,
        _dense=run.dense,
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
        return prime_poly(k, C, c) + ADMISSIBILITY_SLACK * max(1.0, abs(C) * k**3.5)

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
    integrates (k, k') once, jointly with the profile frame.
    """
    problem = curvature_problem(c, k0, kp0, span, rel_tol, abs_tol)

    def rhs(u, y):
        k, kp = y.tolist()
        return [kp, ode_rhs(max(k, 1e-300), kp, c)]

    run = _integrate_two_sided(
        rhs, [problem.k0, problem.kp0], problem.span, rel_tol, abs_tol,
        _event_functions(problem.C, c),
    )
    return _curvature_view(problem, run)
