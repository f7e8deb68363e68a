"""Profile curves of the constructed surfaces.

Two constructions live here:

* the closed-form profile of the flat-space surface of revolution: radius
  and axial height in closed form in a chart t that is regular across the
  waist circle;

* unit-speed curves in a totally geodesic 2-sphere or hyperbolic plane
  whose geodesic curvature is a prescribed solution k(u) of the curvature
  ODE and whose position satisfies the linear constraint equations of the
  classification: <sigma, C1> is the sweep amplitude a = sc k^(-3/4) (minus
  it on h2_parabolic), on the circle branches the orbits' radius 1/kappa2;
  sc is ``_amplitude_scale``, (a, a') ``_amplitude``.

One coordinate of such a curve is fixed by a(u), so it is a polar chart
about a fixed axis P (``_Chart``): sigma = a P + r (cos(theta) E1 +
sin(theta) E2), with cosh and sinh on h2_elliptic, whose (E1, E2) plane is
Lorentzian.  The quadric fixes r(a), and unit speed with the first integral
of the curvature ODE fixes theta' > 0 as a function of k.  So theta is the
only unknown: it is integrated jointly with (k, k') in one run that carries
the curvature solver's events, and the curve's ``curvature`` is that run's
record, whose dense evaluator gives (k, k', theta).  sigma, its velocity T
and the in-plane normal n of the frame equations sigma' = T,
T' = k n - c sigma, n' = -k T (c the model curvature) are closed forms in
(a, a', theta, theta').

The module needs numpy only.  The tests check s2 profile arcs against an
independent scipy integration of the reduced dx/dk equation (the
k-parameter oracle of ``tests/conftest.py``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambient import SpaceForm
from .curvature import (
    CurvatureProblem,
    CurvatureSolution,
    _event_functions,
    _integrate_two_sided,
    _run_rhs,
    # nothing here calls ode_rhs; the name stays because perfbench's tracer
    # patches the attribute profile.ode_rhs
    ode_rhs,  # noqa: F401
)
from .errors import ConstructionError, DomainError, UsageError, _real
from .families import BY_BRANCH, Branch

__all__ = [
    "RevolutionProfile",
    "revolution_profile",
    "Branch",
    "ProfileCurve",
    "reconstruct_profile",
]


# ---------------------------------------------------------------------------
# flat space: closed-form profile of the surface of revolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RevolutionProfile:
    """Closed-form profile of the flat-space surface of revolution.

    The radius rho runs over [C^(-3/2), rho_max], and the axial height u(rho)
    has u'(rho) = (C rho^(2/3) - 1)^(-1/2), infinite at the waist circle
    rho = R = C^(-3/2).  The regular chart t = sqrt(C rho^(2/3) - 1) (Nistor,
    "Complete biconservative surfaces in R3 and S3", J. Geom. Phys. 2016)
    removes that singularity: with s = sqrt(1 + t^2),

        rho = R s^3,   z = (3/2) R (t s + asinh t + log(2 sqrt C)),

    both smooth in t, and t in [-t_max, t_max] covers the two halves of the
    profile glued at the waist t = 0.  The constant puts u(rho) = z(t(rho)).
    """

    C: float
    rho_max: float

    @property
    def rho_min(self) -> float:
        return self.C ** -1.5

    @property
    def t_max(self) -> float:
        return float(self.t_of_rho(self.rho_max))

    def t_of_rho(self, rho):
        """The chart parameter t >= 0 of the radius rho."""
        rho = np.asarray(rho, dtype=float)
        lo = self.rho_min
        if not np.all((rho >= lo - 1e-12 * max(1.0, lo)) & (rho <= self.rho_max * (1 + 1e-12))):
            raise DomainError(
                f"rho outside the profile domain [{lo}, {self.rho_max}]"
            )
        return np.sqrt(np.maximum(self.C * rho ** (2.0 / 3.0) - 1.0, 0.0))

    def height(self, t):
        """The axial height z(t)."""
        t = np.asarray(t, dtype=float)
        return 1.5 * self.rho_min * (
            t * np.sqrt(1.0 + t * t) + np.arcsinh(t) + np.log(2.0 * np.sqrt(self.C))
        )

    def u_of_rho(self, rho):
        return self.height(self.t_of_rho(rho))


def revolution_profile(C: float, rho_max: float) -> RevolutionProfile:
    # NaN fails every comparison, so each test is written to fail closed
    if not 0 < _real(C, "the profile constant C") < math.inf:
        raise DomainError(f"the profile constant C must be positive and finite, got {C!r}")
    try:
        waist = float(C) ** -1.5
    except OverflowError:
        raise DomainError(f"the waist radius C^(-3/2) is not finite for C={C!r}") from None
    if not math.isfinite(_real(rho_max, "rho_max")):
        raise DomainError(f"rho_max must be finite, got {rho_max!r}")
    if not rho_max > waist:
        raise DomainError("rho_max must exceed the waist radius C^(-3/2)")
    return RevolutionProfile(C=float(C), rho_max=float(rho_max))


# ---------------------------------------------------------------------------
# curved models: profile curves in their polar chart
# ---------------------------------------------------------------------------


def _amplitude_scale(branch: Branch, C: float) -> float:
    """sc of the sweep amplitude a = sc k^(-3/4), on the circle branches 1/kappa2."""
    return BY_BRANCH[branch].amplitude / (3.0 * math.sqrt(abs(C)))


def _amplitude(sc, k, kp):
    """(a, a') of the sweep amplitude a = sc k^(-3/4) along a curvature solution."""
    a = sc * k**-0.75
    return a, -0.75 * a * kp / k


@dataclass(frozen=True)
class _Chart:
    """The polar chart sigma = a P + r E(theta) of a branch's profile.

    E(theta) = cos(theta) E1 + sin(theta) E2, with cosh and sinh where E1 is
    timelike.  sigma lies on the quadric <sigma, sigma> = c when
    r^2 = D = <E1, E1> (c - <P, P> a^2) = d0 + d2 a^2.  The meridian
    theta = const has the unit tangent m = (r P + d2 a E) / sqrt(v), with
    v = <P, P> <E1, E1> c, so sigma' = alpha m + beta E'(theta) with
    alpha = sqrt(v) a' / r and beta = r theta'.  The first integral of the
    curvature ODE reads D - v a'^2 = 16 sqrt(k) / |C|, so unit speed gives
    theta' = 4 k^(1/4) / (sqrt|C| D), with ``rate`` = 4 / sqrt|C|.  ``rhs``
    is the right-hand side of the chart's (k, k', theta) runs on the model
    of curvature ``c``, bound to these constants when the chart is made.
    """

    P: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    hyperbolic: bool
    c: int
    d0: float
    d2: float
    v: float
    sc: float
    rate: float
    rhs: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        angle = (self.rate, self.d0, self.d2 * (self.sc * self.sc))
        object.__setattr__(self, "rhs", _run_rhs(self.c, angle))

    def dtheta(self, k):
        """theta' at k, a float or an array: component 2 of ``rhs``, which
        does not read k' there."""
        return self.rhs(None, (k, 0.0))[2]

    def state(self, y) -> np.ndarray:
        """(k, k', sigma, T, n) of chart states (k, k', theta); T and n are
        normalized, as alpha^2 + beta^2 = 1 holds only up to the drift of C."""
        k, kp, theta = y[..., 0], y[..., 1], y[..., 2]
        a, ap = _amplitude(self.sc, k, kp)
        r = np.sqrt(self.d0 + self.d2 * (a * a))
        cos, sin, sign = (np.cosh, np.sinh, 1.0) if self.hyperbolic else (np.cos, np.sin, -1.0)
        cs, sn = cos(theta)[..., None], sin(theta)[..., None]
        E = cs * self.E1 + sn * self.E2
        E_theta = sign * sn * self.E1 + cs * self.E2
        m = (r[..., None] * self.P + (self.d2 * a)[..., None] * E) / np.sqrt(self.v)
        alpha, beta = np.sqrt(self.v) * ap / r, r * self.dtheta(k)
        speed = np.hypot(alpha, beta)
        alpha, beta = (alpha / speed)[..., None], (beta / speed)[..., None]
        return np.concatenate([
            y[..., :2],
            a[..., None] * self.P + r[..., None] * E,
            alpha * m + beta * E_theta,
            beta * m - alpha * E_theta,
        ], axis=-1)


def _chart(branch: Branch, c: int, C: float) -> _Chart:
    """The polar chart of the branch's profile on the model of curvature c."""
    P, E1, E2 = BY_BRANCH[branch].constants[2:]
    inner = BY_BRANCH[branch].space.inner
    p, e = float(inner(P, P)), float(inner(E1, E1))
    return _Chart(P, E1, E2, hyperbolic=e < 0, c=c, d0=e * c, d2=-e * p, v=p * e * c,
                  sc=_amplitude_scale(branch, C), rate=4.0 / math.sqrt(abs(C)))


@dataclass(frozen=True, eq=False)
class ProfileCurve:
    """Unit-speed curve on the model quadric with prescribed curvature.

    ``state(u)`` returns (k, k', sigma[4], T[4], n[4]): the curve, its
    velocity and the in-plane unit normal, with T' = k n - c sigma, from the
    branch's polar chart (``_Chart``) at the run's (k, k', theta), so sigma
    lies on the quadric and meets the constraint equations up to rounding.
    ``curvature`` is the record of that run (:class:`CurvatureSolution`):
    ``span`` and ``u`` are its covered span and steps, and ``state`` reads
    its dense evaluator, the DOP853 interpolants of all steps computed once
    and evaluated in one vectorized pass; every (k, k', theta) is
    bit-identical to scipy's ``OdeSolution`` of the same run.  A u outside
    ``span``, or not finite, raises ``DomainError``.
    """

    model: SpaceForm
    branch: Branch
    C: float
    C1: np.ndarray
    C2: np.ndarray
    curvature: CurvatureSolution
    _chart: _Chart

    @property
    def span(self) -> tuple[float, float]:
        return self.curvature.span

    @property
    def u(self) -> np.ndarray:
        return self.curvature.u

    def state(self, u):
        return self._chart.state(self.curvature._dense(u))

    def k(self, u):
        return self.curvature.k(u)

    def kp(self, u):
        return self.curvature.kp(u)

    def sigma(self, u):
        return self.state(u)[..., 2:6]

    def constraint_residuals(self, u) -> dict:
        """Residuals of the constraint equations, the quadric and unit speed at u."""
        return self._constraint_residuals(self.state(u))

    def _constraint_residuals(self, st) -> dict:
        """``constraint_residuals`` from already evaluated joint states; the
        family's constraints are <sigma, C1> = s1 a and <sigma, C2> = s2 a."""
        k, sig, vel = st[..., 0], st[..., 2:6], st[..., 6:10]
        a = _amplitude(self._chart.sc, k, st[..., 1])[0]
        s1, s2 = BY_BRANCH[self.branch].constraint
        inner = self.model.inner
        return {
            "constraint_c1": inner(sig, self.C1) - s1 * a,
            "constraint_c2": inner(sig, self.C2) - s2 * a,
            "model_membership": inner(sig, sig) - self.model.quadric_target,
            "unit_speed": inner(vel, vel) - 1.0,
        }


def reconstruct_profile(
    sol: CurvatureProblem | CurvatureSolution,
    branch: Branch | str,
    C: float | None = None,
) -> ProfileCurve:
    """Integrate the profile curve whose curvature starts at sol's data.

    Only ``(c, C, k0, kp0, span, rel_tol, abs_tol)`` are read from ``sol``:
    a :class:`CurvatureProblem` (a pipeline build) or a solved
    :class:`CurvatureSolution`, whose covered span becomes the target.
    (k, k') are integrated again, jointly with the chart angle theta and
    with the events of :func:`solve_curvature`, so the curve may stop where
    k reaches its floor or leaves the admissible set; the
    constant-curvature (CMC) check reads that run's k' samples.

    The curve is the canonical representative: theta starts at 0 and grows,
    and n has the sign of <sigma, C1> along C1.  Initial data whose chart
    radius squared D is not positive at u = 0 raise ``ConstructionError``.
    """
    try:
        branch = Branch(branch)
    except ValueError:
        names = ", ".join(b.value for b in Branch)
        raise UsageError(f"unknown profile branch {branch!r}; expected one of {names}") from None
    family = BY_BRANCH[branch]
    model = family.space
    if model.c != sol.c:
        raise UsageError(
            f"branch {branch.value} needs a curvature solution with "
            f"c = {model.c}, got c = {sol.c}"
        )
    if C is not None and not abs(_real(C, "C") - sol.C) <= 1e-9 * max(1.0, abs(sol.C)):
        raise UsageError("supplied constant C disagrees with the solution's")
    C = sol.C
    if not family.admits(C):
        raise UsageError(family.wrong_sign)
    c = model.c
    chart = _chart(branch, c, C)
    a0 = _amplitude(chart.sc, sol.k0, sol.kp0)[0]
    D0 = float(chart.d0 + chart.d2 * (a0 * a0))
    if not D0 > 0:
        raise ConstructionError(
            f"infeasible start: the chart radius squared D = {D0!r} at u = 0 is not positive"
        )
    curvature = _integrate_two_sided(sol, chart.rhs, [sol.k0, sol.kp0, 0.0],
                                     _event_functions(C, c))
    if np.max(np.abs(curvature.kp_samples)) < 1e-14:
        raise UsageError("constant-curvature solution: the surface would be CMC")

    C1, C2 = family.constants[:2]
    return ProfileCurve(
        model=model,
        branch=branch,
        C=C,
        C1=C1.copy(),
        C2=C2.copy(),
        curvature=curvature,
        _chart=chart,
    )
