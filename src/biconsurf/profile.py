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
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .ambient import H3, S3, SpaceForm
from .curvature import (
    CurvatureProblem,
    CurvatureSolution,
    _clamped_k,
    _event_functions,
    _integrate_two_sided,
    ode_rhs,
    prime_poly,
)
from .errors import (
    ConstructionError,
    DomainError,
    InfeasibleError,
    SplitRangeError,
    UsageError,
)

if TYPE_CHECKING:
    from scipy.integrate import OdeSolution

__all__ = [
    "RevolutionProfile",
    "revolution_profile",
    "Branch",
    "ProfileCurve",
    "reconstruct_profile",
    "profile_oracle_dxdk",
    "oracle_deviation",
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
    if C <= 0:
        raise DomainError("the profile constant C must be positive")
    try:
        waist = float(C) ** -1.5
    except OverflowError:
        raise DomainError(f"the waist radius C^(-3/2) is not finite for C={C!r}") from None
    if rho_max <= waist:
        raise DomainError("rho_max must exceed the waist radius C^(-3/2)")
    return RevolutionProfile(C=float(C), rho_max=float(rho_max))


# ---------------------------------------------------------------------------
# curved models: profile curves in their polar chart
# ---------------------------------------------------------------------------


class Branch(str, enum.Enum):
    S2 = "s2"
    H2_ELLIPTIC = "h2_elliptic"
    H2_PARABOLIC = "h2_parabolic"


_E = np.eye(4)

# per branch, the constants (C1, C2) of the canonical representative and the
# (P, E1, E2) of its polar chart: <P, C1> = 1 (-1 on h2_parabolic), and P,
# E1, E2 are orthogonal to each other and to the plane normal (C2, or C1 - C2
# on h2_parabolic); E1 is timelike on h2_elliptic
_BRANCH_CONSTANTS = {
    Branch.S2: (_E[2], _E[3], _E[2], _E[0], _E[1]),
    Branch.H2_ELLIPTIC: (_E[1], _E[0], _E[1], _E[3], _E[2]),
    Branch.H2_PARABOLIC: (_E[0] + _E[3], _E[1] + _E[3],
                          _E[0] + _E[1] + 2.0 * _E[3], _E[0] + _E[1] + _E[3], _E[2]),
}


def _branch_model(branch: Branch) -> SpaceForm:
    return S3 if branch is Branch.S2 else H3


def _amplitude_scale(branch: Branch, C: float) -> float:
    """sc of the sweep amplitude a = sc k^(-3/4), on the circle branches 1/kappa2."""
    if branch is Branch.H2_PARABOLIC:
        return 2.0 * math.sqrt(2.0) / (3.0 * math.sqrt(-C))
    return 4.0 / (3.0 * math.sqrt(C))


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
    theta' = 4 k^(1/4) / (sqrt|C| D), with ``rate`` = 4 / sqrt|C|.
    """

    P: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    hyperbolic: bool
    d0: float
    d2: float
    v: float
    sc: float
    rate: float

    def dtheta(self, k):
        """theta' at k, a float while stepping or an array in the interpolant
        pass: its powers are square roots, so both paths round alike."""
        sqrt = math.sqrt if isinstance(k, float) else np.sqrt
        s = sqrt(k)
        ks = k * s  # k^(3/2), and D = (d0 ks + d2 sc^2) / ks
        return self.rate * sqrt(s) * ks / (self.d0 * ks + self.d2 * (self.sc * self.sc))

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
    P, E1, E2 = _BRANCH_CONSTANTS[branch][2:]
    inner = _branch_model(branch).inner
    p, e = float(inner(P, P)), float(inner(E1, E1))
    return _Chart(P, E1, E2, hyperbolic=e < 0, d0=e * c, d2=-e * p, v=p * e * c,
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

    def velocity(self, u):
        return self.state(u)[..., 6:10]

    def normal(self, u):
        return self.state(u)[..., 10:14]

    def constraint_target(self, k):
        """Required <sigma, C1> at k: the sweep amplitude, negated on h2_parabolic."""
        a = _amplitude_scale(self.branch, self.C) * np.asarray(k, dtype=float) ** -0.75
        return -a if self.branch is Branch.H2_PARABOLIC else a

    def constraint_residuals(self, u) -> dict:
        """Residuals of the constraint equations, the quadric and unit speed at u."""
        return self._constraint_residuals(self.state(u))

    def _constraint_residuals(self, st) -> dict:
        """``constraint_residuals`` from already evaluated joint states."""
        k, sig, vel = st[..., 0], st[..., 2:6], st[..., 6:10]
        target = self.constraint_target(k)
        inner = self.model.inner
        parabolic = self.branch is Branch.H2_PARABOLIC
        return {
            "constraint_c1": inner(sig, self.C1) - target,
            "constraint_c2": inner(sig, self.C2) - (target if parabolic else 0.0),
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
    branch = Branch(branch)
    model = _branch_model(branch)
    if model.c != sol.c:
        raise UsageError(
            f"branch {branch.value} needs a curvature solution with "
            f"c = {model.c}, got c = {sol.c}"
        )
    if C is not None and abs(C - sol.C) > 1e-9 * max(1.0, abs(sol.C)):
        raise UsageError("supplied constant C disagrees with the solution's")
    C = sol.C
    if branch is Branch.H2_PARABOLIC:
        if C >= 0:
            raise UsageError("the exponential branch requires C < 0")
    elif C <= 0:
        raise UsageError(f"branch {branch.value} requires C > 0")
    c = model.c
    chart = _chart(branch, c, C)
    a0 = _amplitude(chart.sc, sol.k0, sol.kp0)[0]
    D0 = float(chart.d0 + chart.d2 * (a0 * a0))
    if not D0 > 0:
        raise ConstructionError(
            f"infeasible start: the chart radius squared D = {D0!r} at u = 0 is not positive"
        )

    def rhs(u, y):
        k, kp, theta = y
        k = _clamped_k(k)
        return [kp, ode_rhs(k, kp, c), chart.dtheta(k)]

    curvature = _integrate_two_sided(sol, rhs, [sol.k0, sol.kp0, 0.0], _event_functions(C, c))
    if np.max(np.abs(curvature.kp_samples)) < 1e-14:
        raise UsageError("constant-curvature solution: the surface would be CMC")

    C1, C2 = _BRANCH_CONSTANTS[branch][:2]
    return ProfileCurve(
        model=model,
        branch=branch,
        C=C,
        C1=C1.copy(),
        C2=C2.copy(),
        curvature=curvature,
        _chart=chart,
    )


# ---------------------------------------------------------------------------
# independent oracle: first-order ODE in the k parameter (sphere branch)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleCurve:
    """x(k) from the reduced first-order ODE, with y recovered by the quadric.

    ``x`` reads the dense output (``OdeSolution``) of scipy's own
    ``solve_ivp`` run, so the oracle shares no integration code with the
    profile curves it checks.
    """

    C: float
    sign: int
    y_sign: int
    k_range: tuple[float, float]
    _sol: OdeSolution

    def x(self, k):
        k = np.asarray(k, dtype=float)
        flat = k.ravel()
        # OdeSolution cannot evaluate an empty array
        x = (self._sol(flat)[0] if flat.size else flat).reshape(k.shape)
        return x if k.ndim else float(x)

    def y(self, k):
        k = np.asarray(k, dtype=float)
        x = self.x(k)
        disc = 1.0 - x**2 - 16.0 / (9.0 * self.C) * k**-1.5
        return self.y_sign * np.sqrt(np.maximum(disc, 0.0))


def _dxdk_rhs(C: float, sign: int):
    def rhs(k, x):
        den = 9.0 * C * k**1.5 - 16.0
        rad1 = -9.0 * C * k**1.5 * x[0] ** 2 + 9.0 * C * k**1.5 - 16.0
        rad2 = 9.0 * C * k**1.5 - 144.0 * k**2 - 16.0
        rad1 = max(rad1, 0.0)
        rad2 = max(rad2, 1e-300)
        return [
            12.0 * x[0] / (k * den)
            + sign * 36.0 * np.sqrt(rad1) / (den * np.sqrt(rad2))
        ]

    return rhs


def profile_oracle_dxdk(
    x0: float,
    k_range: tuple[float, float],
    C: float,
    sign: int = 1,
    y_sign: int = 1,
    rel_tol: float = 1e-11,
) -> OracleCurve:
    """Integrate the reduced dx/dk equation on a strictly monotone arc.

    ``k_range`` must avoid both the turning-point locus (where the prime
    integral polynomial vanishes and the square root in the equation blows
    up) and the curve C1-pole where 9 C k^(3/2) = 16.  The result is meant
    purely as an independent cross-check of the profile integration, and the
    one caller of scipy in the package: it imports scipy's ``solve_ivp``
    here, so that importing biconsurf and running its pipelines do not.
    """
    from scipy.integrate import solve_ivp

    k_a, k_b = float(k_range[0]), float(k_range[1])
    if k_a == k_b:
        raise UsageError("k_range must be nondegenerate")
    lo, hi = min(k_a, k_b), max(k_a, k_b)
    probe = np.linspace(lo, hi, 257)
    den = 9.0 * C * probe**1.5 - 16.0
    if np.any(den <= 0) and np.any(den >= 0):
        raise SplitRangeError("k range crosses the pole 9 C k^(3/2) = 16")
    turn = prime_poly(probe, C, 1)
    if np.any(turn <= 0):
        raise SplitRangeError(
            "k range touches a turning point of the curvature solution; "
            "split the arc at the turning point"
        )
    rad1 = -9.0 * C * probe**1.5 * x0**2 + 9.0 * C * probe**1.5 - 16.0
    if rad1[np.argmin(np.abs(probe - k_a))] < -1e-12:
        raise InfeasibleError("initial point violates the quadric inequality")

    res = solve_ivp(
        _dxdk_rhs(C, sign),
        (k_a, k_b),
        [float(x0)],
        method="DOP853",
        dense_output=True,
        rtol=rel_tol,
        atol=1e-13,
    )
    if not res.success:
        raise InfeasibleError(f"oracle integration failed: {res.message}")
    return OracleCurve(
        C=C, sign=sign, y_sign=y_sign, k_range=(k_a, k_b), _sol=res.sol
    )


def oracle_deviation(
    prof: ProfileCurve,
    u_start: float,
    u_end: float,
    n: int = 200,
) -> dict:
    """Max deviation between the profile curve and the k-parameter oracle.

    Valid only on the sphere branch and on arcs where k is strictly
    monotone.  The equation's sign ambiguity is resolved by matching the
    profile's dx/dk at the start of the arc, and the y branch by the profile's
    y sign there; both are degenerate exactly where y = 0, so pick an arc
    start away from that locus.
    """
    if prof.branch is not Branch.S2:
        raise UsageError("the k-parameter oracle applies to the sphere branch")
    u = np.linspace(u_start, u_end, n)
    st = prof.state(u)
    k, kp = st[..., 0], st[..., 1]
    if np.any(kp == 0) or np.max(kp) * np.min(kp) < 0:
        raise SplitRangeError("arc is not strictly monotone in k")
    x_fr, y_fr = st[..., 2], st[..., 3]

    k0, kp0 = float(k[0]), float(kp[0])
    x0 = float(x_fr[0])
    slope = float(st[0, 6]) / kp0  # dx/dk from the profile at the arc start
    cands = {s: _dxdk_rhs(prof.C, s)(k0, [x0])[0] for s in (1, -1)}
    sign = min(cands, key=lambda s: abs(cands[s] - slope))
    y_sign = 1 if y_fr[0] >= 0 else -1

    oracle = profile_oracle_dxdk(x0, (k0, float(k[-1])), prof.C, sign, y_sign)
    return {
        "x": float(np.max(np.abs(oracle.x(k) - x_fr))),
        "y": float(np.max(np.abs(oracle.y(k) - y_fr))),
        "sign": sign,
    }
