"""Explicit ambient parametrizations assembled from profile data.

Every built patch is a sweep X = sigma(u) + a(u) S(v) of a profile curve
along the orbits S of a one-parameter isometry group: rotations about an
axis of R3, circles in S3 and in H3 with C > 0, exponential orbits in H3
with C < 0 (the last two in the plane of the constant vectors C1, C2).
One evaluator, ``_sweep_evaluators``, gives X and its partials of orders
one to four; a family supplies only its orbit and its u-line.  The flat
family's u-line is closed form in the profile's regular chart t, the curved
families' takes a'' to a'''' from the amplitude's own ODE (see
``_sweep_uline``).  Evaluation is split into a u-dependent part
(``uline``) and a cheap v-assembly (``at``, ``jet``, ``jet4``) so callers
that probe many v values per u can reuse the dense-output evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ambient import SpaceForm
from .defaults import SPAN_LIMIT
from .errors import DomainError, UsageError, _pair
from .families import BY_BRANCH, FAMILIES
from .profile import ProfileCurve, RevolutionProfile, _amplitude

__all__ = [
    "SurfacePatch",
    "build_r3_revolution",
    "build_s3",
    "build_h3",
]


@dataclass(frozen=True, eq=False)
class SurfacePatch:
    """Evaluable parametrization with analytic partials up to order 4.

    ``u_range`` x ``v_range`` is the parameter rectangle and the evaluable
    domain: the verifier's grid and the point API read the patch there
    alone.  A built patch's v range has both ends within ``SPAN_LIMIT`` of
    0; on h3_parabolic the orbit's e^v overflows before that bound, which
    the verifier meets as a ``ConditioningError``.  ``profile`` is the
    profile swept, which holds C and the sweep constants; it is None on a
    patch from outside the family table.

    Broadcasting contract: ``at(uline(u), v)`` broadcasts the u-line against
    ``v`` by numpy rules and returns (X, Xu, Xv), each of shape
    ``broadcast(u, v).shape + (dim,)``.  Callers evaluate a tensor grid by
    passing u of shape (nu, 1) and v of shape (1, nv), so the u-dependent
    part (dense output of the profile) runs once per distinct u.

    ``jet`` and ``jet4`` follow the same contract: ``jet(uline(u), v)``
    returns the second partials (Xuu, Xuv, Xvv) and ``jet4(uline(u), v)``
    the partials of orders 3 and 4, ordered by the number of v derivatives:
    (Xuuu, Xuuv, Xuvv, Xvvv, Xuuuu, Xuuuv, Xuuvv, Xuvvv, Xvvvv).  The
    verifier takes the mean curvature and its derivatives from them in
    closed form.  It evaluates one u-line on the grid's column and
    evaluates ``at``, ``jet`` and ``jet4`` in blocks of u-rows by slicing
    each u-line entry along its first axis, so every entry of a u-line has
    u's first axis.

    A built patch's u-line is (sigma, T, a, a', T', a'', sigma''', a''',
    sigma'''', a''''), T = sigma': the profile, the sweep amplitude and
    their u-derivatives, vectors of shape u.shape + (dim,) and scalars of
    u's shape.
    """

    case: str
    model: SpaceForm
    u_range: tuple[float, float]
    v_range: tuple[float, float]
    uline: Callable[[np.ndarray], tuple]
    at: Callable[[tuple, np.ndarray], tuple]
    jet: Callable[[tuple, np.ndarray], tuple]
    jet4: Callable[[tuple, np.ndarray], tuple]
    profile: object = None

    def frame(self, u, v):
        """(X, Xu, Xv) at parameter arrays that broadcast against each other."""
        return self.at(self.uline(np.asarray(u, float)), np.asarray(v, float))

    def X(self, u, v):
        return self.frame(u, v)[0]


def _grid_size(nu, nv) -> tuple[int, int]:
    """(nu, nv) of a sampling grid as ints: integers >= 2, bools refused."""
    for n in (nu, nv):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
            raise UsageError(f"the grid needs integers nu, nv >= 2, got {nu!r} x {nv!r}")
    return int(nu), int(nv)


def _v_range(v_range) -> tuple[float, float]:
    """(v0, v1) of a sweep's v range as floats: a finite pair of nonzero
    width, with both ends within ``SPAN_LIMIT`` of 0, as a span's."""
    v0, v1 = _pair(v_range, "v_range")
    if not (math.isfinite(v0) and math.isfinite(v1)):
        raise UsageError(f"v_range must be finite, got {v_range!r}")
    if max(abs(v0), abs(v1)) > SPAN_LIMIT:
        raise UsageError(f"v_range ends must lie within +-{SPAN_LIMIT:g} of 0, got {v_range!r}")
    if v0 == v1:
        raise UsageError(f"v_range must have nonzero width, got {v_range!r}")
    return v0, v1


def build_r3_revolution(prof: RevolutionProfile, rect) -> SurfacePatch:
    """Surface of revolution (rho cos v, rho sin v, z) over a t-v rect.

    It is the sweep of sigma = (0, 0, z(t)) with amplitude a = rho(t) along
    the rotation orbit (cos v, sin v, 0), in the profile's regular chart t
    (see ``RevolutionProfile``): rho = R s^3 and z' = 3 R s with
    R = C^(-3/2), s = sqrt(1 + t^2), so every t-derivative is closed form.
    The chart is valid on [-t_max, t_max], waist t = 0 included.
    """
    (t0, t1), v_range = rect
    if not t0 < t1:
        raise UsageError("empty t range")
    t_max = prof.t_max
    if t0 < -t_max or t1 > t_max:
        raise DomainError(f"t range exceeds the profile's chart [-{t_max}, {t_max}]")
    R = prof.rho_min

    def uline(t):
        t = np.asarray(t, dtype=float)
        s2 = 1.0 + t * t
        s = np.sqrt(s2)
        s3, s5 = s * s2, s * s2 * s2
        zero = np.zeros_like(t)

        def axis(height):
            return np.stack([zero, zero, height], axis=-1)

        # z and rho = R s^3 interleaved with their t-derivatives of orders 1-4
        return (axis(prof.height(t)), axis(3.0 * R * s), R * s * s2, 3.0 * R * t * s,
                axis(3.0 * R * t / s), 3.0 * R * (1.0 + 2.0 * t * t) / s,
                axis(3.0 * R / s3), 3.0 * R * t * (3.0 + 2.0 * t * t) / s3,
                axis(-9.0 * R * t / s5), 9.0 * R / s5)

    return _sweep_patch(prof, "r3_revolution", (float(t0), float(t1)), v_range, uline)


# u-line positions of sigma^(i) and a^(i), i = 0..4
_SIGMA = (0, 1, 4, 6, 8)
_AMPLITUDE = (2, 3, 5, 7, 9)


def _sweep_evaluators(orbit, *constants):
    """(at, jet, jet4) of X(u, v) = sigma(u) + a(u) S(v).

    ``orbit(v, *constants)`` returns (S, S', S'', S''', S''''), and the
    u-line holds sigma^(i) and a^(i) at ``_SIGMA[i]`` and ``_AMPLITUDE[i]``.
    Each partial is X_{u^i v^j} = sigma^(i) [j = 0] + a^(i) S^(j); sigma^(i)
    is added into the fresh product a^(i) S^(j), never into a u-line entry.
    """

    def partials(line, v, orders):
        S = orbit(v, *constants)
        out = []
        for i, j in orders:
            t = line[_AMPLITUDE[i]][..., None] * S[j]
            if j == 0:
                t += line[_SIGMA[i]]
            out.append(t)
        return tuple(out)

    def at(line, v):
        return partials(line, v, ((0, 0), (1, 0), (0, 1)))

    def jet(line, v):
        return partials(line, v, ((2, 0), (1, 1), (0, 2)))

    def jet4(line, v):
        return partials(line, v, ((3, 0), (2, 1), (1, 2), (0, 3),
                                  (4, 0), (3, 1), (2, 2), (1, 3), (0, 4)))

    return at, jet, jet4


def _sweep_uline(prof: ProfileCurve, sc: float):
    """u-line of a sweep with amplitude a = sc k^(-3/4).

    The entries are (sigma, T, a, a', T', a'', sigma''', a''', sigma'''',
    a'''').  With the frame equations sigma' = T, T' = k n - c sigma and
    n' = -k T of the unit-speed profile,

        sigma''' = k' n - (k^2 + c) T,
        sigma'''' = (k'' - k^3 - c k) n - 3 k k' T + c (k^2 + c) sigma,

    with k'' = 1.75 k'^2 / k + (4c/3) k - 4 k^3 from the right-hand side of
    the profile's run (``_Chart.rhs``), which clamps k only below 1e-300,
    far under the run's ``K_FLOOR`` stop.  In
    w = k^(-3/4) that equation reads w'' + c w = 3 w^(-5/3), and
    w^(-5/3) = k^(5/4), w^(-8/3) = k^2.  So a = sc w has

        a'' = 3 sc k^(5/4) - c a,
        a''' = -(5 k^2 + c) a',
        a'''' = -(5 k^2 + c) a'' - 10 k k' a',

    the last two by differentiating the first along the solution.
    """
    c, rhs = prof.model.c, prof._chart.rhs

    def uline(u):
        st = prof.state(u)
        k, kp = st[..., 0], st[..., 1]
        sigma, T, n = st[..., 2:6], st[..., 6:10], st[..., 10:14]
        a, ap = _amplitude(sc, k, kp)
        app = 3.0 * sc * k**1.25 - c * a
        lin = -(5.0 * k**2 + c)
        Tp = k[..., None] * n - c * sigma
        kc, kpc = k[..., None], kp[..., None]
        sigma3 = kpc * n - (kc**2 + c) * T
        sigma4 = ((rhs(None, (k, kp))[1][..., None] - kc**3 - c * kc) * n
                  - 3.0 * kc * kpc * T + c * (kc**2 + c) * sigma)
        return (sigma, T, a, ap, Tp, app, sigma3, lin * ap, sigma4,
                lin * app - 10.0 * k * kp * ap)

    return uline


def _sweep_patch(prof, case: str, u_range, v_range, uline, *constants) -> SurfacePatch:
    """The profile ``prof`` swept along the orbits of the family ``case``
    over ``u_range`` x ``v_range``, with the u-line ``uline`` and the
    orbit's ``constants``."""
    family = FAMILIES[case]
    at, jet, jet4 = _sweep_evaluators(family.orbit, *constants)
    return SurfacePatch(case=case, model=family.space, u_range=u_range,
                        v_range=_v_range(v_range), uline=uline, at=at, jet=jet, jet4=jet4,
                        profile=prof)


def _build_sweep(prof: ProfileCurve, v_range, builder: str, kind: str) -> SurfacePatch:
    """The patch of the family of ``prof``, whose row names ``builder``; a
    ``v_range`` of None is the family's default."""
    family = BY_BRANCH[prof.branch]
    if family.builder != builder:
        raise UsageError(f"{builder} needs a {kind}-branch profile")
    return _sweep_patch(prof, family.case, prof.span,
                        family.v_range if v_range is None else v_range,
                        _sweep_uline(prof, prof._chart.sc), prof.C1, prof.C2)


def build_s3(prof: ProfileCurve, v_range=None) -> SurfacePatch:
    """Circle-swept patch X = sigma + a(u)(C1 (cos v - 1) + C2 sin v) on S3."""
    return _build_sweep(prof, v_range, "build_s3", "sphere")


def build_h3(prof: ProfileCurve, v_range=None) -> SurfacePatch:
    """Hyperboloid patch; circle-swept for C > 0, exponential for C < 0.

    The exponential orbits grow without bound in v and the parametrization
    is local, so meshes over v ranges much wider than the default [-1, 1]
    may self-overlap.
    """
    return _build_sweep(prof, v_range, "build_h3", "hyperbolic")
