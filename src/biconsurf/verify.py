"""Coordinate-free numerical verification of surface patches.

Everything here is computed from the patch evaluators alone (position,
analytic first partials and the analytic partials of orders 2 to 4 of the
patch's ``jet`` and ``jet4``); how the patch was built never enters except
through its family's profile.  On every patch of the family table the
row ``f_vs_profile`` reads f = 2k, k the profile's curvature, one formula
for every family: the geodesic curvature of the S3 and H3 profiles, and
on r3 the meridian's, (1/3) C^(3/2) / (1 + t^2)^2 in the chart t, which
``test_meridian_curvature_meets_the_flat_first_integral`` ties to the
flat curvature ODE.  With ``gauss_identity`` it fixes K = -(3/4) f^2 + c.

The mean curvature f, grad f and Delta f are closed-form at each point
(from the Weingarten equation and the derivatives of the metric and second
form, see ``_jet_f_derivatives``).  So the single-point interface takes no
step: it runs the grid path once on a one-point grid anywhere in the
patch's rectangle, the evaluable domain.  Its ``PointGeometry`` holds each
``_gate_rows`` row's signed value at the point (``residuals``) and the
rows whose mask drops the point (``masked``), so a point value equals the
grid value there bit for bit.

The jets are never trusted unchecked.  On every patch of the family table
required rows certify them, and none of them takes a step.

On a built S3 or H3 patch (one whose ``profile`` is a ``ProfileCurve``)
``quadric_jet`` differentiates <X, X> = 1/c to the orders 1-4 at every grid
point (``_quadric_jet``, from the tables the f derivatives already form),
and ``profile_jet`` checks, on the grid's u-line, the profile's constraint
chain <sigma^(i), C_j> = s_j a^(i), the orders 3 and 4 of its unit-speed
chain and its speed before ``_Chart.state`` normalizes it
(``_profile_jet``).  The argument that these rows, with the tier-1 tests
named, certify the curved jets has four steps:

1. The quadric (the sigma direction), the constraints (C1, and C2 on
   h3_parabolic) and unit speed (the T direction) fix every sigma^(i) with
   i >= 2 from sigma, sigma' and a^(i), wherever sigma, sigma' and C1 are
   independent; on the circle branches the direction of C2 is held by
   construction, as every sigma^(i) is a combination of sigma, T and n.
2. sigma' = T is the derivative of sigma(u): the speed row holds
   alpha^2 + beta^2 = 1 with the theta' that the chart's run integrates,
   and ``test_theta_is_the_quadrature_of_its_rate`` checks that theta(u) is
   the integral of that theta' (``test_frame_equations`` differences sigma).
3. The a^(i) are closed forms in k and k', and k' is the derivative of k:
   the runs equal scipy's DOP853 bit for bit and meet the k-parameter
   oracle (tests/conftest.py).
4. The v-orbit's derivatives are closed forms, and the quadric's pure-v
   chains check them.

On r3 (``profile`` a ``RevolutionProfile``) ``profile_jet`` checks the
closed-form chains of the u-line in the profile's regular chart t, with
R = C^(-3/2) and sigma = (0, 0, z) (``_revolution_jet``): sigma^(i) on the
rotation axis; z'^2 = 9 R^2 (1 + t^2) and its t-derivatives of orders 1-3,
z' z'' = 9 R^2 t, z' z''' + z''^2 = 9 R^2 and z' z'''' + 3 z'' z''' = 0;
rho^(i+1) = t z^(i+1) + i z^(i) for i = 0..3; and 27 R^2 rho = z'^3 with
rho > 0.  The argument that they certify the r3 jets has four steps as
well:

1. z'^2 = 9 R^2 (1 + t^2), 27 R^2 rho = z'^3 and rho > 0 fix
   z' = 3 R sqrt(1 + t^2), which is at least 3R, so the z chain fixes z''
   to z'''' from z', and the rho rows fix rho to rho'''' from z' to z''''.
   Each row of a chain is the t-derivative of the one before it, so the
   entries are the t-derivatives of z' and of rho = z'^3 / (27 R^2).
2. z' is the derivative of the height z(t):
   ``test_height_is_the_quadrature_of_its_rate``.
3. The rotation orbit's derivatives are closed forms:
   ``test_rotation_orbit_derivatives`` checks S' = J S, S'' = -S,
   S''' = -S' and S'''' = S.
4. The sweep assembly X_(u^i v^j) = sigma^(i) [j = 0] + a^(i) S^(j) is the
   curved families', whose ``quadric_jet`` checks it.

Every u-line and chart mutation of tests/test_verify.py fails these rows,
each entry of an r3 u-line but the height scaled by 1 + 1e-6 among them.
What they cannot see is a tangential error in the order-4 partials Xuuuv
and Xuvvv, which lie along Xv on every sweep: no row reads it (the f
derivatives read order 4 only through <X_ijkl, eta>).

A patch from outside the family table (a hand-written one, say) has no
profile, so it gets neither ``f_vs_profile`` nor a jet row, and its report
says so in a note: its jets are the caller's contract, as its first
partials are.  tests/test_verify.py keeps a finite-difference
oracle of the builders' closed-form jets.

Each grid is read through one ``_Probe``, which calls the patch's ``uline``
once, so a ``verify_patch`` makes two ``uline`` calls: the orientation
point and the grid.  The grid's per-point pass (``_shape``,
``_field_bundle`` and ``_gate_rows``) runs over blocks of u-rows of about
``_BLOCK_POINTS`` = 4096 points, so a 64 x 64 grid is one block; the
closed-form f derivatives and ``quadric_jet`` go in sub-blocks of half a
block.  A block probe slices the grid probe's u-line and makes no
``uline`` call.  Each block writes its values and masks into full-grid
arrays, and every reduction (``_summary``, the relative floor, the
bitension statistics, the gate counts) runs once on those, so the block
sizes change no output bit.  The working set of each stage is block-sized;
beside it ``verify_patch`` holds the full-grid values, masks and kept
fields.  A grid whose blocks hold different defects raises the
``ConditioningError`` of the first such block.

Sign conventions
----------------
The unit normal is oriented once per patch (from the rectangle midpoint) so
that the mean curvature is positive where it is nonzero, then extended by
continuity of the underlying cofactor construction.  The Laplacian is
reported in the geometer's sign, Delta = -trace(Hessian), i.e. minus the
divergence-form coordinate Laplacian.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .ambient import Signature, SpaceForm, _cofactor_complement
from .defaults import EIGEN_DEGENERACY, NONCMC_GATE, REPORT_SCHEMA
from .errors import ConditioningError, UsageError, _real
from .families import BY_BRANCH, TOL_PROFILES
from .profile import ProfileCurve, RevolutionProfile
from .surfaces import _AMPLITUDE, _SIGMA, SurfacePatch, _grid_size

__all__ = [
    "PointGeometry",
    "point_geometry",
    "VerificationReport",
    "verify_patch",
    "normal_sign",
]


# the report's statement of the sign of the Laplacian
_LAPLACIAN_SIGN = "geometric (minus divergence form)"


# ---------------------------------------------------------------------------
# batched geometry
# ---------------------------------------------------------------------------

# grid points per block of u-rows of the verifier's pass, about 1.2 kB each
# (frames, field bundle, gate rows).  The closed-form f-derivatives and
# quadric_jet hold 1.4 kB per point on top of that, so their sub-blocks are
# half a block
_BLOCK_POINTS = 4096


class _Probe:
    """Tensor-grid evaluation with the grid's u-line in one call.

    ``uline`` runs once, on the column u (shape (nu, 1)).  ``at``, ``jet``
    and ``jet4`` broadcast it against the v-row (shape (1, nv)), and their
    triples come back flattened to (nu * nv, dim) in u-major order, the
    layout of the verifier's grids.  ``block`` gives the probe on a block of
    u-rows, its u-line cut along the first axis, as the SurfacePatch
    contract allows.
    """

    def __init__(self, patch: SurfacePatch, ugrid: np.ndarray, vgrid: np.ndarray):
        self.patch = patch
        self.u = np.asarray(ugrid, dtype=float)[:, None]
        self.v = np.asarray(vgrid, dtype=float)[None, :]
        self.shape = (self.u.shape[0], self.v.shape[1])
        self.line = tuple(patch.uline(self.u))

    def block(self, rows: slice) -> _Probe:
        """The probe on the u-rows ``rows`` of this grid; its u-line is this
        probe's, sliced, so it makes no ``uline`` call."""
        blk = copy.copy(self)
        blk.u = self.u[rows]
        blk.shape = (blk.u.shape[0], self.shape[1])
        blk.line = tuple(np.asarray(entry)[rows] for entry in self.line)
        return blk

    def frame(self):
        """(X, Xu, Xv) on the grid."""
        return self._grid_eval("at")

    def jet(self):
        """(Xuu, Xuv, Xvv) on the grid."""
        return self._grid_eval("jet")

    def jet4(self):
        """The nine partials of orders 3 and 4 on the grid."""
        return self._grid_eval("jet4")

    def _grid_eval(self, name: str):
        """``name``(line, v), whose entries must have shape ``shape`` + (dim,),
        flattened to (nu * nv, dim)."""
        try:
            out = getattr(self.patch, name)(self.line, self.v)
        except ValueError as exc:
            raise self._contract_error(name, f"numpy said: {exc}") from exc
        if any(np.shape(a)[:-1] != self.shape for a in out):
            raise self._contract_error(name, f"got shapes {[np.shape(a) for a in out]}")
        n = self.shape[0] * self.shape[1]
        return tuple(a.reshape(n, a.shape[-1]) for a in out)

    def _contract_error(self, name: str, detail: str) -> UsageError:
        return UsageError(
            f"patch '{self.patch.case}' breaks the SurfacePatch broadcasting "
            f"contract: {name}(uline(u), v) must broadcast a (nu, 1) u-line "
            f"against a (1, nv) v-row to {self.shape} + (dim,); {detail}"
        )


def _row_blocks(nu: int, nv: int, points: int):
    """(rows, points) slices of consecutive blocks of u-rows of about
    ``points`` grid points each (one row at least) on an nu x nv grid."""
    step = max(1, points // nv)
    for r0 in range(0, nu, step):
        r1 = min(r0 + step, nu)
        yield slice(r0, r1), slice(r0 * nv, r1 * nv)


def _unit_normal(model: SpaceForm, X, Xu, Xv):
    """Raw (continuous, unnormalized-orientation) unit normal field."""
    sig = model.ambient
    n = _cofactor_complement(sig, (Xu, Xv) if model.c == 0 else (Xu, Xv, X))
    n2 = sig.inner(n, n)
    n /= np.sqrt(np.abs(n2, out=n2), out=n2)[..., None]
    return n


def _shape(pr: _Probe, sign: float) -> dict:
    """Shape data on the probe's grid from the first partials and the jet."""
    model = pr.patch.model
    inner = model.inner
    c = model.c

    X, Xu, Xv = pr.frame()
    Xuu, Xuv, Xvv = pr.jet()

    # partials too large to square (h3_parabolic's e^v at a wide v, say)
    # make det non-finite, which is refused, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        g11, g12, g22 = inner(Xu, Xu), inner(Xu, Xv), inner(Xv, Xv)
        det = g11 * g22 - g12**2
    if not np.all(np.isfinite(det)):
        raise ConditioningError("metric determinant is not finite on the grid")
    if np.any(det <= 1e-12 * np.maximum(np.abs(g11 * g22), 1e-300)):
        raise ConditioningError("metric is numerically degenerate on the grid")

    eta = _unit_normal(model, X, Xu, Xv)
    eta *= sign
    if not np.all(np.isfinite(eta)):
        raise ConditioningError("unit normal is not finite on the grid")
    if not np.all(np.isfinite(X)):
        raise ConditioningError("position X is not finite on the grid")
    if not all(np.all(np.isfinite(a)) for a in (Xuu, Xuv, Xvv)):
        raise ConditioningError("second partials of X are not finite on the grid")

    def s_ij(Xij, gij):
        """X_ij + c g_ij X, with X_ij added into the fresh product."""
        if c == 0:
            return Xij
        s = (c * gij)[..., None] * X
        s += Xij
        return s

    h11, h12, h22 = (inner(s_ij(Xij, gij), eta)
                     for Xij, gij in ((Xuu, g11), (Xuv, g12), (Xvv, g22)))

    a11 = (g22 * h11 - g12 * h12) / det
    a12 = (g22 * h12 - g12 * h22) / det
    a21 = (g11 * h12 - g12 * h11) / det
    a22 = (g11 * h22 - g12 * h12) / det

    f = a11 + a22
    detA = a11 * a22 - a12 * a21
    disc = np.sqrt(np.maximum(f**2 - 4.0 * detA, 0.0))
    return {
        "X": X, "Xu": Xu, "Xv": Xv, "eta": eta,
        "Xuu": Xuu, "Xuv": Xuv, "Xvv": Xvv,
        "g11": g11, "g12": g12, "g22": g22, "det": det,
        "h11": h11, "h12": h12, "h22": h22,
        "a11": a11, "a12": a12, "a21": a21, "a22": a22,
        "f": f, "detA": detA, "K": detA + c,
        "A2": f**2 - 2.0 * detA,
        "lam1": 0.5 * (f - disc), "lam2": 0.5 * (f + disc),
    }


def normal_sign(patch: SurfacePatch) -> float:
    """Per-patch orientation: +1/-1 so the reference-point f is positive."""
    u = 0.5 * (patch.u_range[0] + patch.u_range[1])
    v = 0.5 * (patch.v_range[0] + patch.v_range[1])
    pr = _Probe(patch, np.array([u]), np.array([v]))
    f0 = float(_shape(pr, 1.0)["f"][0])
    return -1.0 if f0 < 0 else 1.0


def _eig_direction(sh, lam):
    """Coordinate eigenvector of the shape operator for eigenvalue lam."""
    v1a, v2a = sh["a12"], lam - sh["a11"]
    v1b, v2b = lam - sh["a22"], sh["a21"]
    use_a = v1a**2 + v2a**2 >= v1b**2 + v2b**2
    v1 = np.where(use_a, v1a, v1b)
    v2 = np.where(use_a, v2a, v2b)
    norm = np.sqrt(
        np.maximum(sh["g11"] * v1**2 + 2 * sh["g12"] * v1 * v2 + sh["g22"] * v2**2,
                   1e-300)
    )
    return v1 / norm, v2 / norm


# index sums: the partial X_{i1..ir} is the one with i1 + ... + ir v's
_SUM2 = np.add.outer([0, 1], [0, 1])
_SUM3 = np.add.outer(_SUM2, [0, 1])
_SUM4 = np.add.outer(_SUM3, [0, 1])


def _table(model: SpaceForm, rows, cols) -> np.ndarray:
    """Inner products <row, col> of two lists of vector fields."""
    return np.array([[model.inner(r, c) for c in cols] for r in rows])


def _metric_tables(sh: dict, sl: slice, model: SpaceForm):
    """(g^-1, Gam[i, j, m] = <X_ij, X_m>) at the grid points ``sl`` of ``sh``."""
    X1 = [sh[name][sl] for name in ("Xu", "Xv")]
    P2 = [sh[name][sl] for name in ("Xuu", "Xuv", "Xvv")]
    g11, g12, g22, det = (sh[k][sl] for k in ("g11", "g12", "g22", "det"))
    return np.array([[g22, -g12], [-g12, g11]]) / det, _table(model, P2, X1)[_SUM2]


def _laplacian(gi, gam, F1, F2) -> np.ndarray:
    """-g^kl (f_kl - Gam^m_kl f_m), the geometer's sign, from ``_metric_tables``."""
    christoffel = np.einsum("mpn,klpn->mkln", gi, gam)
    return -np.einsum("kln,kln->n", gi, F2 - np.einsum("mkln,mn->kln", christoffel, F1))


def _jet_tables(sh: dict, sl: slice, line4: tuple, model: SpaceForm):
    """(T, Q) at the grid points ``sl``: T[i, j, k, m] = <X_ijk, X_m> and
    Q[i, j, k, l] = <X_ij, X_kl>, from the inner products of the distinct
    partials spread over all index tuples; <X_ij, X_kl> is symmetric, so its
    6 distinct products fill the 3 x 3 table."""
    X1 = [sh[name][sl] for name in ("Xu", "Xv")]
    P2 = [sh[name][sl] for name in ("Xuu", "Xuv", "Xvv")]
    inner = model.inner
    pairs = {(i, j): inner(P2[i], P2[j]) for i in range(3) for j in range(i, 3)}
    Q2 = np.array([[pairs[min(i, j), max(i, j)] for j in range(3)] for i in range(3)])
    return _table(model, line4[:4], X1)[_SUM3], Q2[_SUM2[:, :, None, None], _SUM2]


def _jet_f_derivatives(sh: dict, sl: slice, line4: tuple, tables: tuple, model: SpaceForm):
    """(F1, F2) of the mean curvature at the grid points ``sl``, whose
    ``_metric_tables`` and ``_jet_tables`` are ``tables`` = (gi, gam, T, Q).

    F1[k] = f_k and F2[k, l] = f_kl, indices 0 = u and 1 = v.  From
    identities that hold for any surface in the space form, with
    Gam_ij,m = <X_ij, X_m> (X is orthogonal to X_m):
    the Weingarten equation eta_k = -a^p_k X_p, so
    h_ij,k = <X_ijk, eta> - a^p_k Gam_ij,p; g_ij,k = Gam_ik,j + Gam_jk,i;
    a_,l = g^-1 (h_,l - g_,l a), f_l = tr a_,l, and one more derivative,
    f_kl = tr g^-1 (h_,kl - g_,kl a - g_,l a_,k - g_,k a_,l).
    """
    gi, gam, T, Q = tables
    eta = [sh["eta"][sl]]
    E3 = _table(model, line4[:4], eta)[_SUM3][..., 0, :]      # <X_ijk, eta>
    E4 = _table(model, line4[4:], eta)[_SUM4][..., 0, :]      # <X_ijkl, eta>
    a = np.array([[sh["a11"][sl], sh["a12"][sl]], [sh["a21"][sl], sh["a22"][sl]]])

    es = np.einsum
    dg = es("ikjn->ijkn", gam) + es("jkin->ijkn", gam)
    dh = E3 - es("pkn,ijpn->ijkn", a, gam)
    da = es("pqn,qkln->pkln", gi, dh - es("qrln,rkn->qkln", dg, a))
    F1 = es("ppln->ln", da)
    # the sums of order 4 accumulate in place, term by term in the order
    # written out, and the ddh terms share one einsum buffer
    ddg = es("ikljn->ijkln", T) + es("jklin->ijkln", T)
    ddg += es("ikjln->ijkln", Q)
    ddg += es("iljkn->ijkln", Q)
    term = es("pln,ijkpn->ijkln", a, T)
    ddh = E4 - term
    for spec, x, y in (("pkn,ijlpn->ijkln", a, T), ("pkln,ijpn->ijkln", da, gam),
                       ("pkn,ijpln->ijkln", a, Q)):
        ddh -= es(spec, x, y, out=term)
    F2 = es("jin,ijkln->kln", gi, ddh)
    F2 -= es("jin,irkln,rjn->kln", gi, ddg, a)
    F2 -= es("jin,irln,rjkn->kln", gi, dg, da)
    F2 -= es("jin,irkn,rjln->kln", gi, dg, da)
    return F1, F2


# one index tuple per distinct partial of orders 3 and 4, by the number of v's
_ORDER3 = ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
_ORDER4 = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1))


def _quadric_jet(sh: dict, sl: slice, line4: tuple, tables: tuple, model: SpaceForm):
    """The largest defect of the derivatives of orders 1 to 4 of
    <X, X> = 1/c at the grid points ``sl``, over the 14 distinct partials,
    relative to 1 + the largest Euclidean size of the partials of orders 3
    and 4.  With Gam, T and Q of ``_jet_f_derivatives``'s ``tables``:

        <X_i, X> = 0,   <X_ij, X> + g_ij = 0,
        <X_ijk, X> + Gam_ij,k + Gam_ik,j + Gam_jk,i = 0,
        <X_ijkl, X> + T_ijk,l + T_ijl,k + T_ikl,j + T_jkl,i
                    + Q_ij,kl + Q_ik,jl + Q_il,jk = 0.
    """
    _, gam, T, Q = tables
    inner, X = model.inner, sh["X"][sl]
    defects = [inner(sh[name][sl], X) for name in ("Xu", "Xv")]
    for name, g in (("Xuu", "g11"), ("Xuv", "g12"), ("Xvv", "g22")):
        defects.append(inner(sh[name][sl], X))
        defects[-1] += sh[g][sl]
    for P, (i, j, k) in zip(line4[:4], _ORDER3):
        defects.append(inner(P, X))
        for term in (gam[i, j, k], gam[i, k, j], gam[j, k, i]):
            defects[-1] += term
    for P, (i, j, k, m) in zip(line4[4:], _ORDER4):
        defects.append(inner(P, X))
        for term in (T[i, j, k, m], T[i, j, m, k], T[i, k, m, j], T[j, k, m, i],
                     Q[i, j, k, m], Q[i, k, j, m], Q[i, m, j, k]):
            defects[-1] += term
    worst = np.abs(defects[0])
    for d in defects[1:]:
        np.maximum(worst, np.abs(d, out=d), out=worst)
    euclid = Signature(model.ambient.dim)
    size2 = euclid.inner(line4[0], line4[0])
    for P in line4[1:]:
        np.maximum(size2, euclid.inner(P, P), out=size2)
    worst /= 1.0 + np.sqrt(size2)
    return worst


def _field_bundle(pr: _Probe, sign: float) -> dict:
    """Shape data plus the derivatives of the f-field on the probe's grid.

    grad f and the second partials of f are closed-form
    (``_jet_f_derivatives``), evaluated in sub-blocks of u-rows of about
    half ``_BLOCK_POINTS``, and Delta f comes from ``_laplacian`` with
    the Christoffel symbols of the jet; each sub-block takes grad f and
    Delta f from its own ``_metric_tables``, and, on S3 and H3, the
    ``quadric_jet`` field from the same tables.
    """
    sh = _shape(pr, sign)
    model = pr.patch.model
    nu, nv = pr.shape
    n = nu * nv
    F1, F2, G, lap = np.empty((2, n)), np.empty((2, 2, n)), np.empty((2, n)), np.empty(n)
    quadric = np.empty(n) if model.c else None
    for rows, sl in _row_blocks(nu, nv, _BLOCK_POINTS // 2):
        line4 = pr.block(rows).jet4()
        gi, gam = _metric_tables(sh, sl, model)
        tables = (gi, gam) + _jet_tables(sh, sl, line4, model)
        f1, f2 = _jet_f_derivatives(sh, sl, line4, tables, model)
        F1[:, sl], F2[:, :, sl] = f1, f2
        G[:, sl] = gi[:, 0] * f1[0] + gi[:, 1] * f1[1]
        lap[sl] = _laplacian(gi, gam, f1, f2)
        if quadric is not None:
            quadric[sl] = _quadric_jet(sh, sl, line4, tables, model)

    grad2 = F1[0] * G[0] + F1[1] * G[1]
    sh.update(
        Fu=F1[0], Fv=F1[1], Fuu=F2[0, 0], Fuv=F2[0, 1], Fvv=F2[1, 1],
        grad_u=G[0], grad_v=G[1],
        grad2=np.maximum(grad2, 0.0),
        grad_norm=np.sqrt(np.maximum(grad2, 0.0)),
        laplacian=lap,
    )
    if quadric is not None:
        sh["quadric_jet"] = quadric
    return sh


def _at_most(name, values, mask, bound, U, V):
    """max <= bound on the kept points, each of them finite."""
    entry = _summary(values, U, V, mask)
    if bound is None:
        return entry, True, []
    if entry["count"] == 0:
        return entry, False, [f"required residual '{name}' was not evaluated"]
    nonfinite = (values.size if mask is None else np.count_nonzero(mask)) - entry["count"]
    if nonfinite:
        return entry, False, [f"required residual '{name}' is not finite at "
                              f"{nonfinite} unmasked points"]
    return entry, entry["max"] <= bound, []


def _relative_floor(name, values, mask, bound, U, V):
    """min |values| > bound * max |values|, where the mask keeps over half the grid."""
    if bound is None:
        return None, True, []
    kept = int(np.count_nonzero(mask))
    if kept <= mask.size // 2:
        return None, True, [f"'{name}' skipped: {kept} of {mask.size} points are non-CMC"]
    a = np.abs(values)
    return None, bool(np.min(a) > bound * np.max(a)), []


def _positive(name, values, mask, bound, U, V):
    """values > 0 at every point, with or without a bound."""
    ok = bool(np.all(values > 0))
    return None, ok, [] if ok else [f"points with nonpositive {name} found"]


class _Gate(NamedTuple):
    """A row of the gate table.  rule(name, values, mask, bound, U, V) returns
    (the ``residuals`` entry or None, pass, notes); mask None keeps every
    point, and bound is the row's tolerance, or None where it has none."""

    values: np.ndarray
    mask: np.ndarray | None = None
    rule: Callable = _at_most


def _gate_rows(sh: dict, model: SpaceForm) -> dict:
    """{name: _Gate} of every pointwise gate on ``sh``'s grid, the one place
    their formulas and masks live; the h3 sheet row, x4 > 0, has no bound."""
    c, inner = model.c, model.inner
    f, K, A2, lam1, lam2 = (sh[k] for k in ("f", "K", "A2", "lam1", "lam2"))
    grad_norm, Gu, Gv, lap = sh["grad_norm"], sh["grad_u"], sh["grad_v"], sh["laplacian"]
    X, Xu, Xv, eta = sh["X"], sh["Xu"], sh["Xv"], sh["eta"]
    non_cmc = grad_norm > NONCMC_GATE * (1.0 + np.abs(f))
    eig_ok = np.abs(lam2 - lam1) > EIGEN_DEGENERACY * (1.0 + np.abs(f))
    north = np.maximum(
        np.abs(inner(eta, Xu)) / np.sqrt(sh["g11"]),
        np.abs(inner(eta, Xv)) / np.sqrt(sh["g22"]),
    )
    rows = {}
    if c == -1:
        rows["x4"] = _Gate(X[..., 3], rule=_positive)
    if c != 0:
        rows["model_membership"] = _Gate(inner(X, X) - model.quadric_target)
        rows["quadric_jet"] = _Gate(sh["quadric_jet"])
        north = np.maximum(north, np.abs(inner(eta, X)))
    # 2 A(grad f) + f grad f, normalized
    w1 = 2.0 * (sh["a11"] * Gu + sh["a12"] * Gv) + f * Gu
    w2 = 2.0 * (sh["a21"] * Gu + sh["a22"] * Gv) + f * Gv
    wnorm = np.sqrt(np.maximum(
        sh["g11"] * w1**2 + 2 * sh["g12"] * w1 * w2 + sh["g22"] * w2**2, 0.0
    ))
    # df along the second principal direction
    d2u, d2v = _eig_direction(sh, lam2)
    rows.update(
        normal_orthogonality=_Gate(north),
        gauss_identity=_Gate(K + 0.75 * f**2 - c),
        shape_operator_norm=_Gate(A2 - 2.5 * f**2),
        principal_values=_Gate(
            np.maximum(np.abs(lam1 + 0.5 * f), np.abs(lam2 - 1.5 * f)), non_cmc),
        biconservative=_Gate(wnorm / (1.0 + np.abs(f) * grad_norm)),
        x2f=_Gate(np.abs(sh["Fu"] * d2u + sh["Fv"] * d2v), non_cmc & eig_ok),
        pde=_Gate(f * lap + sh["grad2"] - (16.0 / 9.0) * K * (K - c), non_cmc),
        # the normal part of the bitension, nonzero off the biharmonic surfaces
        normal_bitension_min=_Gate(lap - f * A2 + 2.0 * c * f, non_cmc, _relative_floor),
    )
    return rows


def _profile_jet(patch: SurfacePatch, line: tuple, k: np.ndarray) -> np.ndarray:
    """The largest defect, at each u of the u-line ``line`` of a built curved
    patch, of the profile's step-free identities; k is the profile's
    curvature at those u.

    - The constraints <sigma, C_j> = s_j a differentiated, with the C_j of
      the patch's sweep and the s_j of its family: <sigma^(i), C_j> =
      s_j a^(i) for i = 0..4, each relative to
      1 + |sigma^(i)| |C_j| + |s_j a^(i)| (Euclidean sizes).
    - Unit speed differentiated, at the orders 3 and 4 that the chart's
      normalization of T leaves open: <sigma3, sigma1> + <sigma2, sigma2> = 0
      and <sigma4, sigma1> + 3 <sigma3, sigma2> = 0 (sigma^(i) written
      sigma_i), relative to 1 + the same sums of Euclidean sizes.
    - The speed before ``_Chart.state`` normalizes it,
      alpha^2 + beta^2 = v a'^2 / D + D theta'^2 = 1, with the theta' that
      the chart's run integrates, at k: the first integral
      D - v a'^2 = 16 sqrt(k) / |C|.
    """
    prof = patch.profile
    chart, inner = prof._chart, patch.model.inner
    norm = Signature(patch.model.ambient.dim).norm
    sigma = np.stack([line[i] for i in _SIGMA])
    amp = np.stack([line[i] for i in _AMPLITUDE])
    size, size_a = norm(sigma), np.abs(amp)
    defects = []
    for C, s in zip((prof.C1, prof.C2), BY_BRANCH[prof.branch].constraint):
        scale = 1.0 + float(norm(C)) * size + abs(s) * size_a
        defects.extend((inner(sigma, C) - s * amp) / scale)
    _, d1, d2, d3, d4 = sigma
    _, n1, n2, n3, n4 = size
    defects.append((inner(d3, d1) + inner(d2, d2)) / (1.0 + n3 * n1 + n2 * n2))
    defects.append((inner(d4, d1) + 3.0 * inner(d3, d2)) / (1.0 + n4 * n1 + 3.0 * n3 * n2))
    D = chart.d0 + chart.d2 * amp[0] ** 2
    defects.append(chart.v * amp[1] ** 2 / D + D * chart.dtheta(k.reshape(D.shape)) ** 2 - 1.0)
    return np.max(np.abs(defects), axis=0).ravel()


def _revolution_jet(R: float, t: np.ndarray, line: tuple) -> np.ndarray:
    """The largest defect, at each t of the u-line ``line`` of an r3 patch,
    of the closed-form chains of its profile in the chart t, with
    R = C^(-3/2), sigma = (0, 0, z) and the amplitude rho.

    The entries are taken in units of R, so that every chain is free of R,
    and each chain, a sum of terms that vanishes, is relative to 1 + the sum
    of the sizes of its terms:

    - sigma^(i) on the rotation axis: its first two components vanish;
    - z'^2 = 9 R^2 (1 + t^2), z' z'' = 9 R^2 t, z' z''' + z''^2 = 9 R^2 and
      z' z'''' + 3 z'' z''' = 0, the first and its t-derivatives;
    - rho^(i+1) = t z^(i+1) + i z^(i) for i = 0..3, the t-derivatives of
      rho' = t z';
    - 27 R^2 rho = z'^3 with rho > 0, which fixes the sign of z'.
    """
    sigma = np.stack([line[i] for i in _SIGMA]) / R
    z, rho = sigma[..., 2], np.stack([line[i] for i in _AMPLITUDE]) / R
    t = t.reshape(z.shape[1:])
    chains = [(sigma[i, ..., j],) for i in range(5) for j in (0, 1)]
    chains += [
        (z[1] * z[1], -9.0 * (1.0 + t * t)),
        (z[1] * z[2], -9.0 * t),
        (z[1] * z[3], z[2] * z[2], -9.0),
        (z[1] * z[4], 3.0 * z[2] * z[3]),
        (27.0 * rho[0], -z[1] ** 3),
        (np.minimum(rho[0], 0.0),),
    ]
    chains += [(rho[i + 1], -t * z[i + 1], -i * z[i]) for i in range(4)]
    defects = [np.abs(sum(terms)) / (1.0 + sum(np.abs(x) for x in terms)) for terms in chains]
    return np.max(defects, axis=0).ravel()


def _grid_pass(pr: _Probe, sign: float) -> tuple[dict, dict]:
    """(gate table, {name: field}) on the probe's grid: the ``_gate_rows``
    rows and the ``_field_bundle`` fields X, f and K, computed block by
    block of u-rows (``_BLOCK_POINTS``) into full-grid arrays made at the
    first block.
    """
    model = pr.patch.model
    nu, nv = pr.shape

    def grid(a):
        """An uninitialized full-grid array for the block array ``a``."""
        return None if a is None else np.empty((nu * nv,) + a.shape[1:], a.dtype)

    rows, kept = {}, {}
    for block, sl in _row_blocks(nu, nv, _BLOCK_POINTS):
        sh = _field_bundle(pr.block(block), sign)
        gates = _gate_rows(sh, model)
        if not rows:
            rows = {name: _Gate(grid(g.values), grid(g.mask), g.rule) for name, g in gates.items()}
            kept = {name: grid(sh[name]) for name in ("X", "f", "K")}
        for name, (values, mask, _) in gates.items():
            rows[name].values[sl] = values
            if mask is not None:
                rows[name].mask[sl] = mask
        for name, a in kept.items():
            a[sl] = sh[name]
        del sh, gates  # free this block before the next one is computed
    return rows, kept


# ---------------------------------------------------------------------------
# single-point interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointGeometry:
    """Geometric data of a patch at one point; ``laplacian_f`` in the geometer's sign.

    ``residuals`` maps each ``_gate_rows`` row name to its signed value at the
    point, read-only; ``masked`` holds the rows whose mask drops the point.
    """

    u: float
    v: float
    model_c: int
    metric: np.ndarray
    normal: np.ndarray
    second_form: np.ndarray
    shape_operator: np.ndarray
    f: float
    K: float
    shape_norm_sq: float
    lam1: float
    lam2: float
    dir1: np.ndarray
    dir2: np.ndarray
    dir1_ambient: np.ndarray
    dir2_ambient: np.ndarray
    grad_f: np.ndarray
    grad_f_ambient: np.ndarray
    grad_norm: float
    laplacian_f: float
    df_du: float
    df_dv: float
    residuals: Mapping[str, float] = field(repr=False)
    masked: frozenset = field(repr=False)


def point_geometry(patch: SurfacePatch, u: float, v: float) -> PointGeometry:
    """Full geometric bundle at one point, including grad f and Delta f.

    Closed form from the jets, so any u of the patch's ``u_range`` will do,
    its ends included; a u outside it, or NaN, is a UsageError, and so are
    a v that is not finite and a u or v that is not a real number (a bool
    or a string, say).
    """
    u, v = _real(u, "point u"), _real(v, "point v")
    lo, hi = patch.u_range
    if not lo <= u <= hi:
        raise UsageError(f"point u={u} is outside the u range [{lo}, {hi}] of patch "
                         f"'{patch.case}'")
    if not np.isfinite(v):
        raise UsageError(f"point v={v} is not finite")
    sign = normal_sign(patch)
    pr = _Probe(patch, np.array([u]), np.array([v]))
    sh = _field_bundle(pr, sign)

    def num(x):
        return float(x[0])

    rows = _gate_rows(sh, patch.model)
    d1 = _eig_direction(sh, sh["lam1"])
    d2 = _eig_direction(sh, sh["lam2"])
    Xu, Xv = sh["Xu"][0], sh["Xv"][0]
    Gu, Gv = num(sh["grad_u"]), num(sh["grad_v"])
    return PointGeometry(
        u=u,
        v=v,
        model_c=patch.model.c,
        metric=np.array([[num(sh["g11"]), num(sh["g12"])],
                         [num(sh["g12"]), num(sh["g22"])]]),
        normal=sh["eta"][0],
        second_form=np.array([[num(sh["h11"]), num(sh["h12"])],
                              [num(sh["h12"]), num(sh["h22"])]]),
        shape_operator=np.array([[num(sh["a11"]), num(sh["a12"])],
                                 [num(sh["a21"]), num(sh["a22"])]]),
        f=num(sh["f"]),
        K=num(sh["K"]),
        shape_norm_sq=num(sh["A2"]),
        lam1=num(sh["lam1"]),
        lam2=num(sh["lam2"]),
        dir1=np.array([num(d1[0]), num(d1[1])]),
        dir2=np.array([num(d2[0]), num(d2[1])]),
        dir1_ambient=num(d1[0]) * Xu + num(d1[1]) * Xv,
        dir2_ambient=num(d2[0]) * Xu + num(d2[1]) * Xv,
        grad_f=np.array([Gu, Gv]),
        grad_f_ambient=Gu * Xu + Gv * Xv,
        grad_norm=num(sh["grad_norm"]),
        laplacian_f=num(sh["laplacian"]),
        df_du=num(sh["Fu"]),
        df_dv=num(sh["Fv"]),
        residuals=MappingProxyType({name: num(g.values) for name, g in rows.items()}),
        masked=frozenset(name for name, g in rows.items() if g.mask is not None and not g.mask[0]),
    )


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------


def _summary(values: np.ndarray, U: np.ndarray, V: np.ndarray, mask=None) -> dict:
    """max, mean and argmax of |values| over the points ``mask`` keeps, and
    how many of those are finite.

    NaN and masked points are left out; an infinite value is kept, so max
    and mean come out infinite, but it is never the argmax.  All of it works
    on one |values| array: NaN and masked points set to 0, the mean taken as
    ``np.nanmean`` takes it (the sum over the count; with an infinite value
    both read inf), and the argmax after the infinite points are set to 0.
    """
    a = np.abs(values)
    good = np.isfinite(a)
    drop = np.isnan(a)
    if mask is not None:
        good &= mask
        drop |= ~mask
    n = int(np.count_nonzero(good))
    if n == 0:
        return {"max": None, "mean": None, "argmax": None, "count": 0}
    a[drop] = 0.0
    top, mean = float(np.max(a)), float(np.sum(a) / n)
    a[~good] = 0.0
    idx = int(np.argmax(a))
    return {
        "max": top,
        "mean": mean,
        "argmax": [float(U[idx]), float(V[idx])],
        "count": n,
    }


@dataclass(eq=False)
class VerificationReport:
    """Residual summaries, pass flags and the sampled scalar fields."""

    case: str
    model_c: int
    grid: dict
    fd: dict
    tolerances: dict
    residuals: dict
    bitension: dict
    gates: dict
    passed: bool
    notes: list
    fields: dict = field(default_factory=dict, repr=False)
    # the position X at every grid point, shape (nu, nv, dim)
    grid_X: np.ndarray | None = field(default=None, repr=False)
    schema: str = REPORT_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "case": self.case,
            "model_c": self.model_c,
            "grid": self.grid,
            "fd": self.fd,
            "tolerances": self.tolerances,
            "residuals": self.residuals,
            "bitension": self.bitension,
            "gates": self.gates,
            "pass": self.passed,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        """The report as JSON; a non-finite value is a ConditioningError naming its key."""
        data = self.to_dict()
        try:
            return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:  # the encoder refuses NaN and inf; name the first one
            key = _nonfinite_key(data)
            if key is None:
                raise
            raise ConditioningError(f"report value '{key}' is not finite") from None

    def save(self, path) -> str:
        text = self.to_json()
        with open(str(path), "w") as fh:
            fh.write(text)
        return str(path)


def _nonfinite_key(obj, path: str = ""):
    """Dotted key of the first non-finite float in ``obj`` (sorted order), or None."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return path if isinstance(obj, float) and not np.isfinite(obj) else None
    for k, v in items:
        found = _nonfinite_key(v, f"{path}.{k}" if path else str(k))
        if found is not None:
            return found
    return None


def verify_patch(
    patch: SurfacePatch,
    nu: int = 64,
    nv: int = 64,
    tolerances: Mapping | None = None,
) -> VerificationReport:
    """Verify every identity on a regular grid and summarize residuals.

    The grid covers the patch rectangle.  Each gate is a row of one table
    (values, mask, rule), its bound taken from the family's profile in
    ``TOL_PROFILES``; a patch of the family table adds its rows
    ``f_vs_profile`` and ``profile_jet``, and a patch from outside it gets
    none and a note that says so.  The pass rules: max <= bound on the
    kept points; the relative bitension floor, applied only on mostly
    non-CMC grids; and, on h3, x4 > 0 everywhere.  A bound that names no
    row fails, and so does a profile that bounds no residual.  ``nu``,
    ``nv`` must be integers >= 2, ``tolerances`` finite real bounds >= 0,
    and the rectangle finite.
    """
    nu, nv = _grid_size(nu, nv)
    if tolerances is None:
        tolerances = TOL_PROFILES.get(patch.case, {})
    if not isinstance(tolerances, Mapping):
        raise UsageError(f"tolerances must be a mapping of names to bounds, got {tolerances!r}")
    for name, bound in tolerances.items():
        if not (isinstance(name, str) and 0.0 <= _real(bound, f"tolerance {name!r}") < np.inf):
            raise UsageError(f"tolerance {name!r} must be finite and non-negative, got {bound!r}")
    tolerances = {name: float(bound) for name, bound in tolerances.items()}
    if not np.all(np.isfinite([*patch.u_range, *patch.v_range])):
        raise UsageError(f"the rectangle {patch.u_range} x {patch.v_range} of patch "
                         f"'{patch.case}' is not finite")
    notes = []

    ugrid = np.linspace(patch.u_range[0], patch.u_range[1], nu)
    vgrid = np.linspace(patch.v_range[0], patch.v_range[1], nv)
    UU, VV = np.meshgrid(ugrid, vgrid, indexing="ij")
    U, V = UU.ravel(), VV.ravel()

    sign = normal_sign(patch)
    pr = _Probe(patch, ugrid, vgrid)
    rows, kept = _grid_pass(pr, sign)
    f = kept["f"]

    # the profile's rows: f = 2k, and the jet rows
    prof = patch.profile
    if isinstance(prof, (ProfileCurve, RevolutionProfile)):
        k = prof.k(ugrid)
        rows["f_vs_profile"] = _Gate(f - 2.0 * np.repeat(k, nv))
        jet = (_profile_jet(patch, pr.line, k) if isinstance(prof, ProfileCurve)
               else _revolution_jet(prof.rho_min, ugrid, pr.line))
        rows["profile_jet"] = _Gate(np.repeat(jet, nv))
    else:
        notes.append(f"no jet rows: patch '{patch.case}' has no profile of the family "
                     "table, so its jets are taken as given")

    # fail closed: a bound that names no row fails, and so does a profile
    # that bounds no residual
    residuals: dict = {}
    missing = [name for name in tolerances if name not in rows]
    passed = not missing
    for name, (values, mask, rule) in rows.items():
        entry, ok, found = rule(name, values, mask, tolerances.get(name), U, V)
        if entry is not None:
            residuals[name] = entry
        passed &= ok
        notes += found
    notes += [f"required residual '{name}' was not evaluated" for name in missing]
    if not (missing or residuals.keys() & tolerances.keys()):
        passed = False
        notes.append(f"no residual tolerance applies to case '{patch.case}'")

    bit = rows["normal_bitension_min"]
    bitension = {
        "min_abs": float(np.min(np.abs(bit.values))),
        "max_abs": float(np.max(np.abs(bit.values))),
        "mean_abs": float(np.mean(np.abs(bit.values))),
    }
    gates = {
        "total_points": int(f.size),
        "non_cmc_points": int(np.count_nonzero(bit.mask)),
        "eigen_skipped": int(np.count_nonzero(~rows["x2f"].mask)),
    }

    sampled = {
        "f": f.reshape(nu, nv),
        "K": kept["K"].reshape(nu, nv),
        "biconservative": rows["biconservative"].values.reshape(nu, nv),
        "bitension": bit.values.reshape(nu, nv),
    }

    return VerificationReport(
        case=patch.case,
        model_c=patch.model.c,
        grid={
            "nu": nu,
            "nv": nv,
            "u_range": [float(ugrid[0]), float(ugrid[-1])],
            "v_range": [float(vgrid[0]), float(vgrid[-1])],
        },
        fd={"laplacian_sign": _LAPLACIAN_SIGN},
        tolerances=dict(sorted(tolerances.items())),
        residuals=residuals,
        bitension=bitension,
        gates=gates,
        passed=bool(passed),
        notes=notes,
        fields=sampled,
        grid_X=kept["X"].reshape(nu, nv, -1),
    )
