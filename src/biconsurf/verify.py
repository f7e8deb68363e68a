"""Coordinate-free numerical verification of surface patches.

Everything here is computed from the patch evaluators alone (position,
analytic first partials and the analytic partials of orders 2 to 4 of the
patch's ``jet`` and ``jet4``, which every patch must have); how the patch
was built never enters except when comparing against its declared
reference channels.  A patch without ``jet`` or ``jet4`` is a UsageError.

The mean curvature f, grad f and Delta f are closed-form at each point
(from the Weingarten equation and the derivatives of the metric and second
form, see ``_jet_f_derivatives``).  So the single-point interface takes no
step: it runs the grid path once on a one-point grid anywhere in the
evaluable domain.  Its ``PointGeometry`` holds each ``_gate_rows`` row's
signed value at the point (``residuals``) and the rows whose mask drops the
point (``masked``), so a point value equals the grid value there bit for bit.

The jets are never trusted unchecked.  ``verify_patch`` alone takes finite
differences, at the step of ``FDScheme`` and with one kernel
(``_fd_cross_check``): the first partials against ``jet`` on the grid are
the required ``second_partials_fd`` residual, and every partial of order 3
or 4 against the partial one order lower, on every 4th row and column, is
the required ``higher_partials_fd`` residual.  Each grid is read through
one ``_Probe``, which calls the patch's ``uline`` once, stacked over the u
offsets its checks read, so a ``verify_patch`` makes two ``uline`` calls:
the orientation point and the grid at 0, +-h, +-h/2 and +-h/4, whose every
4th row and column the sub-grid check reads.

The grid's per-point pass (``_shape``, ``_field_bundle``, ``_gate_rows``
and the frames and kernel of ``second_partials_fd``) runs over blocks of
u-rows of about ``_BLOCK_POINTS`` = 4096 points, so a 64 x 64 grid is one
block; the closed-form f derivatives go in sub-blocks of half a block, and
the sub-grid check in blocks of its u-rows of a quarter block, so the
sub-grids of 64 x 64 and 128 x 128 grids are one block.  A block probe
slices the grid probe's u-lines and makes no ``uline`` call.  Each block
writes its values and masks into full-grid arrays, and every reduction
(``_summary``, the relative floor, the bitension statistics, the gate
counts) runs once on those, so the block sizes change no output bit.  The
working set of each stage is block-sized; beside it ``verify_patch`` holds
the full-grid values, masks and kept fields.  A grid whose blocks hold
different defects raises the ``ConditioningError`` of the first such block.

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
from .defaults import (
    EIGEN_DEGENERACY,
    FD_INNER_REL,
    NONCMC_GATE,
    REPORT_SCHEMA,
)
from .errors import ConditioningError, UsageError, _real
from .families import TOL_PROFILES
from .profile import ProfileCurve
from .surfaces import SurfacePatch, _grid_size

__all__ = [
    "FDScheme",
    "fd_scheme",
    "fd_for_patch",
    "PointGeometry",
    "point_geometry",
    "VerificationReport",
    "verify_patch",
    "normal_sign",
]


@dataclass(frozen=True)
class FDScheme:
    """The step of the finite-difference cross-checks of the jets.

    ``inner_step`` differences the analytic partials of X with Richardson
    extrapolation (steps h and h/2, fourth order): the first partials are
    the ``second_partials_fd`` cross-check of ``jet``, and the partials of
    orders 2 and 3 that of ``jet4`` (one level more, sixth order).  The
    stencils reach ``2 * inner_step`` beyond a grid point, and the grid is
    kept that far inside the evaluable domain.
    """

    inner_step: float

    def __post_init__(self):
        step = _real(self.inner_step, "FDScheme inner_step")
        if not (np.isfinite(step) and step > 0):
            raise UsageError(
                f"FDScheme inner_step must be finite and positive, got {self.inner_step!r}"
            )

    @property
    def reach(self) -> float:
        return 2.0 * self.inner_step

    def describe(self) -> dict:
        return {
            "inner_step": self.inner_step,
            "order": 4,
            "laplacian_sign": "geometric (minus divergence form)",
        }


def fd_scheme(diagonal: float) -> FDScheme:
    """The default step on a rectangle with the given diagonal."""
    return FDScheme(inner_step=float(FD_INNER_REL * diagonal))


def fd_for_patch(patch: SurfacePatch) -> FDScheme:
    return fd_scheme(patch.rect_diagonal)


def _require_jets(patch: SurfacePatch) -> None:
    """UsageError naming what is missing when the patch lacks ``jet`` or ``jet4``."""
    missing = [name for name in ("jet", "jet4") if getattr(patch, name) is None]
    if missing:
        raise UsageError(
            f"patch '{patch.case}' has no {' or '.join(missing)}: the verifier "
            "takes the partials of orders 2 to 4 from the closed-form jet and "
            "jet4 of the SurfacePatch contract"
        )


# ---------------------------------------------------------------------------
# batched geometry
# ---------------------------------------------------------------------------

# grid points per block of u-rows of the verifier's pass, about 1.2 kB each
# (frames, field bundle, gate rows).  The closed-form f-derivatives hold
# 1.4 kB per point on top of that, so their sub-blocks are half a block; the
# 13 shifted jets of the higher_partials_fd cross-check hold 5.4 kB per
# point, so its blocks of sub-grid u-rows are a quarter block
_BLOCK_POINTS = 4096
# every this many rows and columns carry the higher_partials_fd cross-check
_HIGHER_STRIDE = 4


class _Probe:
    """Tensor-grid evaluation with the u-lines of all u offsets in one call.

    ``uline`` runs once, on the column u + du (shape (len(offsets) * nu, 1))
    stacked over the ``offsets`` the probe's checks read, and each u-line
    entry is cut into per-offset pieces along its first axis, as the
    SurfacePatch contract allows.  ``at``, ``jet`` and ``jet4`` broadcast a
    piece against a v-row (shape (1, nv)), and their triples come back
    flattened to (nu * nv, dim) in u-major order, the layout of the
    verifier's grids.  Only the ``offsets`` can be read.  ``block`` gives
    the probe on a block of u-rows and v-columns.
    """

    def __init__(self, patch: SurfacePatch, ugrid: np.ndarray, vgrid: np.ndarray,
                 offsets=(0.0,)):
        self.patch = patch
        self.u = np.asarray(ugrid, dtype=float)[:, None]
        self.v = np.asarray(vgrid, dtype=float)[None, :]
        self.shape = (self.u.shape[0], self.v.shape[1])
        self.offsets = tuple(float(du) for du in offsets)
        nu = self.shape[0]
        stacked = patch.uline(np.concatenate([self.u + du for du in self.offsets]))
        self._lines = {
            du: tuple(np.asarray(entry)[i * nu:(i + 1) * nu] for entry in stacked)
            for i, du in enumerate(self.offsets)
        }

    def block(self, rows: slice, cols: slice = slice(None)) -> _Probe:
        """The probe on the u-rows ``rows`` and v-columns ``cols`` of this grid;
        its u-lines are this probe's, sliced, so it makes no ``uline`` call."""
        blk = copy.copy(self)
        blk.u, blk.v = self.u[rows], self.v[:, cols]
        blk.shape = (blk.u.shape[0], blk.v.shape[1])
        blk._lines = {du: tuple(np.asarray(entry)[rows] for entry in line)
                      for du, line in self._lines.items()}
        return blk

    def shifted_jets(self, steps) -> dict:
        """{(du, dv): jet + jet4} at the grid shifted by each offset du along u
        and by each of ``steps`` along v, each partial of shape (nu, nv, dim).

        One ``jet`` and one ``jet4`` call take the u-line pieces of the
        ``offsets`` stacked again against the v-row, and one more of each the
        unshifted u-line against the v-row stacked over ``steps``; the
        partials are views of their results.
        """
        nu, nv = self.shape
        stacked = tuple(np.concatenate(entries)
                        for entries in zip(*(self._lines[du] for du in self.offsets)))
        vrow = np.concatenate([self.v + dv for dv in steps], axis=1)
        out = {}
        for axis, line, v, keys in ((0, stacked, self.v, [(du, 0.0) for du in self.offsets]),
                                    (1, self._lines[0.0], vrow, [(0.0, dv) for dv in steps])):
            shape = (nu * len(keys), nv) if axis == 0 else (nu, nv * len(keys))
            parts = [a for name in ("jet", "jet4") for a in self._evaluate(name, line, v, shape)]
            for i, key in enumerate(keys):
                cut = np.s_[i * nu:(i + 1) * nu] if axis == 0 else np.s_[:, i * nv:(i + 1) * nv]
                out[key] = tuple(p[cut] for p in parts)
        return out

    def frame(self, du: float, dv: float):
        """(X, Xu, Xv) at the grid shifted by (du, dv)."""
        return self._grid_eval("at", du, dv)

    def jet(self, du: float, dv: float):
        """(Xuu, Xuv, Xvv) at the grid shifted by (du, dv)."""
        return self._grid_eval("jet", du, dv)

    def jet4(self, du: float, dv: float):
        """The nine partials of orders 3 and 4 at the shifted grid."""
        return self._grid_eval("jet4", du, dv)

    def _grid_eval(self, name: str, du: float, dv: float):
        out = self._evaluate(name, self._lines[du], self.v + dv, self.shape)
        n = self.shape[0] * self.shape[1]
        return tuple(a.reshape(n, a.shape[-1]) for a in out)

    def _evaluate(self, name: str, line, v, shape: tuple) -> tuple:
        """``name``(line, v), whose entries must have shape ``shape`` + (dim,)."""
        try:
            out = getattr(self.patch, name)(line, v)
        except ValueError as exc:
            raise self._contract_error(name, shape, f"numpy said: {exc}") from exc
        if any(np.shape(a)[:-1] != shape for a in out):
            raise self._contract_error(name, shape, f"got shapes {[np.shape(a) for a in out]}")
        return out

    def _contract_error(self, name: str, shape: tuple, detail: str) -> UsageError:
        return UsageError(
            f"patch '{self.patch.case}' breaks the SurfacePatch broadcasting "
            f"contract: {name}(uline(u), v) must broadcast a (nu, 1) u-line "
            f"against a (1, nv) v-row to {shape} + (dim,); {detail}"
        )


def _row_blocks(nu: int, nv: int, points: int):
    """(rows, points) slices of consecutive blocks of u-rows of about
    ``points`` grid points each (one row at least) on an nu x nv grid."""
    step = max(1, points // nv)
    for r0 in range(0, nu, step):
        r1 = min(r0 + step, nu)
        yield slice(r0, r1), slice(r0 * nv, r1 * nv)


def _fd_steps(h: float, levels: int) -> tuple:
    """The signed steps of ``_fd_cross_check``'s shifts: +-h, +-h/2 and, at
    3 levels, +-h/4."""
    return tuple(s for step in (h, 0.5 * h, 0.25 * h)[:levels] for s in (step, -step))


def _fd_cross_check(shifted: dict, exact, table, h: float, levels: int, dim: int):
    """Per-point largest Euclidean norm of analytic partials minus differences,
    over the points of ``exact`` in its layout.

    A ``table`` entry (i, j, along_u) compares ``exact[i]``, a partial on the
    grid, with the central difference along u or v of ``shifted[du, dv][j]``,
    the partial one order lower on the shifted grid; two entries sharing an i
    are averaged first.  ``shifted`` holds every grid the kernel reads, the
    shifts (s, 0.0) and (0.0, s) for s in ``_fd_steps(h, levels)``.
    Richardson extrapolation takes ``levels`` steps: 2 (h and h/2, fourth
    order) or 3 (h, h/2 and h/4, sixth order; the truncation error grows
    with the order of the partials).
    """

    def extrapolate(fine, coarse, k):
        """(k fine - coarse) / (k - 1), in place in the fresh ``fine``."""
        fine *= k
        fine -= coarse
        fine /= k - 1.0
        return fine

    def rich(j, along_u, step):
        def f(s):
            return shifted[(s, 0.0) if along_u else (0.0, s)][j]

        d_h = f(step) - f(-step)
        d_h /= 2.0 * step
        d_h2 = f(0.5 * step) - f(-0.5 * step)
        d_h2 /= step
        return extrapolate(d_h2, d_h, 4.0)

    diffs: dict = {}
    for i, j, along_u in table:
        d = rich(j, along_u, h)
        if levels == 3:
            d = extrapolate(rich(j, along_u, 0.5 * h), d, 16.0)
        if i in diffs:
            d += diffs[i]
            d *= 0.5
        diffs[i] = d
    euclid = Signature(dim)
    norms = []
    for i, d in diffs.items():
        d -= exact[i]
        norms.append(euclid.norm(d))
    return np.max(norms, axis=0)


# (partial, lower partial, along u): Xuu, Xuv and Xvv against (Xu, Xv), Xuv the
# mean of Xu along v and Xv along u; jet4 against jet + jet4 (orders 2, 3 and 4
# by the number of v's), Xuuu and Xuuuu in u and every other one in v
_SECOND_TABLE = ((0, 0, True), (1, 0, False), (1, 1, True), (2, 1, False))
_HIGHER_TABLE = ((0, 0, True), (4, 3, True), (1, 0, False), (2, 1, False), (3, 2, False),
                 (5, 3, False), (6, 4, False), (7, 5, False), (8, 6, False))


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

    X, Xu, Xv = pr.frame(0.0, 0.0)
    Xuu, Xuv, Xvv = pr.jet(0.0, 0.0)

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
    _require_jets(patch)
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


def _jet_f_derivatives(sh: dict, sl: slice, line4: tuple, gi, gam, model: SpaceForm):
    """(F1, F2) of the mean curvature at the grid points ``sl``, whose
    ``_metric_tables`` are (gi, gam).

    F1[k] = f_k and F2[k, l] = f_kl, indices 0 = u and 1 = v.  From
    identities that hold for any surface in the space form, with
    Gam_ij,m = <X_ij, X_m> (X is orthogonal to X_m):
    the Weingarten equation eta_k = -a^p_k X_p, so
    h_ij,k = <X_ijk, eta> - a^p_k Gam_ij,p; g_ij,k = Gam_ik,j + Gam_jk,i;
    a_,l = g^-1 (h_,l - g_,l a), f_l = tr a_,l, and one more derivative,
    f_kl = tr g^-1 (h_,kl - g_,kl a - g_,l a_,k - g_,k a_,l).
    """
    X1 = [sh[name][sl] for name in ("Xu", "Xv")]
    P2 = [sh[name][sl] for name in ("Xuu", "Xuv", "Xvv")]
    P3, P4 = line4[:4], line4[4:]
    eta = [sh["eta"][sl]]

    # inner products of the distinct partials, spread over all index tuples;
    # <X_ij, X_kl> is symmetric, so its 6 distinct products fill the 3 x 3 table
    inner = model.inner
    pairs = {(i, j): inner(P2[i], P2[j]) for i in range(3) for j in range(i, 3)}
    Q2 = np.array([[pairs[min(i, j), max(i, j)] for j in range(3)] for i in range(3)])
    T = _table(model, P3, X1)[_SUM3]                          # <X_ijk, X_m>
    Q = Q2[_SUM2[:, :, None, None], _SUM2]                    # <X_ij, X_kl>
    E3 = _table(model, P3, eta)[_SUM3][..., 0, :]             # <X_ijk, eta>
    E4 = _table(model, P4, eta)[_SUM4][..., 0, :]             # <X_ijkl, eta>
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


def _field_bundle(pr: _Probe, sign: float) -> dict:
    """Shape data plus the derivatives of the f-field on the probe's grid.

    grad f and the second partials of f are closed-form
    (``_jet_f_derivatives``), evaluated in sub-blocks of u-rows of about
    half ``_BLOCK_POINTS``, and Delta f comes from ``_laplacian`` with
    the Christoffel symbols of the jet; each sub-block takes grad f and
    Delta f from its own ``_metric_tables``.
    """
    sh = _shape(pr, sign)
    model = pr.patch.model
    nu, nv = pr.shape
    n = nu * nv
    F1, F2, G, lap = np.empty((2, n)), np.empty((2, 2, n)), np.empty((2, n)), np.empty(n)
    for rows, sl in _row_blocks(nu, nv, _BLOCK_POINTS // 2):
        gi, gam = _metric_tables(sh, sl, model)
        f1, f2 = _jet_f_derivatives(sh, sl, pr.block(rows).jet4(0.0, 0.0), gi, gam, model)
        F1[:, sl], F2[:, :, sl] = f1, f2
        G[:, sl] = gi[:, 0] * f1[0] + gi[:, 1] * f1[1]
        lap[sl] = _laplacian(gi, gam, f1, f2)

    grad2 = F1[0] * G[0] + F1[1] * G[1]
    sh.update(
        Fu=F1[0], Fv=F1[1], Fuu=F2[0, 0], Fuv=F2[0, 1], Fvv=F2[1, 1],
        grad_u=G[0], grad_v=G[1],
        grad2=np.maximum(grad2, 0.0),
        grad_norm=np.sqrt(np.maximum(grad2, 0.0)),
        laplacian=lap,
    )
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


def _grid_pass(pr: _Probe, sign: float, h: float, keep) -> tuple[dict, dict]:
    """(gate table, {name: field}) on the probe's grid: the ``_gate_rows``
    rows and ``second_partials_fd``, and the ``_field_bundle`` fields named
    in ``keep``, computed block by block of u-rows (``_BLOCK_POINTS``) into
    full-grid arrays made at the first block.  The cross-check of ``jet``
    takes one frame per shift, as frames stacked over the shifts would hold
    every shift's X, which the check never reads.
    """
    model = pr.patch.model
    nu, nv = pr.shape

    def grid(a):
        """An uninitialized full-grid array for the block array ``a``."""
        return None if a is None else np.empty((nu * nv,) + a.shape[1:], a.dtype)

    rows, kept = {}, {}
    for block, sl in _row_blocks(nu, nv, _BLOCK_POINTS):
        blk = pr.block(block)
        sh = _field_bundle(blk, sign)
        gates = _gate_rows(sh, model)
        gates["second_partials_fd"] = _Gate(_fd_cross_check(
            {key: blk.frame(*key)[1:] for s in _fd_steps(h, 2) for key in ((s, 0.0), (0.0, s))},
            (sh["Xuu"], sh["Xuv"], sh["Xvv"]), _SECOND_TABLE, h, 2, model.ambient.dim))
        if not rows:
            for name in keep:
                if name not in sh:
                    raise UsageError(f"no verifier field named '{name}' to compare against")
            rows = {name: _Gate(grid(g.values), grid(g.mask), g.rule) for name, g in gates.items()}
            kept = {name: grid(sh[name]) for name in keep}
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

    Closed form from the jets, so any u of the evaluable domain will do; a
    u outside it, or NaN, is a UsageError, and so are a v that is not
    finite and a u or v that is not a real number (a bool or a string, say).
    """
    _require_jets(patch)
    u, v = _real(u, "point u"), _real(v, "point v")
    lo, hi = patch.eval_u_domain
    if not lo <= u <= hi:
        raise UsageError(f"point u={u} is outside the evaluable domain [{lo}, {hi}]")
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
    grid_u: np.ndarray | None = field(default=None, repr=False)
    grid_v: np.ndarray | None = field(default=None, repr=False)
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
    fd: FDScheme | None = None,
    tolerances: Mapping | None = None,
) -> VerificationReport:
    """Verify every identity on a regular grid and summarize residuals.

    The grid covers the patch rectangle, shrunk in u where the evaluable
    domain does not leave room for the finite-difference stencils (recorded
    in the notes).  Each gate is a row of one table (values, mask, rule), its
    bound taken from the family's profile in ``TOL_PROFILES``.  The pass
    rules: max <= bound on the kept points; the relative bitension floor,
    applied only on mostly non-CMC grids; and, on h3, x4 > 0 everywhere.  A
    profile that bounds no residual fails.  ``nu``, ``nv`` must be integers
    >= 2, ``fd`` an ``FDScheme``, ``tolerances`` finite real bounds >= 0.
    """
    nu, nv = _grid_size(nu, nv)
    _require_jets(patch)
    fd = fd_for_patch(patch) if fd is None else fd
    if not isinstance(fd, FDScheme):
        raise UsageError(f"fd must be an FDScheme, got {fd!r}")
    if tolerances is None:
        tolerances = TOL_PROFILES.get(patch.case, {})
    if not isinstance(tolerances, Mapping):
        raise UsageError(f"tolerances must be a mapping of names to bounds, got {tolerances!r}")
    for name, bound in tolerances.items():
        if not (isinstance(name, str) and 0.0 <= _real(bound, f"tolerance {name!r}") < np.inf):
            raise UsageError(f"tolerance {name!r} must be finite and non-negative, got {bound!r}")
    tolerances = {name: float(bound) for name, bound in tolerances.items()}
    notes = []

    u0, u1 = patch.u_range
    lo, hi = patch.eval_u_domain
    reach = 1.02 * fd.reach
    eff0, eff1 = max(u0, lo + reach), min(u1, hi - reach)
    if eff0 >= eff1:
        raise UsageError(
            "no room for finite-difference stencils inside the evaluable domain"
        )
    if (eff0, eff1) != (u0, u1):
        notes.append(
            f"u-grid shrunk to [{eff0:.6g}, {eff1:.6g}] to fit stencils"
        )

    ugrid = np.linspace(eff0, eff1, nu)
    vgrid = np.linspace(patch.v_range[0], patch.v_range[1], nv)
    UU, VV = np.meshgrid(ugrid, vgrid, indexing="ij")
    U, V = UU.ravel(), VV.ravel()

    h = fd.inner_step
    sign = normal_sign(patch)
    steps = _fd_steps(h, 3)
    pr = _Probe(patch, ugrid, vgrid, (0.0,) + steps)
    rows, kept = _grid_pass(pr, sign, h, ("X", "f", "K", *patch.reference))
    f = kept["f"]

    # the finite-difference cross-check of jet4 on every 4th row and column,
    # one jet and one jet4 call per direction and block of sub-grid rows
    every = slice(None, None, _HIGHER_STRIDE)
    sub = np.zeros((nu, nv), dtype=bool)
    sub[every, every] = True
    higher = np.full((nu, nv), np.nan)
    on_sub = higher[every, every]
    for block, _ in _row_blocks(*on_sub.shape, _BLOCK_POINTS // 4):
        on_grid = slice(block.start * _HIGHER_STRIDE, block.stop * _HIGHER_STRIDE, _HIGHER_STRIDE)
        jets = pr.block(on_grid, every).shifted_jets(steps)
        on_sub[block] = _fd_cross_check(jets, jets[0.0, 0.0][3:], _HIGHER_TABLE, h, 3,
                                        patch.model.ambient.dim)
        del jets  # free this block's jets before the next block's are made
    rows["higher_partials_fd"] = _Gate(higher.ravel(), sub.ravel())

    # comparisons against builder-declared data
    if isinstance(patch.profile, ProfileCurve):
        rows["f_vs_profile"] = _Gate(f - 2.0 * np.repeat(patch.profile.k(ugrid), nv))
    for name, ref in patch.reference.items():
        rows[f"{name}_vs_reference"] = _Gate(kept[name] - ref(U, V))

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
        fd=fd.describe(),
        tolerances=dict(sorted(tolerances.items())),
        residuals=residuals,
        bitension=bitension,
        gates=gates,
        passed=bool(passed),
        notes=notes,
        fields=sampled,
        grid_u=ugrid,
        grid_v=vgrid,
        grid_X=kept["X"].reshape(nu, nv, -1),
    )
