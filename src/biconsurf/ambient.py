"""Signature-aware linear algebra for the ambient spaces E3, E4 and L4.

Vectors are plain numpy arrays whose trailing axis is the coordinate axis,
so every operation broadcasts over leading axes.  The Lorentz signature is
fixed to (+, +, +, -) with the fourth coordinate timelike.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpanError, UsageError

__all__ = [
    "Signature",
    "SpaceForm",
    "EUCLIDEAN3",
    "EUCLIDEAN4",
    "LORENTZ4",
    "R3",
    "S3",
    "H3",
    "space_form",
    "orthonormal_complement",
]


@dataclass(frozen=True)
class Signature:
    """Inner-product signature of an ambient linear space.

    ``timelike`` counts negative directions; it is 0 for Euclidean space and
    1 for Lorentz-Minkowski space, where the last coordinate is the
    timelike one.
    """

    dim: int
    timelike: int = 0

    def __post_init__(self):
        if self.dim not in (3, 4):
            raise UsageError(f"ambient dimension must be 3 or 4, got {self.dim}")
        if self.timelike not in (0, 1):
            raise UsageError(f"timelike count must be 0 or 1, got {self.timelike}")
        if self.timelike == 1 and self.dim != 4:
            raise UsageError("Lorentz signature is only supported in dimension 4")

    @property
    def metric(self) -> np.ndarray:
        eps = np.ones(self.dim)
        if self.timelike:
            eps[-1] = -1.0
        return eps

    def _check(self, *vectors) -> None:
        for v in vectors:
            shape = np.shape(v)
            if not shape or shape[-1] != self.dim:
                raise UsageError(
                    f"vector of shape {shape} does not match signature "
                    f"dimension {self.dim}"
                )

    def inner(self, a, b):
        """Bilinear symmetric product sum(eps_i a_i b_i).

        The coordinate products are added left to right starting from +0.0,
        the order ``np.sum(a * b * self.metric, axis=-1)`` uses, so the
        result is bit-identical to that reduction (zero signs included; only
        NaN payload bits may differ).  Besides the result it allocates one
        temporary, which holds each product in turn.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        self._check(a, b)
        s = a[..., 0] * b[..., 0]
        s += 0.0
        t = np.empty_like(s)
        for i in range(1, self.dim):
            p = np.multiply(a[..., i], b[..., i], out=t)
            if i == 3 and self.timelike:
                s -= p
            else:
                s += p
        return s

    def norm(self, a):
        """sqrt(|<a, a>|); for Lorentz vectors this is the modulus norm."""
        return np.sqrt(np.abs(self.inner(a, a)))


EUCLIDEAN3 = Signature(3)
EUCLIDEAN4 = Signature(4)
LORENTZ4 = Signature(4, timelike=1)


@dataclass(frozen=True)
class SpaceForm:
    """One of the three simply connected 3-spaces of constant curvature.

    ``c`` selects the model: 0 for flat space (ambient E3), +1 for the unit
    sphere inside E4, -1 for the hyperboloid ``<r, r> = -1, x4 > 0`` inside
    Lorentz-Minkowski L4.
    """

    c: int

    def __post_init__(self):
        # a bool equals 0 or 1 but is not a curvature; NaN and strings equal none
        if isinstance(self.c, (bool, np.bool_)) or self.c not in (-1, 0, 1):
            raise UsageError(f"curvature must be -1, 0 or +1, got {self.c!r}")

    @property
    def ambient(self) -> Signature:
        if self.c == 0:
            return EUCLIDEAN3
        return EUCLIDEAN4 if self.c == 1 else LORENTZ4

    @property
    def quadric_target(self) -> float:
        """Required value of <r, r> for points of the model."""
        if self.c == 0:
            raise UsageError("flat space carries no quadric constraint")
        return float(self.c)

    @property
    def ricci_normal(self) -> float:
        """Ricci curvature of the model in any unit direction (equals 2c)."""
        return 2.0 * self.c

    def inner(self, a, b):
        return self.ambient.inner(a, b)

    def norm(self, a):
        return self.ambient.norm(a)

    def on_model(self, p, tol: float = 1e-9):
        """Whether p satisfies the model's quadric constraint within tol."""
        target = self.quadric_target
        p = np.asarray(p, dtype=float)
        ok = np.abs(self.inner(p, p) - target) <= tol
        if self.c == -1:
            ok = ok & (p[..., 3] > 0)
        return ok if np.ndim(ok) else bool(ok)


R3 = SpaceForm(0)
S3 = SpaceForm(1)
H3 = SpaceForm(-1)


def space_form(c: int) -> SpaceForm:
    """The model of curvature c: -1, 0 or +1, as an int or an integral float."""
    return {-1: H3, 0: R3, 1: S3}[SpaceForm(c).c]


def _cofactor_complement(sig: Signature, rows) -> np.ndarray:
    """Vector orthogonal (in sig) to ``rows``, shape (..., dim).

    ``rows`` holds dim - 1 vector fields a, b (, c) of one shape (..., dim),
    read in place, never stacked.  Uses the generalized cross product: the
    cofactor expansion is continuous in the inputs, which downstream code
    relies on for orienting normal fields without per-point sign searches.
    In dimension 4 the signed 3x3 minors are expanded along the third row
    over the 2x2 minors ``p_ij = a_i b_j - a_j b_i`` of the first two rows.
    """
    a, b = rows[0], rows[1]
    if sig.dim == 3:
        # the Euclidean metric raises no index
        return np.cross(a, b)
    c = rows[2]
    a0, a1, a2, a3 = (a[..., i] for i in range(4))
    b0, b1, b2, b3 = (b[..., i] for i in range(4))
    c0, c1, c2, c3 = (c[..., i] for i in range(4))
    p01, p02, p03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    p12, p13, p23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    w = np.empty(a.shape)
    w[..., 0] = c1 * p23 - c2 * p13 + c3 * p12
    np.negative(c0 * p23 - c2 * p03 + c3 * p02, out=w[..., 1])
    w[..., 2] = c0 * p13 - c1 * p03 + c3 * p01
    w[..., 3] = c0 * p12 - c1 * p02 + c2 * p01
    # raise the index so that <w, row> = 0 holds in the stated signature (an
    # exact product: the timelike -1 cancels the sign of the last minor)
    if not sig.timelike:
        np.negative(w[..., 3], out=w[..., 3])
    return w


def orthonormal_complement(sig: Signature, vectors, sign_convention=None):
    """Unit vector orthogonal to ``vectors`` (a codimension-1 system).

    ``vectors`` must contain dim-1 arrays of shape (..., dim) spanning a
    non-degenerate hyperplane at every point.  The result has |<n, n>| = 1
    and, when ``sign_convention`` is given and not orthogonal to the result,
    a positive inner product with it.  With no convention the orientation is
    the (deterministic, continuous) cofactor orientation.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    sig._check(*vecs)
    if len(vecs) != sig.dim - 1:
        raise UsageError(
            f"need exactly {sig.dim - 1} spanning vectors in dimension "
            f"{sig.dim}, got {len(vecs)}"
        )
    rows = np.broadcast_arrays(*vecs)
    mat = np.stack(rows, axis=-2)

    # degeneracy guard: Gram determinant against the Euclidean scale
    gram = np.einsum("...ik,k,...jk->...ij", mat, sig.metric, mat)
    scale = np.prod(np.linalg.norm(mat, axis=-1), axis=-1)
    det = np.linalg.det(gram)
    if np.any(np.abs(det) <= 1e-10 * scale**2):
        raise DegenerateSpanError(
            "input vectors span a (numerically) degenerate hyperplane"
        )

    n = _cofactor_complement(sig, rows)
    n2 = sig.inner(n, n)
    if np.any(np.abs(n2) <= 1e-24 * scale**2):
        raise DegenerateSpanError("complement direction is numerically null")
    n = n / np.sqrt(np.abs(n2))[..., None]

    if sign_convention is not None:
        s = sig.inner(n, np.asarray(sign_convention, dtype=float))
        flip = np.where(s < 0, -1.0, 1.0)
        n = n * flip[..., None]
    return n
