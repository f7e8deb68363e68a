"""Regular-grid mesh sampling, chart projections and OBJ/PLY export.

The 4-dimensional cases are projected to 3-space for inspection only; all
verification runs on the unprojected patch.  The sphere uses stereographic
projection (default pole -e4, configurable); the hyperboloid uses the
Poincare ball chart (x1, x2, x3)/(1 + x4).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ProjectionError, UsageError
from .surfaces import SurfacePatch

__all__ = [
    "Mesh",
    "sample_mesh",
    "stereographic",
    "poincare_ball",
    "write_obj",
    "write_ply",
]


def _rows(table, row: str) -> str:
    """The %-template ``row`` applied to every row of ``table`` in one pass.

    One format call over the whole table instead of one per value; the
    output is the same as formatting each value with ``"{:.17g}"``.
    """
    table = np.asarray(table)
    return (row * len(table)) % tuple(table.ravel().tolist())


@dataclass(frozen=True, eq=False)
class Mesh:
    """Grid mesh: projected vertices, quad faces, per-vertex scalar channels."""

    vertices: np.ndarray          # (N, 3)
    quads: np.ndarray             # (M, 4) int indices
    channels: dict = field(default_factory=dict)
    grid_shape: tuple[int, int] = (0, 0)

    def triangles(self) -> np.ndarray:
        q = self.quads
        return np.concatenate([q[:, [0, 1, 2]], q[:, [0, 2, 3]]], axis=0)


def stereographic(points: np.ndarray, pole: np.ndarray | None = None) -> np.ndarray:
    """Stereographic chart of the unit 3-sphere from ``pole``.

    The point diametrically opposite the pole maps to the origin.  Points
    at the pole itself are singular; callers should check beforehand.
    """
    points = np.asarray(points, dtype=float)
    if pole is None:
        pole = np.array([0.0, 0.0, 0.0, -1.0])
    pole = np.asarray(pole, dtype=float) / np.linalg.norm(pole)
    t = points @ pole
    denom = 1.0 - t
    rest = points - t[..., None] * pole
    # build an orthonormal basis of pole^perp deterministically
    basis = [e for e in np.eye(4) if abs(e @ pole) < 1 - 1e-12][:3]
    frame = np.stack(_gram_schmidt(basis, pole), axis=0)
    return (rest @ frame.T) / denom[..., None]


def _gram_schmidt(vectors, pole):
    out = []
    for v in vectors:
        w = v - (v @ pole) * pole
        for u in out:
            w = w - (w @ u) * u
        n = np.linalg.norm(w)
        if n > 1e-12:
            out.append(w / n)
    return out[:3]


def poincare_ball(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return points[..., :3] / (1.0 + points[..., 3:4])


def _suggest_pole(points: np.ndarray) -> np.ndarray:
    best, best_gap = None, -np.inf
    for sgn in (1.0, -1.0):
        for i in range(4):
            pole = np.zeros(4)
            pole[i] = sgn
            gap = float(np.min(1.0 - points @ pole))
            if gap > best_gap:
                best, best_gap = pole, gap
    return best


def sample_mesh(
    patch: SurfacePatch,
    nu: int,
    nv: int,
    projection: str = "auto",
    channels: dict | None = None,
    pole: np.ndarray | None = None,
) -> Mesh:
    """Sample the patch on a regular nu x nv grid into a quad mesh.

    ``channels`` maps names to per-vertex arrays of shape (nu, nv) (for
    example the verifier's f, K and residual fields).  Projection "auto"
    picks identity / stereographic / Poincare ball by the patch case.
    """
    if nu < 2 or nv < 2:
        raise UsageError("mesh grids need at least 2 samples per direction")
    u = np.linspace(*patch.u_range, nu)
    v = np.linspace(*patch.v_range, nv)
    X = patch.X(u[:, None], v[None, :]).reshape(nu * nv, -1)

    if projection == "auto":
        projection = {
            "r3_revolution": "identity",
            "s3": "stereographic",
            "h3_elliptic": "poincare",
            "h3_parabolic": "poincare",
        }.get(patch.case, "identity" if X.shape[-1] == 3 else "stereographic")

    if projection == "identity":
        if X.shape[-1] != 3:
            raise UsageError("identity projection needs 3-dimensional points")
        verts = X
    elif projection == "stereographic":
        p = pole if pole is not None else np.array([0.0, 0.0, 0.0, -1.0])
        gap = np.min(1.0 - X @ (p / np.linalg.norm(p)))
        if gap < 1e-6:
            raise ProjectionError(
                "projection pole lies on the sampled surface; "
                f"try pole={_suggest_pole(X).tolist()}"
            )
        verts = stereographic(X, p)
    elif projection == "poincare":
        verts = poincare_ball(X)
    else:
        raise UsageError(f"unknown projection '{projection}'")

    iu, iv = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    a = (iu * nv + iv).ravel()
    quads = np.stack([a, a + nv, a + nv + 1, a + 1], axis=1)

    ch = {}
    for name, values in (channels or {}).items():
        values = np.asarray(values, dtype=float)
        if values.shape != (nu, nv):
            raise UsageError(f"channel '{name}' must have shape {(nu, nv)}")
        ch[name] = values.reshape(nu * nv)

    return Mesh(vertices=verts, quads=quads, channels=ch, grid_shape=(nu, nv))


def write_obj(mesh: Mesh, path, sidecar=None) -> list:
    """ASCII OBJ with quad faces; channels go to a CSV sidecar file."""
    path = str(path)
    with open(path, "w") as fh:
        fh.write(_rows(mesh.vertices, "v" + " %.17g" * 3 + "\n"))
        fh.write(_rows(mesh.quads + 1, "f" + " %d" * mesh.quads.shape[1] + "\n"))
    written = [path]
    if mesh.channels:
        side = str(sidecar) if sidecar is not None else path + ".channels.csv"
        names = sorted(mesh.channels)
        table = np.column_stack(
            [np.arange(len(mesh.vertices))] + [mesh.channels[n] for n in names]
        )
        with open(side, "w") as fh:
            fh.write("vertex," + ",".join(names) + "\n")
            fh.write(_rows(table, "%d" + ",%.17g" * len(names) + "\n"))
        written.append(side)
    return written


def write_ply(mesh: Mesh, path) -> str:
    """ASCII PLY with per-vertex float properties for every channel."""
    path = str(path)
    names = sorted(mesh.channels)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(mesh.vertices)}",
        "property float x",
        "property float y",
        "property float z",
    ]
    header += [f"property float {n}" for n in names]
    header += [
        f"element face {len(mesh.quads)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    table = np.column_stack([mesh.vertices] + [mesh.channels[n] for n in names])
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(_rows(table, " ".join(["%.17g"] * table.shape[1]) + "\n"))
        fh.write(_rows(mesh.quads, "4" + " %d" * mesh.quads.shape[1] + "\n"))
    return path
