"""Regular-grid mesh sampling, chart projections and OBJ/PLY export.

The 4-dimensional cases are projected to 3-space for inspection only; all
verification runs on the unprojected patch.  The sphere uses stereographic
projection (default pole -e4, configurable); the hyperboloid uses the
Poincare ball chart (x1, x2, x3)/(1 + x4).

The writers print floats as ``"{:.17g}".format(x)`` would.  A ``Mesh``
formats each float table (vertices, channels) once, on the first write that
needs it, and every later OBJ, sidecar or PLY write reuses that text; the
mesh holds read-only copies of its arrays, so the text cannot go stale.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

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


def _float_rows(table) -> list:
    """Each row of a 2-D float table as its ``%.17g`` values joined by spaces."""
    return _rows(table, " ".join(["%.17g"] * table.shape[1]) + "\n").splitlines()


def _read_only(values) -> np.ndarray:
    a = np.array(values)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Mesh:
    """Grid mesh: projected vertices, quad faces, per-vertex scalar channels.

    The mesh keeps read-only copies of the arrays it is given and a
    read-only ``channels`` mapping, so writing into a mesh raises.  That
    keeps the text the writers cache on it (the ``%.17g`` rows of the
    vertices and of the channels, formatted once per mesh) equal to the
    arrays.
    """

    vertices: np.ndarray          # (N, 3)
    quads: np.ndarray             # (M, 4) int indices
    channels: Mapping[str, np.ndarray] = field(default_factory=dict)
    grid_shape: tuple[int, int] = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "vertices", _read_only(self.vertices))
        object.__setattr__(self, "quads", _read_only(self.quads))
        object.__setattr__(self, "channels", MappingProxyType(
            {name: _read_only(values) for name, values in self.channels.items()}
        ))

    def triangles(self) -> np.ndarray:
        q = self.quads
        return np.concatenate([q[:, [0, 1, 2]], q[:, [0, 2, 3]]], axis=0)

    @cached_property
    def _vertex_rows(self) -> list:
        return _float_rows(self.vertices)

    @cached_property
    def _channel_rows(self) -> list:
        """Channel values per vertex, in sorted channel-name order."""
        return _float_rows(np.column_stack([self.channels[n] for n in sorted(self.channels)]))


def stereographic(points: np.ndarray, pole: np.ndarray | None = None) -> np.ndarray:
    """Stereographic chart of the unit 3-sphere from ``pole``.

    The point diametrically opposite the pole maps to the origin.  Points
    at the pole itself are singular; callers should check beforehand.  A
    pole that is not a 4-vector of finite, nonzero length raises
    ``UsageError``.
    """
    points = np.asarray(points, dtype=float)
    pole = _pole(pole)
    pole = pole / np.linalg.norm(pole)
    t = points @ pole
    denom = 1.0 - t
    rest = points - t[..., None] * pole
    # build an orthonormal basis of pole^perp deterministically
    basis = [e for e in np.eye(4) if abs(e @ pole) < 1 - 1e-12][:3]
    frame = np.stack(_gram_schmidt(basis, pole), axis=0)
    return (rest @ frame.T) / denom[..., None]


def _pole(pole) -> np.ndarray:
    """The stereographic pole as a float 4-vector (default -e4).

    Raises ``UsageError`` unless it is a 4-vector of finite, nonzero length.
    """
    if pole is None:
        return np.array([0.0, 0.0, 0.0, -1.0])
    try:
        p = np.asarray(pole, dtype=float)
    except (TypeError, ValueError):
        raise UsageError(f"projection pole {pole!r} is not a numeric 4-vector") from None
    if p.shape != (4,):
        raise UsageError(f"projection pole must be a 4-vector, got shape {p.shape}")
    with np.errstate(all="ignore"):
        length = np.linalg.norm(p)
    if not (np.isfinite(length) and length > 0.0):
        raise UsageError(f"projection pole {p.tolist()} has no finite, nonzero length")
    return p


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
        p = _pole(pole)
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
        fh.writelines(f"v {row}\n" for row in mesh._vertex_rows)
        fh.write(_rows(mesh.quads + 1, "f" + " %d" * mesh.quads.shape[1] + "\n"))
    written = [path]
    if mesh.channels:
        side = str(sidecar) if sidecar is not None else path + ".channels.csv"
        body = "".join([f"{i} {row}\n" for i, row in enumerate(mesh._channel_rows)])
        with open(side, "w") as fh:
            fh.write("vertex," + ",".join(sorted(mesh.channels)) + "\n")
            fh.write(body.replace(" ", ","))
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
    if names:
        body = (f"{v} {c}\n" for v, c in zip(mesh._vertex_rows, mesh._channel_rows))
    else:
        body = (f"{v}\n" for v in mesh._vertex_rows)
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        fh.writelines(body)
        fh.write(_rows(mesh.quads, "4" + " %d" * mesh.quads.shape[1] + "\n"))
    return path
