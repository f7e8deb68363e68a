"""Regular-grid mesh sampling, chart projections and OBJ/PLY export.

The 4-dimensional cases are projected to 3-space for inspection only; all
verification runs on the unprojected patch.  The sphere uses stereographic
projection (default pole -e4, configurable); the hyperboloid uses the
Poincare ball chart (x1, x2, x3)/(1 + x4).

The writers print every float as ``"%.17g" % x`` would, byte for byte, with
no option to change that.  One numpy kernel, ``_float_cells``, formats a
whole float table: 17 correctly rounded digits from a double-double product
|x| * 10**(16 - E), laid out in fixed byte slots per value, which
``_cells_text`` joins into lines.  A value that path cannot decide (nan,
inf, |x| outside [1e-280, 1e280], or a fraction within 1e-9 of a rounding
tie, where the product's error is below 1e-14) is printed by Python's own
``%`` into its slots; zeros are printed directly.  A ``Mesh`` formats its
vertex and channel columns once, on the first write, and the OBJ, sidecar
and PLY writers take their columns from those cells.

Vertex ids are formatted once per mesh too: ``Mesh._ids`` holds the decimal
words of the ids 0 to N, digits right-aligned and zero-padded in one 8-byte
word per id (more once the ids have 8 or more digits).  OBJ faces (ids + 1),
PLY faces (ids) and the sidecar's index column are gathers from that table.
Every table, floats and ids alike, is laid out in a ``bytearray`` of words
and turned into text by one ``translate`` that deletes the zero bytes; the
writers open their files in binary mode and write those bytes, with their
short headers encoded as UTF-8.  So the files are ASCII (for ASCII channel
names) with ``\n`` line ends on every platform.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .errors import ProjectionError, UsageError
from .surfaces import SurfacePatch, _grid_size

__all__ = [
    "Mesh",
    "sample_mesh",
    "stereographic",
    "poincare_ball",
    "write_obj",
    "write_ply",
]

# Each value is printed into a cell of six little-endian 64-bit words, one
# ASCII byte per slot, zero bytes for "no character":
#   word 0     sign, the prefix "0." to "0.000" (5), leading digit, point
#   words 1-4  four groups of four digits, each digit followed by a point slot
#   word 5     exponent "e+dd" to "e-ddd" (5), separator, 2 unused
# so every part is written as whole words, and one ``bytes.translate`` that
# deletes the zero bytes turns a table of cells into its text.
_WORDS = 6
# |x| the fast path takes; its exponents E stay in [-_E_LIM, _E_LIM], where
# 10**(16 - E) and its Veltkamp split are finite
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_LIM = 282
_SPLIT = 134217729.0  # 2**27 + 1
_CHUNK = 4096  # values per kernel pass, so its temporaries stay in cache
_NO_POINT = 17  # the row of the point table for "no point"


def _pow10(p: int) -> tuple:
    """10**p as a double-double (hi, lo): hi correctly rounded, lo that of the rest."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _words(rows) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian uint64s, zero-padded."""
    return np.frombuffer(b"".join(r.ljust(8, b"\0") for r in rows), "<u8")


@cache
def _format_tables() -> tuple:
    """The kernel's lookup tables, built on first use rather than at import.

    ``power``: rows hi, hi1, hi2, lo; column E + _E_LIM holds 10**(16 - E)
    as a double-double hi + lo, with hi1 + hi2 the Veltkamp split of hi.
    ``quad``: the digit words of "0000" to "9999"; ``trail``: the trailing
    zeros of each (4 for "0000").
    ``head``: word 0 without its digit, per 2 (E + _E_LIM) + sign bit;
    ``tail``: word 5 without its separator, per E + _E_LIM.
    ``keep``: per count K of digits kept, the byte masks of words 1-4;
    ``point``: per digit j the point follows (_NO_POINT for none), the point
    byte of words 0-4.
    """
    exps = range(-_E_LIM, _E_LIM + 1)
    hi, lo = np.array([_pow10(16 - e) for e in exps]).T
    power = np.array([hi, *_split(hi), lo])
    digits = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    digits = digits % 10 + ord("0")
    spread = np.zeros((10000, 8), np.uint8)
    spread[:, ::2] = digits
    quad = spread.view("<u8").ravel()
    zero = digits == ord("0")
    trail = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    head = _words(
        sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"").ljust(5, b"\0")
        for e in exps for sign in (b"\0", b"-")
    )
    tail = _words(b"" if -4 <= e < 17 else b"e%+03d" % e for e in exps)
    keep = _words(
        b"\xff" * 2 * min(max(k - 1 - 4 * g, 0), 4) for k in range(18) for g in range(4)
    ).reshape(18, 4)
    slots = np.zeros((_NO_POINT + 1, 5 * 8), np.uint8)
    slots[0, 7] = ord(".")
    for j in range(1, _NO_POINT):
        slots[j, 8 + 2 * (j - 1) + 1] = ord(".")
    point = slots.view("<u8")
    return power, quad, trail.astype(np.uint8), head, tail, keep, point


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(ax, E, power):
    """Integer part and fraction of ax * 10**(16 - E), to within about 1e-14.

    Dekker's exact product of ax with the high word (numpy has no fused
    multiply-add), plus ax times the low word.
    """
    h, b1, b2, l = np.take(power, E + _E_LIM, axis=1)
    p = ax * h
    a1, a2 = _split(ax)
    err = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    err += ax * l
    whole = np.floor(p)
    p -= whole
    p += err
    carry = np.floor(p)
    p -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), p


def _round17(x, power) -> tuple:
    """``(fast, E, d)``: |x| rounded to 17 digits as d * 10**(E - 16).

    ``d`` is in [10**16, 10**17) where ``fast``, and 0 (E = 0) elsewhere,
    that is for zeros and for the values the fast path cannot decide.
    """
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)  # False for nan
    ax = np.where(fast, ax, 1.0)
    E = np.floor(np.log10(ax)).astype(np.int64)
    d, frac = _scaled(ax, E, power)
    # log10 can miss by one next to a power of ten: the integer part shows it
    shift = (d >= 10**17).astype(np.int64) - (d < 10**16)
    wrong = np.nonzero(shift)
    if wrong[0].size:
        E[wrong] += shift[wrong]
        d[wrong], frac[wrong] = _scaled(ax[wrong], E[wrong], power)
    fast &= (d >= 10**16) & (d < 10**17) & (np.abs(frac - 0.5) >= 1e-9)
    d += frac > 0.5
    up = d == 10**17  # rounded up into the next decade
    d = np.where(fast, np.where(up, 10**16, d), 0)  # zeros print as "0"
    return fast, np.where(fast, E + up, 0), d


def _fill_cells(x, cells) -> None:
    """Write the cells of ``"%.17g" % v`` for the floats ``v`` of ``x``.

    ``cells`` has shape ``x.shape + (_WORDS,)``; word 5 gets no separator.
    """
    power, quad, trail, head, tail, keep, point = _format_tables()
    fast, E, d = _round17(x, power)

    # the leading digit and four groups of four
    high, low = np.divmod(d, 10**8)
    groups = np.empty(x.shape + (4,), np.int32)
    high, groups[..., 1] = np.divmod(high.astype(np.int32), 10000)
    lead, groups[..., 0] = np.divmod(high, 10000)
    groups[..., 2], groups[..., 3] = np.divmod(low.astype(np.int32), 10000)
    zeros = np.take(trail, groups)
    tail_zeros = zeros[..., 3]
    for k in (2, 1, 0):
        tail_zeros += (tail_zeros == 12 - 4 * k) * zeros[..., k]
    last = 16 - tail_zeros.astype(np.int64)  # the last nonzero digit

    # the point follows digit pos - 1 (pos 0: the prefix holds it); digits
    # after the last nonzero one that follow the point are dropped, and the
    # point too when no digit follows it
    fixed = (E >= -4) & (E < 17)
    pos = np.where(fixed, np.maximum(E + 1, 0), 1)
    dot = np.where((pos > 0) & (last >= pos), pos - 1, _NO_POINT)
    word = np.take(head, 2 * (E + _E_LIM) + np.signbit(x))
    word |= (lead.astype(np.uint64) + 48) << 48
    word |= np.take(point[:, 0], dot)
    cells[..., 0] = word
    digits = np.take(quad, groups)
    digits &= np.take(keep, np.maximum(last, pos - 1) + 1, axis=0)
    digits |= np.take(point[:, 1:], dot, axis=0)
    cells[..., 1:5] = digits
    cells[..., 5] = np.take(tail, E + _E_LIM)
    slow = np.nonzero(~fast & (x != 0.0))
    if slow[0].size:
        cells[slow + (slice(0, 5),)] = _percent_words(x[slow])


def _percent_words(values) -> np.ndarray:
    """Words 0-4 of the cells of floats the fast path cannot decide.

    Python's own ``"%.17g" % v`` (at most 24 bytes), zero-padded.
    """
    text = b"".join((b"%.17g" % v).ljust(40, b"\0") for v in values.tolist())
    return np.frombuffer(text, "<u8").reshape(-1, 5)


def _float_cells(table) -> np.ndarray:
    """The cells of a 2-D float table, shape ``table.shape + (_WORDS,)``."""
    table = np.asarray(table, dtype=float)
    cells = np.empty(table.shape + (_WORDS,), "<u8")
    step = max(1, _CHUNK // max(table.shape[1], 1))
    for r in range(0, len(table), step):  # chunks whose temporaries stay in cache
        _fill_cells(table[r:r + step], cells[r:r + step])
    return cells


def _id_words(ids) -> np.ndarray:
    """The decimal words of the non-negative integers ``ids``, shape ``(n, w)``.

    Each id is its digits right-aligned in w = digits // 8 + 1 little-endian
    words, zero bytes before them, with ``digits`` those of the largest id;
    so byte 0 of the first word is always free for a separator.
    """
    ids = np.asarray(ids, dtype=np.int64)
    digits = len(str(int(ids.max(initial=0))))
    text = np.zeros((ids.size, 8 * (digits // 8 + 1)), np.uint8)
    for j in range(digits):
        place = 10**j
        text[:, -1 - j] = np.where((ids >= place) | (place == 1), ids // place % 10 + 48, 0)
    return text.view("<u8")


def _word_table(rows: int, *widths: int) -> tuple:
    """A zeroed bytearray of ``rows`` lines of words and a view per column block."""
    buf = bytearray(8 * rows * sum(widths))
    out = np.frombuffer(buf, "<u8").reshape(rows, sum(widths))
    edges = np.cumsum((0,) + widths)
    return buf, [out[:, a:b] for a, b in zip(edges[:-1], edges[1:])]


def _cells_text(cells, sep: str, head: str = "", ids=None) -> bytearray:
    """The ASCII text of a table of cells, one line per row.

    A line is ``head``, then (given the id words ``ids`` of the rows, see
    ``_id_words``) the row's id and ``sep``, then the row's values joined by
    ``sep``.  For ``cells = _float_cells(table)`` that is byte-identical to
    ``(line * len(table)) % tuple(table.ravel().tolist())`` with ``line`` the
    matching ``%``-template of ``"%.17g"`` fields.
    """
    rows, cols = cells.shape[:2]
    lead = _words([head.encode()] if head else [])  # a head of at most 8 bytes
    index = 0 if ids is None else ids.shape[1] + 1
    buf, (first, number, body) = _word_table(rows, len(lead), index, cols * _WORDS)
    first[...] = lead
    if ids is not None:
        number[:, :-1] = ids[:rows]
        number[:, -1] = ord(sep)
    body = body.reshape(rows, cols, _WORDS)
    body[...] = cells
    ends = np.full(cols, ord(sep), np.uint64)
    ends[-1:] = ord("\n")
    body[..., 5] |= ends << np.uint64(40)
    return buf.translate(None, b"\0")


def _face_text(ids, quads, head: str) -> bytearray:
    """Lines ``head``, then `` id`` per vertex of a face, from the id words.

    ``ids`` are the words of ``_id_words`` and each quad entry is a row of
    them: one gather per table, no per-integer formatting.
    """
    rows, corners = quads.shape
    width = ids.shape[1]
    buf, (first, faces, last) = _word_table(rows, 1, corners * width, 1)
    first[...] = _words([head.encode()])
    faces = faces.reshape(rows, corners, width)
    np.take(ids, quads, axis=0, out=faces, mode="clip")  # a Mesh checks its quads
    faces[..., 0] |= np.uint64(ord(" "))
    last[...] = ord("\n")
    return buf.translate(None, b"\0")


def _sidecar_path(path) -> str:
    """The channel CSV ``write_obj`` writes beside the OBJ at ``path``."""
    return str(path) + ".channels.csv"


def _read_only(a) -> np.ndarray:
    a.flags.writeable = False
    return a


def _array(name: str, values, dtype=None) -> np.ndarray:
    """A copy of ``values`` as an array, or ``UsageError`` if it is none."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError):
        raise UsageError(f"mesh {name} is not a numeric array") from None


# the bytes a channel name may hold: it becomes one PLY property word and one
# comma-separated sidecar column name
_NAME_CHARS = frozenset(map(chr, range(0x21, 0x7F))) - {","}


@dataclass(frozen=True, eq=False)
class Mesh:
    """Grid mesh: projected vertices, quad faces, per-vertex scalar channels.

    The mesh keeps read-only copies of the arrays it is given and a
    read-only ``channels`` mapping, so writing into a mesh raises.  That
    keeps the cells the writers cache on it (its columns formatted once per
    mesh, its vertex ids once per mesh) equal to the arrays.  ``UsageError``
    unless the vertices have shape (N, 3), the quads are integers of shape
    (M, k) with k >= 3 and every id in [0, N), and every channel has shape
    (N,) and a non-empty name of printable ASCII with no whitespace or comma.
    """

    vertices: np.ndarray          # (N, 3)
    quads: np.ndarray             # (M, k) int indices, k >= 3 (4 from sample_mesh)
    channels: Mapping[str, np.ndarray] = field(default_factory=dict)
    grid_shape: tuple[int, int] = (0, 0)

    def __post_init__(self):
        vertices = _array("vertices", self.vertices, float)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise UsageError(f"mesh vertices must have shape (N, 3), got {vertices.shape}")
        n = len(vertices)
        quads = _array("quads", self.quads)
        if quads.ndim != 2 or quads.shape[1] < 3 or not np.issubdtype(quads.dtype, np.integer):
            raise UsageError(
                f"mesh quads must be integers of shape (M, k >= 3), got {quads.dtype} "
                f"of shape {quads.shape}"
            )
        if quads.size and not (quads.min() >= 0 and quads.max() < n):
            raise UsageError(f"mesh quads must hold vertex ids in [0, {n})")
        channels = {}
        for name, values in self.channels.items():
            if not (isinstance(name, str) and name and set(name) <= _NAME_CHARS):
                raise UsageError(
                    f"mesh channel name {name!r} must be non-empty printable ASCII "
                    "with no whitespace or comma"
                )
            values = _array(f"channel '{name}'", values, float)
            if values.shape != (n,):
                raise UsageError(
                    f"mesh channel '{name}' must have shape {(n,)}, got {values.shape}"
                )
            channels[name] = _read_only(values)
        object.__setattr__(self, "vertices", _read_only(vertices))
        object.__setattr__(self, "quads", _read_only(quads))
        object.__setattr__(self, "channels", MappingProxyType(channels))

    def triangles(self) -> np.ndarray:
        """Each face as a fan of triangles about its first corner, fan by fan."""
        q = self.quads
        return np.concatenate([q[:, [0, j, j + 1]] for j in range(1, q.shape[1] - 1)], axis=0)

    @cached_property
    def _cells(self) -> np.ndarray:
        """The ``%.17g`` cells of the vertex columns, then the channels by name."""
        columns = [self.channels[name] for name in sorted(self.channels)]
        cells = _float_cells(np.column_stack([self.vertices] + columns))
        return _read_only(cells)

    @cached_property
    def _ids(self) -> np.ndarray:
        """The decimal words of the vertex ids 0 to N (OBJ counts from 1)."""
        return _read_only(_id_words(np.arange(len(self.vertices) + 1)))


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


# the chart projections sample_mesh takes, "auto" choosing by the patch case
_PROJECTIONS = ("auto", "identity", "stereographic", "poincare")


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
    nu, nv = _grid_size(nu, nv)
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
    with open(path, "wb") as fh:
        fh.write(_cells_text(mesh._cells[:, :3], " ", "v "))
        fh.write(_face_text(mesh._ids[1:], mesh.quads, "f"))
    written = [path]
    if mesh.channels:
        side = str(sidecar) if sidecar is not None else _sidecar_path(path)
        with open(side, "wb") as fh:
            fh.write(("vertex," + ",".join(sorted(mesh.channels)) + "\n").encode())
            fh.write(_cells_text(mesh._cells[:, 3:], ",", ids=mesh._ids))
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
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(_cells_text(mesh._cells, " "))
        fh.write(_face_text(mesh._ids, mesh.quads, str(mesh.quads.shape[1])))
    return path
