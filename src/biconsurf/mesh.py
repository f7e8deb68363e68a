"""Regular-grid mesh sampling, chart projections and OBJ/PLY export.

The 4-dimensional cases are projected to 3-space for inspection only; all
verification runs on the unprojected patch.  The sphere uses stereographic
projection (default pole -e4, configurable); the hyperboloid uses the
Poincare ball chart (x1, x2, x3)/(1 + x4).

The writers print every float as ``"%.17g" % x`` would, byte for byte, with
no option to change that.  One numpy kernel, ``_float_cells``, formats a
whole float table: 17 correctly rounded digits from a double-double product
|x| * 10**(16 - E), laid out in a cell of four 8-byte words per value (sign,
prefix, leading digit and point; the other sixteen digits, into which a
point of fixed form is put by moving the digits after it up one byte; the
digit so moved out and the exponent), which ``_cells_text`` joins into
lines.  A value that path cannot decide (nan, inf, |x| outside
[1e-280, 1e280], or a fraction within 1e-9 of a rounding tie, where the
product's error is below 1e-14) is printed by Python's own ``%`` into its
cell; zeros are printed directly.  A ``Mesh`` formats its vertex and
channel columns once, on the first write, into one table of cells, block
by block of rows of about ``_CHUNK`` values (the float table is never made
whole), and the OBJ, sidecar and PLY writers take their columns from those
cells.

Vertex ids are formatted once per mesh too: ``Mesh._ids`` holds the decimal
words of the ids 0 to N, digits right-aligned and zero-padded in one 8-byte
word per id (more once the ids have 8 or more digits).  OBJ faces (ids + 1),
PLY faces (ids) and the sidecar's index column are gathers from that table.
Every text pass, of float lines and face lines alike, runs over blocks of
``_TEXT_ROWS`` rows: a block is laid out in a ``bytearray`` of words, turned
into text by one ``translate`` that deletes the zero bytes and written
before the next block is made, so a writer holds one block's words and
text beside the cells.  The writers open their files in binary mode and
write those bytes, with their short headers encoded as UTF-8.  So the files
are ASCII (for ASCII channel names) with ``\n`` line ends on every platform.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .errors import ProjectionError, UsageError, _array
from .families import FAMILIES
from .surfaces import SurfacePatch, _grid_size

__all__ = [
    "Mesh",
    "sample_mesh",
    "stereographic",
    "poincare_ball",
    "write_obj",
    "write_ply",
]

# Each value is printed into a cell of four little-endian 64-bit words, one
# ASCII byte per slot, zero bytes for "no character":
#   word 0     sign, the prefix "0." to "0.000" (5), leading digit, point
#   words 1-2  digits 1-16, eight per word; in fixed form a point after digit
#              p (1 <= p <= 15) moves the digits after it up one byte
#   word 3     the digit so moved past word 2, the exponent "e+dd" to
#              "e-ddd" (5), separator, 1 unused
# so every part is written as whole words, and one ``bytes.translate`` that
# deletes the zero bytes turns a table of cells into its text.
_WORDS = 4
# |x| the fast path takes; its exponents E stay in [-_E_LIM, _E_LIM], where
# 10**(16 - E) and its Veltkamp split are finite
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_LIM = 282
_SPLIT = 134217729.0  # 2**27 + 1
# values per kernel pass: its temporaries (about 1.5 MB) stay in a core's
# L2 cache and below the verifier's block, and numpy's cost per call stays
# small beside the work per call
_CHUNK = 8192
# rows per block of every text pass: a block's words and text are made and
# written before the next block's, so a writer holds one block beside the
# mesh's cells
_TEXT_ROWS = 2048
_NO_POINT = 16  # the row of the point table for "no point"


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

    ``power``: per E + _E_LIM, the row hi, hi1, hi2, lo of 10**(16 - E) as a
    double-double hi + lo, with hi1 + hi2 the Veltkamp split of hi.
    ``quad``: the digits "0000" to "9999" as little-endian uint32s, so four
    groups of four gathered side by side are words 1-2.
    ``by_exp``: per E + _E_LIM, the row of word 0 without its sign, digit
    and point, word 3 without its moved digit and separator, the digit the
    point follows (in fixed form -1 where the prefix holds it; 0, the
    leading digit, in scientific form), and a zero that makes the row 32
    bytes, which ``np.take`` copies fastest.
    ``keep``: per count K of digits kept, the byte masks of words 1-2.
    ``point``, ``moves``: per digit p the point follows (_NO_POINT for
    none), its byte in words 1-2, and the masks of the bytes of words 1-2
    that move up one byte to make room for it.
    """
    exps = range(-_E_LIM, _E_LIM + 1)
    hi, lo = np.array([_pow10(16 - e) for e in exps]).T
    power = np.array([hi, *_split(hi), lo]).T.copy()
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    quad = digits.astype(np.uint8).view("<u4").ravel()
    by_exp = np.zeros((len(exps), 4), np.uint64)
    by_exp[:, 0] = _words(b"\0" + b"0.".ljust(1 - e, b"0") if -4 <= e < 0 else b"" for e in exps)
    by_exp[:, 1] = _words(b"" if -4 <= e < 17 else b"\0e%+03d" % e for e in exps)
    by_exp.view(np.int64)[:, 2] = [max(e, -1) if -4 <= e < 17 else 0 for e in exps]
    keep = _words(b"\xff" * min(max(k - 1 - 8 * g, 0), 8) for k in range(18) for g in (0, 1))
    point = np.zeros((_NO_POINT + 1, 16), np.uint8)
    moves = np.zeros((_NO_POINT + 1, 16), np.uint8)
    for p in range(1, _NO_POINT):
        point[p, p] = ord(".")
        moves[p, p:] = 0xFF
    return power, quad, by_exp, keep.reshape(-1, 2), point.view("<u8"), moves.view("<u8")


def _split(a):
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(ax, E, power):
    """Integer part and fraction of ax * 10**(16 - E), to within about 1e-14.

    Dekker's exact product of ax with the high word (numpy has no fused
    multiply-add), plus ax times the low word.
    """
    h, b1, b2, l = np.take(power, E + _E_LIM, axis=0).T
    p = ax * h
    a1, a2 = _split(ax)
    err = a1 * b1
    err -= p
    err += np.multiply(a1, b2, out=a1)
    err += np.multiply(a2, b1, out=a1)
    err += np.multiply(a2, b2, out=a2)
    err += np.multiply(ax, l, out=l)
    whole = np.floor(p)
    p -= whole
    p += err
    carry = np.floor(p, out=err)
    p -= carry
    d = whole.astype(np.int64)
    d += carry.astype(np.int64)
    return d, p


def _round17(x, power) -> tuple:
    """``(fast, E, d)``: |x| rounded to 17 digits as d * 10**(E - 16).

    ``d`` is in [10**16, 10**17) where ``fast``, and 0 elsewhere, that is
    for zeros and for the values the fast path cannot decide; E is 0 for
    zeros and some exponent in [-_E_LIM, _E_LIM] for the others.
    """
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)  # False for nan
    np.copyto(ax, 1.0, where=~fast)
    E = np.log10(ax)
    E = np.floor(E, out=E).astype(np.int64)
    d, frac = _scaled(ax, E, power)
    # log10 can miss by one next to a power of ten: the integer part shows it
    wrong = np.flatnonzero((d - 10**16).view(np.uint64) >= np.uint64(9 * 10**16))
    if wrong.size:
        E[wrong] += (d[wrong] >= 10**17).astype(np.int64) - (d[wrong] < 10**16)
        d[wrong], frac[wrong] = _scaled(ax[wrong], E[wrong], power)
        fast[wrong] &= (d[wrong] >= 10**16) & (d[wrong] < 10**17)
    frac -= 0.5
    d += frac > 0.0
    fast &= np.abs(frac, out=frac) >= 1e-9
    up = np.flatnonzero(d == 10**17)  # rounded up into the next decade
    d[up] = 10**16
    E[up] += 1
    d *= fast  # zeros print as "0"
    return fast, E, d


def _fill_cells(x, cells) -> None:
    """Write the cells of ``"%.17g" % v`` for the floats ``v`` of the 1-D ``x``.

    ``cells`` has shape ``(len(x), _WORDS)``; word 3 gets no separator.
    """
    power, quad, by_exp, keep, point, moves = _format_tables()
    fast, E, d = _round17(x, power)
    word0, word3, follows = np.take(by_exp, E + _E_LIM, axis=0).T[:3]
    follows = follows.view(np.int64)

    # the leading digit, and digits 1-16 in four groups of four gathered
    # side by side as words 1-2
    high = d // 10**8
    low = d - high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    groups = np.empty((len(x), 4), np.int64)
    for g, half in ((0, high), (2, low)):
        groups[:, g] = half // 10000
        groups[:, g + 1] = half - groups[:, g] * 10000
    digits = np.take(quad, groups).view("<u8")

    # the last nonzero digit (< 1 for none) is the top nonzero byte of
    # digits ^ "0000...", which the exponent of its value as a float shows
    top = (digits ^ np.uint64(0x3030303030303030)).astype(np.float64)
    top = top[:, 0] + top[:, 1] * 2.0**64
    last = ((top.view(np.int64) + 2**52) >> 55) - 127

    # the point follows digit ``dot``; digits after the last nonzero one that
    # follow the point are dropped, and the point too when no digit follows it
    dot = np.where(last > follows, follows, _NO_POINT)
    word0 |= np.signbit(x) * np.uint64(ord("-"))
    word0 |= (lead.astype(np.uint64) + np.uint64(48)) << np.uint64(48)
    word0 |= (dot == 0) * np.uint64(ord(".") << 56)
    digits &= np.take(keep, np.maximum(last, follows) + 1, axis=0)
    # a point in words 1-2 takes the byte of the first digit after it, and
    # that digit and the ones after it move up a byte, the last of word 1
    # into word 2 and the last of word 2 into word 3
    moved = np.take(moves, dot, axis=0)
    moved &= digits
    digits ^= moved
    digits |= np.take(point, dot, axis=0)
    digits[:, 1] |= moved[:, 0] >> np.uint64(56)
    word3 |= moved[:, 1] >> np.uint64(56)
    moved <<= np.uint64(8)
    digits |= moved
    cells[:, 0] = word0
    cells[:, 1] = digits[:, 0]
    cells[:, 2] = digits[:, 1]
    cells[:, 3] = word3
    slow = np.flatnonzero(~fast)
    slow = slow[x[slow] != 0.0]
    if slow.size:
        cells[slow] = _percent_words(x[slow])


def _percent_words(values) -> np.ndarray:
    """The cells of floats the fast path cannot decide.

    Python's own ``"%.17g" % v`` (at most 24 bytes), zero-padded.
    """
    text = b"".join((b"%.17g" % v).ljust(8 * _WORDS, b"\0") for v in values.tolist())
    return np.frombuffer(text, "<u8").reshape(-1, _WORDS)


def _float_cells(columns) -> np.ndarray:
    """The cells of the float table ``np.column_stack(columns)``, shape
    ``(rows, table columns, _WORDS)``.

    The table is never made whole: each block of rows of about ``_CHUNK``
    values is stacked on its own and formatted straight into its cells, so
    a table of few rows still takes one kernel pass, not one per column.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    rows = len(columns[0])
    width = np.column_stack([column[:0] for column in columns]).shape[1]
    cells = np.empty((rows, width, _WORDS), "<u8")
    step = max(1, _CHUNK // width)
    for r in range(0, rows, step):
        block = np.column_stack([column[r:r + step] for column in columns])
        _fill_cells(block.reshape(-1), cells[r:r + step].reshape(-1, _WORDS))
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
    for r in range(0, ids.size, _CHUNK):  # chunks keep the temporaries small
        part = ids[r:r + _CHUNK]
        for j in range(digits):
            place = 10**j
            text[r:r + _CHUNK, -1 - j] = np.where((part >= place) | (place == 1),
                                                  part // place % 10 + 48, 0)
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
    ``sep``.  For ``cells = _float_cells([table])`` that is byte-identical to
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
    body[..., 3] |= ends << np.uint64(48)
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


def _write_blocks(fh, rows: int, text) -> None:
    """Write ``text(block)`` for each slice ``block`` of ``_TEXT_ROWS`` of
    ``rows`` rows, in order, each as soon as it is made."""
    for r in range(0, rows, _TEXT_ROWS):
        fh.write(text(slice(r, r + _TEXT_ROWS)))


def _sidecar_path(path) -> str:
    """The channel CSV ``write_obj`` writes beside the OBJ at ``path``."""
    return str(path) + ".channels.csv"


def _read_only(a) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    def __post_init__(self):
        vertices = _array(self.vertices, "mesh vertices", UsageError).copy()
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise UsageError(f"mesh vertices must have shape (N, 3), got {vertices.shape}")
        n = len(vertices)
        quads = _array(self.quads, "mesh quads", UsageError, None).copy()
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
            values = _array(values, f"mesh channel '{name}'", UsageError).copy()
            if values.shape != (n,):
                raise UsageError(
                    f"mesh channel '{name}' must have shape {(n,)}, got {values.shape}"
                )
            channels[name] = _read_only(values)
        object.__setattr__(self, "vertices", _read_only(vertices))
        object.__setattr__(self, "quads", _read_only(quads))
        object.__setattr__(self, "channels", MappingProxyType(channels))

    @cached_property
    def _cells(self) -> np.ndarray:
        """The ``%.17g`` cells of the vertex columns, then the channels by name."""
        columns = [self.channels[name] for name in sorted(self.channels)]
        return _read_only(_float_cells([self.vertices] + columns))

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
    p = _array(pole, "projection pole", UsageError)
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


def _chart_dimension(projection: str, dim: int, points: str) -> None:
    """``UsageError`` unless the chart ``projection`` takes points of ``dim``
    coordinates: identity 3 (r3), stereographic and Poincare 4 (s3, h3)."""
    need = {"identity": 3, "stereographic": 4, "poincare": 4}.get(projection, dim)
    if need != dim:
        raise UsageError(
            f"projection '{projection}' needs {need}-dimensional points; "
            f"{points} has {dim}-dimensional ones"
        )


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
    ``surface`` meshes the verified grid instead; this stays as the
    library's mesh of any patch, which the README quickstart uses.
    """
    nu, nv = _grid_size(nu, nv)
    u = np.linspace(*patch.u_range, nu)
    v = np.linspace(*patch.v_range, nv)
    return _grid_mesh(patch.case, patch.X(u[:, None], v[None, :]), projection, channels, pole)


def _grid_mesh(case: str, points: np.ndarray, projection: str, channels: dict | None,
               pole: np.ndarray | None = None) -> Mesh:
    """The quad mesh of ``sample_mesh`` from the points X of a ``case``
    patch on its regular grid, shape (nu, nv, dim)."""
    nu, nv = points.shape[:2]
    X = points.reshape(nu * nv, -1)

    if projection == "auto":
        family = FAMILIES.get(case)
        projection = family.projection if family is not None else (
            "identity" if X.shape[-1] == 3 else "stereographic")

    _chart_dimension(projection, X.shape[-1], f"the {case} patch")
    if projection == "identity":
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

    return Mesh(vertices=verts, quads=quads, channels=ch)


def write_obj(mesh: Mesh, path, sidecar=None) -> list:
    """ASCII OBJ with quad faces; channels go to a CSV sidecar file."""
    path = str(path)
    cells, ids, quads = mesh._cells, mesh._ids, mesh.quads
    with open(path, "wb") as fh:
        _write_blocks(fh, len(cells), lambda b: _cells_text(cells[b, :3], " ", "v "))
        _write_blocks(fh, len(quads), lambda b: _face_text(ids[1:], quads[b], "f"))
    written = [path]
    if mesh.channels:
        side = str(sidecar) if sidecar is not None else _sidecar_path(path)
        with open(side, "wb") as fh:
            fh.write(("vertex," + ",".join(sorted(mesh.channels)) + "\n").encode())
            _write_blocks(fh, len(cells), lambda b: _cells_text(cells[b, 3:], ",", ids=ids[b]))
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
    cells, ids, quads = mesh._cells, mesh._ids, mesh.quads
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        _write_blocks(fh, len(cells), lambda b: _cells_text(cells[b], " "))
        _write_blocks(fh, len(quads), lambda b: _face_text(ids, quads[b], str(quads.shape[1])))
    return path
