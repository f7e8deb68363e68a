"""The vectorized ``%.17g`` kernel against Python's own ``%`` formatting.

Every float the writers export goes through ``mesh._float_cells`` and
``mesh._cells_text``; the text must be byte-identical to ``%``.
"""
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biconsurf import mesh, pipeline
from biconsurf.pipeline import PipelineConfig, cmd_profile, cmd_solve, cmd_surface


def kernel(table, sep=" ", head="", index=False):
    ids = mesh._id_words(np.arange(len(table))) if index else None
    return mesh._cells_text(mesh._float_cells([table]), sep, head, ids).decode("ascii")


def reference(table, sep=" ", head="", index=False):
    table = np.asarray(table, dtype=float)
    fields = (["%d"] if index else []) + ["%.17g"] * table.shape[1]
    line = head + sep.join(fields) + "\n"
    values = []
    for i, row in enumerate(table.tolist()):
        values += ([i] if index else []) + row
    return (line * len(table)) % tuple(values)


LAYOUTS = [(" ", "", False), (",", "", False), (" ", "v ", False), (",", "", True)]


def edge_values():
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              np.nan, np.inf, 0.1, 1 / 3, 2.0**60, 2.0**53 + 2.0, 123456.0]
    # 1 + 2**-17 and the others with 18 digits ending in 5 are ties at 17,
    # rounded to even both ways
    values += [1.0 + 2.0**-k for k in range(1, 53)]
    values += [10.0 ** (17 - k) + m * 2.0**-k for k in (14, 15, 16, 17) for m in (1, 3, 5, 7)]
    for j in range(-323, 309):
        p = float(f"1e{j}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    # the %g switch points between fixed and scientific form
    for p in (1e-5, 1e-4, 1e16, 1e17):
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), p * (1 - 1e-16)]
    # values that round up into the next decade
    values += [9.9999999999999995e-5, 99999999999999999.0, 9.99999999999999999e-5,
               9.9999999999999999e16, 0.99999999999999999, 9.9999999999999995e-1,
               9.99999999999999999e22, 1e23, 9.9999999999999999e-281, 1e-280, 1e280]
    values = np.array(values)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("sep,head,index", LAYOUTS)
def test_edge_values(sep, head, index):
    values = edge_values()
    for table in (values[:, None], values[: len(values) // 4 * 4].reshape(-1, 4)):
        assert kernel(table, sep, head, index) == reference(table, sep, head, index)


def test_million_random_bit_patterns():
    # both signs, every exponent, nan payloads and subnormals
    rng = np.random.default_rng(20261018)
    for (sep, head, index), _ in zip(LAYOUTS * 2, range(8)):
        bits = rng.integers(0, 2**64, size=131072, dtype=np.uint64)
        table = bits.view(np.float64).reshape(-1, 4)
        assert kernel(table, sep, head, index) == reference(table, sep, head, index)


@pytest.mark.parametrize("shape", [(1, 5), (7, 1), (0, 3), (1, 1), (0, 1)])
@pytest.mark.parametrize("sep,head,index", LAYOUTS)
def test_table_shapes(shape, sep, head, index):
    rng = np.random.default_rng(sum(shape))
    table = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
    assert kernel(table, sep, head, index) == reference(table, sep, head, index)


def test_row_numbers_past_a_power_of_ten():
    table = np.arange(1001.0)[:, None] / 7.0
    assert kernel(table, ",", index=True) == reference(table, ",", index=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=24), st.integers(1, 3))
def test_any_floats(values, cols):
    table = np.array(values * cols).reshape(-1, cols)
    assert kernel(table) == reference(table)
    assert kernel(table, ",", index=True) == reference(table, ",", index=True)


def test_nominal_s3_mesh_takes_the_fast_path(tmp_path, monkeypatch):
    # only values the fast path cannot decide reach Python's %; on the
    # benchmark's nominal s3 mesh (k0 = k0' = 1, 128 x 128) there are none
    slow = []
    percent = mesh._percent_words

    def recorded(values):
        slow.extend(values.tolist())
        return percent(values)

    monkeypatch.setattr(mesh, "_percent_words", recorded)
    cfg = PipelineConfig(model="s3", k0=1.0, kp0=1.0, nu=128, nv=128)
    out = cmd_surface(cfg, tmp_path)
    assert out["written"]["obj"] and out["written"]["ply"]
    assert [v for v in slow if v != 0.0] == []


@pytest.mark.parametrize("model,branch,k0,kp0", [
    ("s3", "auto", 1.0, 1.0),
    ("h3", "parabolic", 0.25, 0.2),
])
def test_solve_and_profile_csv_bytes(tmp_path, monkeypatch, model, branch, k0, kp0):
    tables = []
    write = pipeline._write_lines

    def recorded(path, lines, table=None):
        tables.append((path, lines, np.column_stack(table)))
        return write(path, lines, table)

    monkeypatch.setattr(pipeline, "_write_lines", recorded)
    cfg = PipelineConfig(model=model, branch=branch, k0=k0, kp0=kp0, n_csv=64)
    cmd_solve(cfg, tmp_path / "solve.csv")
    cmd_profile(cfg, tmp_path / "profile.csv")
    assert [path.name for path, _, _ in tables] == ["solve.csv", "profile.csv"]
    for path, lines, table in tables:
        rows = "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())
        assert path.read_text() == "\n".join(lines) + "\n" + rows


def faces_reference(values, quads, head):
    return "".join(head + "".join(" %d" % values[i] for i in q) + "\n" for q in quads)


@pytest.mark.parametrize("top", [9, 10, 99, 100, 9_999_999, 10_000_000])
def test_id_words_at_digit_and_word_boundaries(top):
    # synthetic ids rather than a mesh of ten million vertices: the words
    # of a few values, faces that gather them and rows numbered by them
    values = np.array([0, 1, top // 2, top - 1, top, 7])
    ids = mesh._id_words(values)
    assert ids.shape == (len(values), 2 if top >= 10_000_000 else 1)
    quads = np.array([[0, 1, 2, 3], [3, 4, 5, 0], [4, 4, 4, 4]])
    assert mesh._face_text(ids, quads, "f").decode("ascii") == faces_reference(values, quads, "f")
    assert mesh._face_text(ids, quads[:, :3], "3").decode("ascii") == faces_reference(
        values, quads[:, :3], "3")
    table = np.linspace(-1.0, 1.0, 2 * len(values)).reshape(-1, 2)
    text = mesh._cells_text(mesh._float_cells([table]), ",", ids=ids).decode("ascii")
    assert text == "".join("%d,%.17g,%.17g\n" % (v, *row) for v, row in zip(values, table.tolist()))


def test_mesh_faces_past_powers_of_ten(tmp_path):
    # OBJ ids count from 1, PLY ids and the sidecar rows from 0
    n = 1001
    verts = np.arange(3.0 * n).reshape(n, 3)
    quads = np.array([[0, 8, 9, 10], [98, 99, 100, 1], [998, 999, 1000, 0]])
    m = mesh.Mesh(vertices=verts, quads=quads, channels={"f": verts[:, 0]})
    obj, side = mesh.write_obj(m, tmp_path / "m.obj")
    text = (tmp_path / "m.obj").read_bytes().decode("ascii")
    assert text.endswith(faces_reference(np.arange(1, n + 1), quads, "f"))
    rows = (tmp_path / "m.obj.channels.csv").read_bytes().decode("ascii").splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["%d" % i for i in range(n)]
    mesh.write_ply(m, tmp_path / "m.ply")
    text = (tmp_path / "m.ply").read_bytes().decode("ascii")
    assert text.endswith(faces_reference(np.arange(n), quads, "4"))


def test_mesh_without_quads(tmp_path):
    verts = np.array([[0.0, 1.0, 2.0], [-0.5, 0.25, np.nan]])
    m = mesh.Mesh(vertices=verts, quads=np.zeros((0, 4), int), channels={"f": [1.0, 2.0]})
    mesh.write_obj(m, tmp_path / "m.obj")
    mesh.write_ply(m, tmp_path / "m.ply")
    obj = (tmp_path / "m.obj").read_bytes()
    assert obj == b"v 0 1 2\nv -0.5 0.25 nan\n"
    assert (tmp_path / "m.obj.channels.csv").read_bytes() == b"vertex,f\n0,1\n1,2\n"
    header, body = (tmp_path / "m.ply").read_bytes().split(b"end_header\n")
    assert b"element face 0\n" in header
    assert body == b"0 1 2 1\n-0.5 0.25 nan 2\n"


def cell_bytes(values, monkeypatch):
    # the cells of fast-path values: none may reach Python's %
    def refused(values):
        raise AssertionError(f"{values.tolist()} took the % path")

    monkeypatch.setattr(mesh, "_percent_words", refused)
    cells = mesh._float_cells([values])
    assert cells.shape[-1] == 4  # four words of 8 bytes per value
    return cells.view(np.uint8).reshape(len(values), 32)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("mantissa", ["12345678901234565", "1234567", "1"])
def test_point_after_each_digit(monkeypatch, sign, mantissa):
    # word 0 holds the point after the leading digit (p = 0); words 1-2 hold
    # digits 1-16, and a point after digit p (1 <= p <= 15) takes byte p of
    # them, moving the digits after it up one byte
    values = [sign * float(f"{mantissa[0]}.{mantissa[1:]}e{p}") for p in range(17)]
    cells = cell_bytes(values, monkeypatch)
    for p, (value, cell) in enumerate(zip(values, cells)):
        text = "%.17g" % value
        assert bytes(cell[cell != 0]).decode("ascii") == text
        points = np.flatnonzero(cell == ord("."))
        if "." not in text:
            assert points.size == 0
        elif p == 0:
            assert points.tolist() == [7]
        else:
            assert points.tolist() == [8 + p]
        assert not cell[25:].any()  # fixed form has no exponent


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_seventeenth_digit_moves_into_word_three(monkeypatch, sign):
    # with 17 digits and the point in words 1-2, digit 16 moves past word 2
    # into byte 0 of word 3; without a moved digit that byte stays empty
    values = sign * np.array([12.345678901234567, 1234567890123456.5, 1.2345678901234567])
    cells = cell_bytes(values, monkeypatch)
    assert [chr(c) for c in cells[:2, 24]] == ["7", "5"]
    assert cells[2, 24] == 0 and chr(cells[2, 23]) == "7"
    # scientific form: the exponent in bytes 1-5 of word 3, after byte 0
    sci = cell_bytes(sign * np.array([1.2345678901234567e-30, 1.2345678901234567e200]),
                     monkeypatch)
    assert not sci[:, 24].any() and not sci[:, 30:].any()
    assert bytes(sci[0, 25:30]) == b"e-30\0" and bytes(sci[1, 25:30]) == b"e+200"
    assert [chr(c) for c in sci[:, 23]] == ["7", "7"]


def percent_files(m) -> tuple:
    """The OBJ, sidecar and PLY bytes of the mesh ``m`` with every number
    formatted by ``%``."""
    names = sorted(m.channels)
    verts = m.vertices.tolist()
    columns = np.column_stack([m.channels[n] for n in names]).tolist()
    quads = m.quads.tolist()
    obj = "".join("v %.17g %.17g %.17g\n" % tuple(v) for v in verts)
    obj += "".join("f" + "".join(" %d" % (i + 1) for i in q) + "\n" for q in quads)
    side = "vertex," + ",".join(names) + "\n"
    side += "".join("%d," % i + ",".join("%.17g" % x for x in row) + "\n"
                    for i, row in enumerate(columns))
    header = ["ply", "format ascii 1.0", f"element vertex {len(verts)}"]
    header += [f"property float {n}" for n in ["x", "y", "z"] + names]
    header += [f"element face {len(quads)}", "property list uchar int vertex_indices",
               "end_header"]
    ply = "\n".join(header) + "\n"
    ply += "".join(" ".join("%.17g" % x for x in v + row) + "\n" for v, row in zip(verts, columns))
    ply += "".join("%d" % len(q) + "".join(" %d" % i for i in q) + "\n" for q in quads)
    return obj.encode("ascii"), side.encode("ascii"), ply.encode("ascii")


def written_files(m, out: Path) -> tuple:
    out.mkdir()
    obj, side = mesh.write_obj(m, out / "m.obj")
    ply = mesh.write_ply(m, out / "m.ply")
    return tuple(Path(path).read_bytes() for path in (obj, side, ply))


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_text_blocks_change_no_byte(tmp_path, monkeypatch, rows):
    # vertex and face counts of 1, a multiple of the block and one more; at
    # 1- and 2-row blocks the sidecar ids 9 and 10 lie on either side of a
    # block edge
    multiple = -(-12 // rows) * rows
    counts = (1, multiple, multiple + 1)
    rng = np.random.default_rng(rows)
    for n, m_faces in itertools.product(counts, counts):
        verts = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-20, 20, size=(n, 3))
        quads = rng.integers(0, n, size=(m_faces, 4))
        m = mesh.Mesh(vertices=verts, quads=quads,
                      channels={"f": rng.normal(size=n), "K": -rng.random(n)})
        case = tmp_path / f"{rows}-{n}-{m_faces}"
        case.mkdir()
        whole = written_files(m, case / "whole")
        with monkeypatch.context() as patched:
            patched.setattr(mesh, "_TEXT_ROWS", rows)
            blocked = written_files(m, case / "blocked")
        assert blocked == whole == percent_files(m), (n, m_faces)


def test_nominal_s3_mesh_files_match_percent_formatting(tmp_path, monkeypatch):
    # the OBJ, its channel sidecar and the PLY of the benchmark's nominal s3
    # surface, each against a writer that formats every number with %
    meshes = []
    grid_mesh = pipeline._grid_mesh

    def recorded(*args, **kwargs):
        meshes.append(grid_mesh(*args, **kwargs))
        return meshes[-1]

    monkeypatch.setattr(pipeline, "_grid_mesh", recorded)
    out = cmd_surface(PipelineConfig(model="s3", k0=1.0, kp0=1.0, nu=128, nv=128), tmp_path)
    (m,) = meshes
    obj, side, ply = percent_files(m)
    obj_path, side_path = map(Path, out["written"]["obj"])
    assert obj_path.read_bytes() == obj
    assert side_path.read_bytes() == side
    assert Path(out["written"]["ply"]).read_bytes() == ply
