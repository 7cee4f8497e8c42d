"""Point-cloud loading, synthesis and basic cloud statistics."""

import json
import math
import os
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

from pregrasp import pointcloud
from pregrasp.errors import BadDimension, EmptyCloud, ParseError
from pregrasp.pointcloud import (
    PointCloud,
    load_cloud,
    load_results,
    save_results,
    synth_shape,
)


# ---------------------------------------------------------------------------
# xyz
# ---------------------------------------------------------------------------

def test_xyz_roundtrip(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header comment\n"
                    "0 0 0\n"
                    "1.5e-2 -2 3\n"
                    "\n"
                    "4 5 6\n"
                    "7 8 9\n")
    cloud = load_cloud(path)
    assert len(cloud) == 4
    np.testing.assert_allclose(cloud.points[1], [0.015, -2.0, 3.0])
    assert cloud.source_name.endswith("cloud.xyz")


def test_xyz_wrong_token_count_reports_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n0 0 0\n1 2\n0 0 0\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert err.value.line == 3


def test_xyz_bad_number_and_nonfinite(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 zero\n")
    with pytest.raises(ParseError):
        load_cloud(path)
    path.write_text("0 0 nan\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert "non-finite" in str(err.value)


def test_too_few_points_rejected(tmp_path):
    path = tmp_path / "tiny.xyz"
    path.write_text("0 0 0\n1 1 1\n2 2 2\n")
    with pytest.raises(EmptyCloud):
        load_cloud(path)


def test_unknown_extension_rejected(tmp_path):
    path = tmp_path / "cloud.pcd"
    path.write_text("0 0 0\n")
    with pytest.raises(ParseError):
        load_cloud(path)


def test_format_override_beats_extension(tmp_path):
    path = tmp_path / "cloud.dat"
    path.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    cloud = load_cloud(path, fmt="xyz")
    assert len(cloud) == 4


# ---------------------------------------------------------------------------
# ply
# ---------------------------------------------------------------------------

PLY_HEADER = """ply
format ascii 1.0
element vertex {n}
{props}end_header
"""
XYZ_PROPS = "property float x\nproperty float y\nproperty float z\n"


def _ply(tmp_path, n, props, rows):
    path = tmp_path / "cloud.ply"
    prop_lines = "".join(f"property float {p}\n" for p in props)
    path.write_text(PLY_HEADER.format(n=n, props=prop_lines) + rows)
    return path


def test_ply_basic(tmp_path):
    path = _ply(tmp_path, 4, ("x", "y", "z"),
                "0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    cloud = load_cloud(path)
    assert len(cloud) == 4
    np.testing.assert_allclose(cloud.points[3], [0.0, 0.0, 1.0])


def test_ply_reordered_and_extra_properties(tmp_path):
    path = _ply(tmp_path, 4, ("z", "nx", "x", "y"),
                "9 0 1 2\n9 0 4 5\n9 0 7 8\n3 0 6 6\n")
    cloud = load_cloud(path)
    np.testing.assert_allclose(cloud.points[0], [1.0, 2.0, 9.0])
    np.testing.assert_allclose(cloud.points[3], [6.0, 6.0, 3.0])


def test_ply_binary_rejected(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text("ply\nformat binary_little_endian 1.0\n"
                    "element vertex 1\nproperty float x\nend_header\n")
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    assert "binary" in str(err.value)


def test_ply_vertex_count_mismatch(tmp_path):
    path = _ply(tmp_path, 5, ("x", "y", "z"),
                "0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ParseError):
        load_cloud(path)


def test_ply_missing_coordinates(tmp_path):
    path = _ply(tmp_path, 1, ("x", "y"), "0 0\n")
    with pytest.raises(ParseError):
        load_cloud(path)


def test_ply_rejects_a_list_property_in_the_vertex_element(tmp_path):
    # the row would load as (0.5, 0.5, 1) if the list counted as one column
    path = tmp_path / "cloud.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 4\n"
                    "property list uchar float tags\nproperty float x\nproperty float y\n"
                    "property float z\nend_header\n" + "2 0.5 0.5 1 2 3\n" * 4)
    err = _parse_error(path)
    assert err.line == 4
    assert str(err) == ("line 4: vertex list properties are not supported: "
                        "'property list uchar float tags'")


def test_ply_list_property_of_a_later_face_element(tmp_path):
    path = _ply(tmp_path, 4, ("x", "y", "z"), "0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n")
    text = path.read_text().replace(
        "end_header", "element face 1\nproperty list uchar int vertex_indices\nend_header")
    path.write_text(text)
    np.testing.assert_array_equal(load_cloud(path).points[1], [1.0, 0.0, 0.0])


PLY_MATERIAL_FIRST = """ply
format ascii 1.0
element material 1
property uchar red
property uchar green
property uchar blue
element vertex 4
property float x
property float y
property float z
end_header
255 128 0
0 0 0
1 0 0
0 1 0
0 0 1
"""


def test_ply_skips_the_rows_of_elements_declared_before_the_vertices(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(PLY_MATERIAL_FIRST)
    cloud = load_cloud(path)
    np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_ply_element_with_fewer_properties_before_the_vertices(tmp_path):
    header = ("ply\nformat ascii 1.0\nelement camera 1\nproperty float view_px\n"
              "element vertex 4\nproperty float x\nproperty float y\nproperty float z\n"
              "end_header\n0.5\n")
    path = tmp_path / "cloud.ply"
    path.write_text(header + "0 0 0\n1 0 0\n0 1 0\n0 0 1\n")
    np.testing.assert_array_equal(load_cloud(path).points[3], [0, 0, 1])
    # a fault in the vertex rows keeps its own line number: data from line 11
    path.write_text(header + "0 0 0\n1 0 0\n0 abc 0\n0 0 1\n")
    err = _parse_error(path)
    assert str(err) == f"line 13: {BAD_NUMBER}"


@pytest.mark.parametrize("declaration", [
    "element material abc", "element material -1", "element material", "element vertex x"])
def test_ply_bad_count_before_the_vertices(tmp_path, declaration):
    path = tmp_path / "cloud.ply"
    path.write_text(PLY_MATERIAL_FIRST.replace("element material 1", declaration))
    err = _parse_error(path)
    assert err.line == 3
    assert str(err) == f"line 3: expected 'element <name> <count>', got {declaration!r}"


# ---------------------------------------------------------------------------
# obj
# ---------------------------------------------------------------------------

def test_obj_vertices_only(tmp_path):
    path = tmp_path / "cloud.obj"
    path.write_text("# comment\n"
                    "v 0 0 0\n"
                    "v 1 0 0\n"
                    "vn 9 9 9\n"
                    "v 0 1 0\n"
                    "f 1 2 3\n"
                    "v 0 0 1\n")
    cloud = load_cloud(path)
    assert len(cloud) == 4
    np.testing.assert_allclose(cloud.points[2], [0.0, 1.0, 0.0])


@pytest.mark.parametrize("read", ["bulk", "per-line"])
def test_obj_vertex_lines_may_separate_with_a_tab(tmp_path, monkeypatch, read):
    """`v` followed by a tab is a vertex line, on both read paths; `vt` and
    `vn` lines stay ignored."""
    if read == "per-line":
        monkeypatch.setattr(pointcloud, "_load_rows", lambda *_: None)
    path = tmp_path / "cloud.obj"
    path.write_text("v 0 0 0\nv\t1 0 0\nvt\t0.5 0.5\nv 0 1 0\nvn\t9 9 9\nv 0 0 1\nv\t1 1 1\n")
    assert load_cloud(path).points.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                                                [1, 1, 1]]


# ---------------------------------------------------------------------------
# fault order and number syntax (all three loaders)
# ---------------------------------------------------------------------------

BAD_NUMBER = "bad number: could not convert string to float: 'abc'"


def _parse_error(path):
    with pytest.raises(ParseError) as err:
        load_cloud(path)
    return err.value


@pytest.mark.parametrize("rows,line,reason", [
    # a bad number before a short line, then the reverse order
    pytest.param("0 0 0\n0 abc 0\n0 0 0\n1 2\n0 0 0\n", 2, BAD_NUMBER,
                 id="bad-number-then-short-line"),
    pytest.param("0 0 0\n1 2\n0 0 0\n0 abc 0\n0 0 0\n", 2, "expected 3 values, got 2",
                 id="short-line-then-bad-number"),
    # a non-finite value before a bad number, and the two on one line
    pytest.param("0 0 0\n0 nan 0\n0 0 0\nabc 0 0\n0 0 0\n", 2, "non-finite coordinate",
                 id="non-finite-then-bad-number"),
    pytest.param("0 0 0\nnan abc 0\n0 0 0\n0 0 0\n", 2, BAD_NUMBER,
                 id="non-finite-and-bad-number-on-one-line"),
])
def test_xyz_reports_the_first_fault(tmp_path, rows, line, reason):
    path = tmp_path / "bad.xyz"
    path.write_text(rows)
    err = _parse_error(path)
    assert err.line == line
    assert str(err) == f"line {line}: {reason}"


@pytest.mark.parametrize("rows,line,reason", [
    pytest.param("0 0 0\n0 abc 0\n0 0\n0 0 0\n0 0 0\n", 9, BAD_NUMBER,
                 id="bad-number-then-short-row"),
    pytest.param("0 0 0\n0 0\n0 abc 0\n0 0 0\n0 0 0\n", 9, "expected 3 vertex values, got 2",
                 id="short-row-then-bad-number"),
    # a bad number before the missing rows
    pytest.param("0 0 0\n0 abc 0\n0 0 0\n", 9, BAD_NUMBER, id="bad-number-then-missing-rows"),
])
def test_ply_reports_the_first_fault(tmp_path, rows, line, reason):
    err = _parse_error(_ply(tmp_path, 5, ("x", "y", "z"), rows))   # data from line 8
    assert err.line == line
    assert str(err) == f"line {line}: {reason}"


def test_obj_reports_the_first_fault(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nvn 0 0 1\nv inf 0 0\nv 1 2\nv abc 0 0\n")
    err = _parse_error(path)
    assert err.line == 3
    assert str(err) == "line 3: non-finite coordinate"


def test_coordinates_parse_as_python_floats(tmp_path):
    # digit separators, a signed zero, an Arabic-Indic digit, a subnormal
    tokens = [["1_0", "-0", "+1.5"], ["\u0663", "1e-3", ".5"], ["-1E2", "4.9e-324", "2."]]
    rows = "".join(" ".join(row) + "\n" for row in tokens) + "0 0 0\n"
    expected = np.array([[float(t) for t in row] for row in tokens] + [[0.0] * 3])
    for name, text in (("c.xyz", rows),
                       ("c.obj", "".join("v " + line + "\n" for line in rows.splitlines()))):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        cloud = load_cloud(path)
        assert cloud.points.dtype == np.float64 and cloud.points.flags.c_contiguous
        assert cloud.points.tobytes() == expected.tobytes()
    assert np.signbit(cloud.points[0, 1])
    path = tmp_path / "huge.xyz"
    path.write_text("0 0 0\n0 0 0\n0 1e400 0\n0 0 0\n")
    err = _parse_error(path)
    assert (err.line, err.reason) == (3, "non-finite coordinate")


# ---------------------------------------------------------------------------
# the bulk read against the per-line loaders
# ---------------------------------------------------------------------------

# Tokens Python's float() and numpy's reader both accept, and tokens only
# float() accepts, neither accepts, or that give a non-finite value.  Each
# text draws once whether its tokens may be odd and whether its rows keep
# their width, change it one by one, or all change it alike, so clean texts
# (which the bulk read takes) are drawn as often as faulty ones.
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-9, 9).map(str))
ODD_TOKENS = ["-0", "+1.5", ".5", "2.", "-1E2", "4.9e-324", "1e-3", "1_0", "\u0663",
              "\u0661.\u0665", "1e1_0", "1e400", "nan", "-inf", "Infinity", "abc",
              "0x10", "1,2", "", "v", "#"]
TOKENS = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(ODD_TOKENS))
ODD = st.shared(st.booleans(), key="odd tokens")
WIDTHS = st.shared(st.sampled_from(["kept", "rows", "all"]), key="row widths")
SHIFT = st.shared(st.sampled_from([-1, 1]), key="width shift")
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", "\u3000"])
BLANKS = st.sampled_from(["", " ", "\t "])


@st.composite
def _row(draw, head=(), width=3):
    widths = draw(WIDTHS)
    if widths == "all":
        width += draw(SHIFT)
    elif widths == "rows":
        width += draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    tokens = draw(st.lists(TOKENS if draw(ODD) else NUMBERS, min_size=width, max_size=width))
    return draw(st.sampled_from(["", " "])) + draw(SEPARATORS).join(list(head) + tokens)


@st.composite
def _text(draw, rows):
    lines = draw(rows)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


XYZ_LINES = st.lists(st.one_of(_row(), _row(), _row(), BLANKS, st.just("# a comment"),
                               st.just("  #1 2 3")), max_size=12)
OBJ_LINES = st.lists(st.one_of(_row(head=("v",)), _row(head=("v",)), _row(head=("vn",)),
                               st.sampled_from(["v", "v\t1 2 3", "f 1 2 3", "# v 1 2 3", "o part",
                                                "vt 0.5 0.5"]),
                               BLANKS), max_size=12)


@st.composite
def _ply_text(draw):
    """An ASCII PLY header (maybe an element before the vertices, extra and
    reordered vertex properties, a face element after them) and data rows
    whose count and widths may not match it."""
    extra = draw(st.sampled_from([[], ["nx"], ["nx", "s"]]))
    props = draw(st.permutations(["x", "y", "z"] + extra))
    n_before = draw(st.sampled_from([0, 0, 1, 2]))
    n_vertices = draw(st.integers(0, 8))
    header = ["ply", "format ascii 1.0", "comment made by hand"]
    if n_before:
        header += [f"element material {n_before}", "property uchar red"]
    header += [f"element vertex {n_vertices}"] + [f"property float {p}" for p in props]
    header += ["element face 1", "property list uchar int vertex_indices", "end_header"]
    n_rows = max(0, n_vertices + draw(st.sampled_from([0, 0, 0, -2, -1, 1])))
    body = draw(st.lists(_row(), min_size=n_before, max_size=n_before))
    body += draw(st.lists(_row(width=len(props)), min_size=n_rows, max_size=n_rows))
    body += draw(st.sampled_from([[], ["3 0 1 2"]]))
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(0, len(body))), draw(BLANKS))
    return header + body


def _outcome(call):
    """The points' dtype, shape, order and bytes, or the error's kind, line and message."""
    try:
        pts = call()
    except ParseError as err:
        return ("ParseError", err.line, str(err))
    return (pts.dtype, pts.shape, pts.flags.c_contiguous, pts.tobytes())


@pytest.fixture(scope="module")
def parity_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parity")


def _parity_cases(test):
    """Run `test` on 300 drawn (format, text) cases and a few pinned ones."""
    for case in (("xyz", ""), ("xyz", "# only\r\n# comments\r\n"), ("xyz", "0 0 0 1\n" * 5),
                 ("obj", "# no vertices\nf 1 2 3\n"),
                 ("ply", PLY_HEADER.format(n=0, props=XYZ_PROPS)),
                 ("ply", PLY_HEADER.format(n=5, props=XYZ_PROPS) + "0 0 0\n" * 4),
                 ("ply", PLY_HEADER.format(n=4, props=XYZ_PROPS + "property float nx\n")
                  + "0 0 0\n" * 4)):
        test = example(case)(test)
    test = given(st.one_of(st.tuples(st.just("xyz"), _text(XYZ_LINES)),
                           st.tuples(st.just("obj"), _text(OBJ_LINES)),
                           st.tuples(st.just("ply"), _text(_ply_text()))))(test)
    return settings(max_examples=300, deadline=None, derandomize=True, database=None)(test)


@_parity_cases
def test_bulk_read_matches_the_per_line_loaders(parity_dir, case):
    """load_cloud gives the per-line reference's array bytes, or its
    ParseError line and message, on texts with comments, blank lines, CRLF,
    extra PLY columns, elements before the vertices, short and long rows,
    non-finite values and tokens only float() accepts.  An empty file warns
    nothing (warnings are errors here)."""
    _check_parity(parity_dir, case)


@_parity_cases
def test_per_line_read_matches_the_per_line_loaders(parity_dir, case):
    """The same cases with the bulk read switched off, so that the shared
    per-line read meets every text, the clean ones too."""
    with mock.patch.object(pointcloud, "_load_rows", lambda *_: None):
        _check_parity(parity_dir, case)


def _check_parity(parity_dir, case):
    fmt, text = case
    path = parity_dir / f"cloud.{fmt}"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(lambda: oracles.reference_parse_lines(path, fmt))
    if want[0] != "ParseError" and want[1][0] < 4:
        with pytest.raises(EmptyCloud):
            load_cloud(path)
    else:
        assert _outcome(lambda: load_cloud(path).points) == want


def _clean_files(tmp_path, n=1000):
    pts = synth_shape("lshape", (0.2, 0.15, 0.04), n, seed=3).points
    rows = "\n".join(f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in pts.tolist()) + "\n"
    files = {"cloud.xyz": "# a header comment\n" + rows,
             "cloud.obj": "o part\n" + "".join("v " + r + "\n" for r in rows.splitlines()),
             "cloud.ply": PLY_HEADER.format(n=n, props=XYZ_PROPS) + rows}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [tmp_path / name for name in files]


def test_clean_files_take_the_bulk_read(tmp_path, monkeypatch):
    """A numpy whose reader rejects clean files would fall back to the
    per-line read on every file: make that read raise."""
    paths = _clean_files(tmp_path)
    want = [oracles.reference_parse_lines(p, p.suffix[1:]) for p in paths]

    def per_line(*_):
        raise AssertionError("the per-line read ran")

    monkeypatch.setattr(pointcloud, "_parse_rows", per_line)
    for path, ref in zip(paths, want):
        assert load_cloud(path).points.tobytes() == ref.tobytes()


def test_a_byte_order_mark_is_not_data(tmp_path):
    """A file that starts with a UTF-8 byte-order mark loads the same points
    as the file without it, on both reads: read as data, the mark would hide
    an OBJ file's first vertex and fail an XYZ or PLY file."""
    for path in _clean_files(tmp_path, n=10):
        want = load_cloud(path).points.tobytes()
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_cloud(path).points.tobytes() == want
        with mock.patch.object(pointcloud, "_load_rows", lambda *_: None):
            assert load_cloud(path).points.tobytes() == want
        assert oracles.reference_parse_lines(path, path.suffix[1:]).tobytes() == want


def test_load_memory_is_bounded(tmp_path):
    """A 100k-point .xyz loads in under 200 bytes of traced peak per point:
    the per-line loop's 300k token strings took about 356."""
    n = 100_000
    pts = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), n, seed=1).points
    path = tmp_path / "large.xyz"
    path.write_text("\n".join(f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in pts.tolist()) + "\n")
    tracemalloc.start()
    try:
        assert len(load_cloud(path)) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * n, f"load_cloud peaked at {peak / n:.0f} bytes per point"


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------

def test_synth_counts_and_determinism():
    a = synth_shape("box", (0.2, 0.15, 0.1), 500, seed=11)
    b = synth_shape("box", (0.2, 0.15, 0.1), 500, seed=11)
    c = synth_shape("box", (0.2, 0.15, 0.1), 500, seed=12)
    assert len(a) == 500
    np.testing.assert_array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_synth_box_points_lie_on_surface():
    cloud = synth_shape("box", (0.2, 0.15, 0.1), 800, seed=0)
    half = np.array([0.1, 0.075, 0.05])
    assert np.all(np.abs(cloud.points) <= half + 1e-12)
    on_face = np.isclose(np.abs(cloud.points), half, atol=1e-12)
    assert np.all(on_face.any(axis=1))


def test_synth_sphere_radius():
    cloud = synth_shape("sphere", (0.05,), 600, seed=0)
    radii = np.linalg.norm(cloud.points, axis=1)
    np.testing.assert_allclose(radii, 0.05, atol=1e-12)


def test_synth_cylinder_surface():
    cloud = synth_shape("cylinder", (0.03, 0.2), 800, seed=0)
    axial = cloud.points[:, 2]
    radial = np.linalg.norm(cloud.points[:, :2], axis=1)
    assert np.all(np.abs(axial) <= 0.1 + 1e-12)
    assert np.all(radial <= 0.03 + 1e-12)
    on_wall = np.isclose(radial, 0.03, atol=1e-12)
    on_cap = np.isclose(np.abs(axial), 0.1, atol=1e-12)
    assert np.all(on_wall | on_cap)


def test_synth_dumbbell_two_separated_blobs():
    cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 2000, seed=0)
    spread = cloud.points[:, 0].max() - cloud.points[:, 0].min()
    assert spread == pytest.approx(0.2, abs=0.02)
    # both ends populated
    assert (cloud.points[:, 0] < -0.05).sum() > 100
    assert (cloud.points[:, 0] > 0.05).sum() > 100


def test_synth_lshape_inside_union():
    cloud = synth_shape("lshape", (0.2, 0.15, 0.04), 2000, seed=0)
    mins = cloud.points.min(axis=0)
    maxs = cloud.points.max(axis=0)
    assert maxs[0] - mins[0] == pytest.approx(0.2, abs=1e-9)
    assert maxs[2] - mins[2] == pytest.approx(0.04, abs=1e-9)


def test_synth_union_points_not_trapped_inside():
    # union surfaces must reject points that ended up inside the other part
    cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 3000, seed=1)
    # neck points between the ends must lie on the neck surface, not inside an end
    mid = cloud.points[np.abs(cloud.points[:, 0]) < 0.01]
    assert len(mid) > 0
    radial = np.abs(mid[:, 1:]).max(axis=1)
    np.testing.assert_allclose(radial.min(), 0.0075, atol=1e-3)


def test_synth_validation():
    with pytest.raises(BadDimension):
        synth_shape("teapot", (1.0,), 100, seed=0)
    with pytest.raises(BadDimension, match=r"sphere needs \(r\), got 2 values"):
        synth_shape("sphere", (0.05, 0.05), 100, seed=0)
    with pytest.raises(BadDimension, match=r"dumbbell needs \(length, end_a, end_b, neck\)"):
        synth_shape("dumbbell", (0.2, 0.08, 0.03), 100, seed=0)
    with pytest.raises(BadDimension):
        synth_shape("box", (0.1, -0.1, 0.1), 100, seed=0)
    with pytest.raises(BadDimension):
        synth_shape("dumbbell", (0.1, 0.08, 0.03, 0.01), 100, seed=0)
    with pytest.raises(EmptyCloud):
        synth_shape("sphere", (0.05,), 3, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_synth_rejects_non_finite_dimensions(bad):
    with pytest.raises(BadDimension, match="finite"):
        synth_shape("sphere", (bad,), 100, seed=0)
    with pytest.raises(BadDimension, match="finite"):
        synth_shape("box", (0.1, bad, 0.1), 100, seed=0)



@pytest.mark.parametrize("kind, dims", [
    ("box", (1e308, 1e308, 0.1)),
    ("cylinder", (1e300, 1e300)),
    ("sphere", (1e200,)),
    ("dumbbell", (1e308, 1e200, 1e200, 0.015)),
    ("lshape", (1e200, 1e200, 1e200)),
])
def test_synth_rejects_an_overflowing_surface_area(kind, dims):
    """Finite dimensions whose surface area overflows are refused before
    any draw, not turned into NaN face weights or all-cap cylinders."""
    with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drew")):
        with pytest.raises(BadDimension, match="surface area .* overflows"):
            synth_shape(kind, dims, 100, seed=0)


def test_synth_keeps_a_large_finite_surface_area():
    """Legs of 1e308 m on a 4 cm section still have a finite area."""
    cloud = synth_shape("lshape", (1e308, 1e308, 0.04), 100, seed=0)
    assert cloud.points.shape == (100, 3) and np.isfinite(cloud.points).all()

# ---------------------------------------------------------------------------
# cloud statistics + results io
# ---------------------------------------------------------------------------

def test_centroid():
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [2.0, 2, 0], [0.0, 2, 1]])
    cloud = PointCloud(pts)
    np.testing.assert_allclose(cloud.centroid, [1.0, 1.0, 0.25])


def test_results_roundtrip(tmp_path):
    """A document is one line of compact JSON and a newline, and loads back
    equal, a negative zero and +-1e308 included."""
    path = tmp_path / "out" / "run.json"
    payload = {"config": {"seed": 0}, "pool": [1, 2, 3], "q": [-0.0, 1e308, -1e308, 0.1]}
    save_results(path, payload)
    text = path.read_text()
    assert text == json.dumps(payload) + "\n" and text.count("\n") == 1
    back = load_results(path)
    assert back == payload
    assert [math.copysign(1.0, q) for q in back["q"]] == [-1.0, 1.0, -1.0, 1.0]


def test_results_strings_may_spell_the_constants(tmp_path):
    """Only a bare NaN or Infinity is rejected, not one inside a string."""
    path = tmp_path / "run.json"
    payload = {"NaN": ['say "NaN"', "-Infinity\\", "Infinity"], "q": [1e308, -0.0]}
    save_results(path, payload)
    assert load_results(path) == payload


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_results_mode_follows_umask(tmp_path, umask, mode):
    """The document gets 0o666 less the umask, as a plain open gives it; a
    payload that fails to serialize leaves no file behind."""
    old = os.umask(umask)
    try:
        save_results(tmp_path / "run.json", {"pool": []})
        with pytest.raises(TypeError):
            save_results(tmp_path / "bad.json", {"pool": object()})
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "run.json").stat().st_mode) == mode
    assert [f.name for f in tmp_path.iterdir()] == ["run.json"]
