"""Point-cloud loading, synthesis and basic cloud statistics."""

import json
import os
import stat

import numpy as np
import pytest

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
    ("0 0 0\n0 abc 0\n0 0 0\n1 2\n0 0 0\n", 2, BAD_NUMBER),
    ("0 0 0\n1 2\n0 0 0\n0 abc 0\n0 0 0\n", 2, "expected 3 values, got 2"),
    # a non-finite value before a bad number, and the two on one line
    ("0 0 0\n0 nan 0\n0 0 0\nabc 0 0\n0 0 0\n", 2, "non-finite coordinate"),
    ("0 0 0\nnan abc 0\n0 0 0\n0 0 0\n", 2, BAD_NUMBER),
])
def test_xyz_reports_the_first_fault(tmp_path, rows, line, reason):
    path = tmp_path / "bad.xyz"
    path.write_text(rows)
    err = _parse_error(path)
    assert err.line == line
    assert str(err) == f"line {line}: {reason}"


@pytest.mark.parametrize("rows,line,reason", [
    ("0 0 0\n0 abc 0\n0 0\n0 0 0\n0 0 0\n", 9, BAD_NUMBER),
    ("0 0 0\n0 0\n0 abc 0\n0 0 0\n0 0 0\n", 9, "expected 3 vertex values, got 2"),
    # a bad number before the missing rows
    ("0 0 0\n0 abc 0\n0 0 0\n", 9, BAD_NUMBER),
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


# ---------------------------------------------------------------------------
# cloud statistics + results io
# ---------------------------------------------------------------------------

def test_centroid():
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [2.0, 2, 0], [0.0, 2, 1]])
    cloud = PointCloud(pts)
    np.testing.assert_allclose(cloud.centroid, [1.0, 1.0, 0.25])


def test_results_roundtrip(tmp_path):
    path = tmp_path / "out" / "run.json"
    payload = {"config": {"seed": 0}, "pool": [1, 2, 3]}
    save_results(path, payload)
    assert load_results(path) == payload
    assert json.loads(path.read_text()) == payload


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
