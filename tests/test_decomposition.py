"""Minimum-volume box fitting and the fit-and-split decomposition tree."""

import dataclasses

import numpy as np
import pytest

import _mvbb_frozen as frozen
import helpers
import oracles

from pregrasp import DecompParams, decompose, decomposition, synth_shape
from pregrasp.decomposition import (
    EXTENT_FLOOR,
    SCREEN_DIRECTIONS,
    SCREEN_FINALISTS,
    DecompNode,
    DecompTree,
    OrientedBox,
    SplitPlane,
    _project,
    _side_summary,
    _slab_summaries,
    best_split,
    candidate_offsets,
    evaluate_split,
    fit_obb,
)
from pregrasp.errors import DegenerateInput, EmptySide
from pregrasp.pointcloud import PointCloud


# ---------------------------------------------------------------------------
# fit_obb
# ---------------------------------------------------------------------------

def test_fit_obb_axis_aligned_box_exact():
    rng = np.random.default_rng(0)
    half = np.array([0.1, 0.06, 0.03])
    pts = oracles.box_surface_points(rng, half, 400)
    box = fit_obb(pts)
    # local refinement may stop a fraction of a degree off-axis
    assert box.volume <= 8.0 * half.prod() * 1.02
    assert box.half_extents[0] >= box.half_extents[1] >= box.half_extents[2]
    np.testing.assert_allclose(np.abs(box.rotation), np.eye(3), atol=0.02)


def test_fit_obb_beats_grid_oracle_on_frozen_clouds():
    ratios = helpers.mvbb_oracle_ratios()
    assert len(ratios) == 50
    worst = max(ratios.values())
    assert worst <= 1.05, f"worst fit/grid volume ratio {worst:.4f}"


def test_fit_obb_square_cross_section_brick():
    # tied second/third eigenvalues: PCA alone cannot resolve the in-plane
    # angle, the planar rectangle repair must
    pts = oracles.make_rotated_brick_cloud()
    box = fit_obb(pts)
    assert box.volume <= 1.05 * frozen.BRICK_GRID_VOLUME


def test_fit_obb_rigid_motion_equivariance():
    pts, _ = oracles.make_rotated_box_cloud(3)
    v0 = fit_obb(pts).volume
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        rot = helpers.random_rotation(rng)
        moved = pts @ rot.T + rng.uniform(-1.0, 1.0, 3)
        assert fit_obb(moved).volume == pytest.approx(v0, rel=1e-6)


def test_fit_obb_contains_its_points():
    for seed in (0, 1, 2):
        pts, _ = oracles.make_rotated_box_cloud(seed)
        box = fit_obb(pts)
        assert box.contains(pts, tol=1e-9)


def test_fit_obb_planar_cloud_floors_thickness():
    rng = np.random.default_rng(0)
    pts = np.c_[rng.uniform(-0.1, 0.1, (200, 2)), np.zeros(200)]
    box = fit_obb(pts)
    assert box.half_extents[2] == pytest.approx(EXTENT_FLOOR)


def test_fit_obb_collinear_cloud_floors_two_axes():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
    box = fit_obb(pts)
    assert box.half_extents[0] == pytest.approx(1.5)
    np.testing.assert_allclose(box.half_extents[1:], EXTENT_FLOOR)


def test_fit_obb_coincident_points_rejected():
    with pytest.raises(DegenerateInput):
        fit_obb(np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# split machinery
# ---------------------------------------------------------------------------

def test_candidate_offsets_open_interval_formula():
    offs = candidate_offsets(1.0, 16)
    expected = -1.0 + np.arange(1, 17) * 2.0 / 17.0
    np.testing.assert_allclose(offs, expected)
    assert offs.min() > -1.0 and offs.max() < 1.0
    np.testing.assert_allclose(offs, -offs[::-1], atol=1e-15)


def test_evaluate_split_partitions_and_boundary_side():
    # points exactly on the plane belong to the non-negative side
    pts = np.array([
        [-0.5, 0.0, 0.0], [-0.5, 0.1, 0.0], [-0.5, 0.0, 0.1], [-0.4, 0.1, 0.1],
        [0.0, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1], [0.3, 0.1, 0.1],
    ])
    box = helpers.axis_box((0.0, 0.05, 0.05), (0.5, 0.1, 0.1))
    ev = evaluate_split(pts, box, SplitPlane(0, 0.0))
    assert sorted(ev.idx_a) == [0, 1, 2, 3]
    assert sorted(ev.idx_b) == [4, 5, 6, 7]
    assert ev.volume_sum == pytest.approx(ev.box_a.volume + ev.box_b.volume)


def test_evaluate_split_empty_side_raises():
    pts = np.array([[-0.5, 0.0, 0.0], [-0.5, 0.1, 0.0], [-0.4, 0.0, 0.1], [-0.45, 0.1, 0.1]])
    box = helpers.axis_box((0.0, 0.05, 0.05), (0.5, 0.1, 0.1))
    with pytest.raises(EmptySide):
        evaluate_split(pts, box, SplitPlane(0, 0.2))


def test_evaluate_split_coincident_side_raises():
    pts = np.array([
        [-0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [-0.5, 0.0, 0.0],
        [0.2, 0.0, 0.0], [0.2, 0.1, 0.0], [0.3, 0.0, 0.1], [0.4, 0.1, 0.1],
    ])
    box = helpers.axis_box((0.0, 0.05, 0.05), (0.5, 0.1, 0.1))
    with pytest.raises(DegenerateInput):
        evaluate_split(pts, box, SplitPlane(0, 0.0))


def _reference_split(node, cloud, params):
    """The accepted split of the exhaustive full-point search, or None."""
    ev = oracles.exhaustive_split(cloud.points[node.point_indices], node.box,
                                  params.planes_per_axis, params.mvbb_refine_steps)
    if ev is None or ev.volume_sum > params.volume_ratio * node.box.volume:
        return None
    if min(len(ev.idx_a), len(ev.idx_b)) <= params.min_points / 2.0:
        return None
    return ev


def _reference_decompose(cloud, params):
    """decompose() with every split chosen by the exhaustive search."""
    root = fit_obb(cloud.points, params.mvbb_refine_steps)
    tree = DecompTree([DecompNode(0, root, np.arange(len(cloud.points)))])
    for node in tree.nodes:          # visits appended children: breadth-first
        if len(node.point_indices) < params.min_points:
            continue
        ev = _reference_split(node, cloud, params)
        if ev is None:
            continue
        ida = len(tree.nodes)
        tree.nodes.append(DecompNode(ida, ev.box_a, node.point_indices[ev.idx_a], node.id))
        tree.nodes.append(DecompNode(ida + 1, ev.box_b, node.point_indices[ev.idx_b], node.id))
        node.children = (ida, ida + 1)
    return tree


def _searched_nodes(tree, params):
    return [n for n in tree.nodes if len(n.point_indices) >= params.min_points]


def _two_cluster_cloud():
    """Two separated blobs: every plane between them gives the same partition."""
    rng = np.random.default_rng(5)
    left = oracles.box_surface_points(rng, (0.02, 0.015, 0.01), 40) + [-0.08, 0.0, 0.0]
    right = oracles.box_surface_points(rng, (0.02, 0.015, 0.01), 40) + [+0.08, 0.0, 0.0]
    return PointCloud(np.concatenate([left, right]))


def _coincident_outlier_cloud():
    """A box with a lone outlier and a stack of duplicate points: planes that
    cut either off leave a side whose points all coincide."""
    rng = np.random.default_rng(8)
    body = oracles.box_surface_points(rng, (0.05, 0.03, 0.02), 600)
    return PointCloud(np.concatenate([body, [[0.2, 0.0, 0.0]], np.tile([-0.15, 0.05, 0.0], (4, 1))]))


@pytest.mark.parametrize("case", ["sphere", "lshape", "dumbbell", "two-cluster", "coincident"]
                         + [f"invariant-{seed}" for seed in range(20)])
def test_decompose_matches_exhaustive_reference(case, request):
    params = DecompParams()
    if case in ("sphere", "lshape", "dumbbell"):
        cloud = request.getfixturevalue(f"{case}_cloud")
        tree = request.getfixturevalue(f"{case}_tree")
    else:
        if case == "two-cluster":
            cloud, params = _two_cluster_cloud(), DecompParams(min_points=8)
        elif case == "coincident":
            cloud, params = _coincident_outlier_cloud(), DecompParams(min_points=100)
        else:
            cloud = PointCloud(helpers.random_invariant_cloud(int(case.split("-")[1])))
        tree = decompose(cloud, params)
    helpers.trees_identical(_reference_decompose(cloud, params), tree, helpers.CheckCounter())


def test_best_split_matches_exhaustive_oracle(lshape_cloud, lshape_tree,
                                              dumbbell_cloud, dumbbell_tree):
    params = DecompParams()
    searched = 0
    for cloud, tree in ((lshape_cloud, lshape_tree), (dumbbell_cloud, dumbbell_tree)):
        for node in _searched_nodes(tree, params):
            ref = _reference_split(node, cloud, params)
            plane = best_split(node, cloud, params)
            assert (plane is None) == (ref is None), f"node {node.id}"
            if ref is not None:
                assert (plane.axis, plane.offset) == (ref.plane.axis, ref.plane.offset)
            searched += 1
    assert searched >= 4


def test_best_split_tie_takes_smallest_offset():
    # every plane between the two clusters produces the identical partition,
    # so the volume sums tie bit-for-bit and the first offset must win
    cloud = _two_cluster_cloud()
    params = DecompParams(min_points=8, planes_per_axis=16)
    tree = decompose(cloud, params)
    root = tree.node(0)
    plane = best_split(root, cloud, params)
    assert plane.axis == 0
    gap_offsets = [o for o in candidate_offsets(root.box.half_extents[0], 16)
                   if -0.06 + root.box.center[0] < o < 0.06 + root.box.center[0]]
    assert plane.offset == pytest.approx(gap_offsets[0])


def test_split_search_refits_only_finalists(dumbbell_cloud, dumbbell_tree, monkeypatch):
    # the screen leaves out empty and coincident sides, so no refit raises
    params = DecompParams()
    calls = []
    real = decomposition.evaluate_split
    monkeypatch.setattr(decomposition, "evaluate_split",
                        lambda *args: calls.append(args[2]) or real(*args))
    for node in _searched_nodes(dumbbell_tree, params):
        calls.clear()
        best_split(node, dumbbell_cloud, params)
        assert 1 <= len(calls) <= SCREEN_FINALISTS


def test_screen_slab_sums_match_direct_side_sums(lshape_cloud, lshape_tree):
    node = lshape_tree.node(0)
    pts = lshape_cloud.points[node.point_indices]
    X = pts - pts.mean(axis=0)
    dirs = SCREEN_DIRECTIONS @ node.box.rotation.T
    proj = _project(X.T, dirs).T
    rng = np.random.default_rng(11)
    sides = 0
    for axis in range(3):
        h = node.box.half_extents[axis]
        offsets = np.sort(rng.uniform(-h, h, 8))
        offsets[3] = offsets[4]                   # an empty slab between them
        coord = (pts - node.box.center) @ node.box.axis(axis)
        slabs = _slab_summaries(X, coord, offsets, dirs)
        for k in range(1, len(offsets) + 1):
            below = coord - offsets[k - 1] < 0.0
            for first, stop, mask in ((0, k, below), (k, len(offsets) + 1, ~below)):
                if not mask.any():
                    continue
                count, s1, s2, hi, lo, coreset = _side_summary(slabs, first, stop)
                side = X[mask]
                assert count == len(side)
                np.testing.assert_allclose(s1, side.sum(axis=0), rtol=1e-12,
                                           atol=1e-12 * np.abs(side).sum())
                np.testing.assert_allclose(s2, side.T @ side, rtol=1e-12,
                                           atol=1e-12 * (side ** 2).sum())
                assert mask[coreset].all() and len(coreset) <= 2 * len(SCREEN_DIRECTIONS)
                np.testing.assert_array_equal(hi, proj[mask].max(axis=0))
                np.testing.assert_array_equal(lo, proj[mask].min(axis=0))
                np.testing.assert_array_equal(proj[coreset].max(axis=0), hi)
                np.testing.assert_array_equal(proj[coreset].min(axis=0), lo)
                sides += 1
    assert sides >= 40


def _lattice_cloud():
    """2000 draws from a 5 x 5 x 5 lattice: repeated points, so extreme
    projections tie exactly."""
    rng = np.random.default_rng(13)
    return PointCloud(0.01 * rng.integers(0, 5, size=(2000, 3)).astype(float))


SLAB_CLOUDS = {
    "small_sphere": lambda request: request.getfixturevalue("small_sphere_cloud"),
    "sphere": lambda request: request.getfixturevalue("sphere_cloud"),
    "lshape": lambda request: request.getfixturevalue("lshape_cloud"),
    "dumbbell": lambda request: request.getfixturevalue("dumbbell_cloud"),
    "dumbbell_20k": lambda _: synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 20000, seed=4),
    "lshape_20k": lambda _: synth_shape("lshape", (0.2, 0.15, 0.04), 20000, seed=4),
    "lattice": lambda _: _lattice_cloud(),
}


@pytest.mark.parametrize("case", sorted(SLAB_CLOUDS))
def test_slab_summaries_match_reference_bytes(case, request, monkeypatch):
    """Every field of the slab summaries equals the per-slab (n_s, 49)
    reference's, byte for byte, on all 3 axes of every searched node."""
    cloud = SLAB_CLOUDS[case](request)
    params = DecompParams()
    real = decomposition._slab_summaries
    calls = []

    def checked(X, coord, offsets, dirs):
        got = real(X, coord, offsets, dirs)
        ref = oracles.reference_slab_summaries(X, coord, offsets, dirs)
        for f in dataclasses.fields(ref):
            a, b = getattr(got, f.name), getattr(ref, f.name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        calls.append(len(coord))
        return got

    monkeypatch.setattr(decomposition, "_slab_summaries", checked)
    tree = decompose(cloud, params)
    assert len(calls) == 3 * len(_searched_nodes(tree, params)) > 0


def test_screen_directions_are_primitive_antipodal_representatives():
    assert SCREEN_DIRECTIONS.shape == (49, 3)
    np.testing.assert_allclose(np.linalg.norm(SCREEN_DIRECTIONS, axis=1), 1.0)
    cosines = SCREEN_DIRECTIONS @ SCREEN_DIRECTIONS.T
    assert np.abs(cosines - np.eye(49)).max() < 1.0 - 1e-9   # no two parallel


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def test_decompose_child_count_boundary():
    # 600 points split 250/350 by the only sensible cut: the 250 side sits
    # exactly at min_points/2 and must be rejected; 251/349 must be accepted
    def blob_cloud(n_left):
        rng = np.random.default_rng(9)
        left = oracles.box_surface_points(rng, (0.02, 0.018, 0.015), n_left) + [-0.09, 0.0, 0.0]
        right = oracles.box_surface_points(rng, (0.02, 0.018, 0.015), 600 - n_left) + [0.09, 0.0, 0.0]
        return PointCloud(np.concatenate([left, right]))

    params = DecompParams(min_points=500)
    rejected = decompose(blob_cloud(250), params)
    accepted = decompose(blob_cloud(251), params)
    assert len(rejected.nodes) == 1
    assert len(accepted.nodes) == 3
    counts = sorted(len(accepted.node(c).point_indices) for c in accepted.node(0).children)
    assert counts == [251, 349]


def test_decompose_min_points_stops_recursion(dumbbell_cloud):
    tree = decompose(dumbbell_cloud, DecompParams(min_points=10 ** 5))
    assert len(tree.nodes) == 1


def test_decompose_fixture_trees(sphere_tree, lshape_tree, dumbbell_tree):
    assert len(sphere_tree.nodes) == 1
    assert len(lshape_tree.leaf_ids()) == 2
    assert len(dumbbell_tree.leaf_ids()) >= 2


def test_decompose_ids_in_discovery_order(dumbbell_tree):
    for node in dumbbell_tree.nodes:
        assert node.id == dumbbell_tree.nodes.index(node)
        if node.children:
            a, b = node.children
            assert b == a + 1
            assert a > node.id


def test_tree_ancestry_helpers(dumbbell_tree):
    for leaf in dumbbell_tree.leaf_ids():
        ancestors = dumbbell_tree.ancestors_of(leaf)
        assert ancestors[-1] == 0
        assert leaf in dumbbell_tree.descendants_of(0)
        assert dumbbell_tree.descendants_of(leaf) == []


def test_invariant_suite_runs_enough_checks():
    assert helpers.run_invariant_suite() >= 1000


def test_oriented_box_dict_roundtrip():
    box = OrientedBox(np.array([0.1, -0.2, 0.3]), np.eye(3), np.array([3.0, 2.0, 1.0]))
    again = OrientedBox.from_dict(box.as_dict())
    np.testing.assert_array_equal(box.center, again.center)
    np.testing.assert_array_equal(box.rotation, again.rotation)
    np.testing.assert_array_equal(box.half_extents, again.half_extents)


def test_oriented_box_corner_sign_order():
    box = helpers.axis_box((1.0, 2.0, 3.0), (0.1, 0.2, 0.3))
    corners = box.corners()
    np.testing.assert_allclose(corners[0], [0.9, 1.8, 2.7])
    np.testing.assert_allclose(corners[7], [1.1, 2.2, 3.3])
    np.testing.assert_allclose(corners[1], [0.9, 1.8, 3.3])
