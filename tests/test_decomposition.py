"""Minimum-volume box fitting and the fit-and-split decomposition tree."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _mvbb_frozen as frozen
import helpers
import oracles

from pregrasp import DecompParams, decompose, decomposition, synth_shape
from pregrasp.decomposition import (
    EXTENT_FLOOR,
    SCREEN_DIRECTIONS,
    SCREEN_FINALISTS,
    SCREEN_PLANES,
    DecompNode,
    DecompTree,
    OrientedBox,
    _side_summaries,
    _slab_order,
    _slab_summaries,
    candidate_offsets,
    evaluate_split,
    fit_obb,
)
from pregrasp.errors import DegenerateInput, EmptySide
from pregrasp.pointcloud import SYNTH_KINDS, PointCloud


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


def _large_fit_clouds():
    """Four synth shapes at 100k and 200k points, each as generated and
    randomly rotated, and a rotated 200k-point cube surface, whose 3
    eigenvalues tie."""
    rng = np.random.default_rng(31)
    clouds = {}
    for kind in ("sphere", "cylinder", "dumbbell", "lshape"):
        for n in (100_000, 200_000):
            pts = synth_shape(kind, tuple(SYNTH_KINDS[kind].values()), n, seed=3).points
            clouds[f"{kind}-{n}"] = pts
            clouds[f"{kind}-{n}-rotated"] = pts @ helpers.random_rotation(rng).T
    cube = oracles.box_surface_points(rng, (0.05, 0.05, 0.05), 200_000)
    clouds["cube-200000-rotated"] = cube @ helpers.random_rotation(rng).T
    return clouds


@pytest.mark.bitexact
def test_fit_obb_matches_whole_product_reference_bytes():
    """fit_obb, which reduces its tied-pair search and rotation sweep in
    blocks at these sizes, gives the bytes of the reference that builds
    every per-point product whole."""
    for name, pts in _large_fit_clouds().items():
        box = fit_obb(pts)
        center, rotation, half = oracles.reference_fit_obb(pts)
        assert box.center.tobytes() == center.tobytes(), name
        assert box.rotation.tobytes() == rotation.tobytes(), name
        assert box.half_extents.tobytes() == half.tobytes(), name


def _assert_reference_bytes(pts, name):
    box = fit_obb(pts)
    center, rotation, half = oracles.reference_fit_obb(pts)
    assert box.center.tobytes() == center.tobytes(), name
    assert box.rotation.tobytes() == rotation.tobytes(), name
    assert box.half_extents.tobytes() == half.tobytes(), name


@pytest.mark.bitexact
@pytest.mark.parametrize("kind", sorted(SYNTH_KINDS))
def test_coreset_fit_matches_reference_bytes(kind):
    """The tied-pair search above 4,369 points and the sweep above 14,563
    decide each step on a coreset and check it on all points.  At 5k, 20k
    and 100k points the box has the bytes of the reference that takes every
    step on all points."""
    rng = np.random.default_rng(47)
    for n in (5000, 20_000, 100_000):
        pts = synth_shape(kind, tuple(SYNTH_KINDS[kind].values()), n, seed=5).points
        _assert_reference_bytes(pts, f"{kind}-{n}")
        _assert_reference_bytes(pts @ helpers.random_rotation(rng).T, f"{kind}-{n}-rotated")


@pytest.mark.bitexact
def test_coreset_fit_matches_reference_bytes_on_ties_and_flat_clouds():
    """A rotated cube surface (three tied eigenvalues), a box whose every
    extreme point is a corner repeated 5,000 times (tied argmax), and a
    planar and a collinear cloud, all above the sweep's block size."""
    rng = np.random.default_rng(53)
    n = 40_000
    clouds = {"cube": oracles.box_surface_points(rng, (0.05, 0.05, 0.05), n)}
    half = np.array([0.1, 0.06, 0.03])
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]) * half
    corners = np.repeat(corners, 5000, axis=0)
    inside = rng.uniform(-half, half, (n, 3))
    clouds["repeated-corners"] = np.concatenate((inside, corners))[rng.permutation(n + len(corners))]
    clouds["planar"] = np.c_[rng.uniform(-0.1, 0.1, (n, 2)), np.zeros(n)]
    clouds["collinear"] = np.outer(rng.uniform(-0.1, 0.1, n), [0.6, 0.0, 0.8])
    for name, pts in clouds.items():
        _assert_reference_bytes(pts @ helpers.random_rotation(rng).T, name)


def _spy_extremes(monkeypatch):
    """(grid rows, points) of every set whose grid product is reduced on all
    of its points, the only path that builds (18, n) or (60, n) products."""
    seen = []
    real = decomposition._extremes

    def spy(basis, p2):
        seen.append((len(basis), p2.shape[2]))
        return real(basis, p2)

    monkeypatch.setattr(decomposition, "_extremes", spy)
    return seen


def _synth_points(kind, n):
    return synth_shape(kind, tuple(SYNTH_KINDS[kind].values()), n, seed=3).points


def test_coreset_fit_of_a_large_box_takes_no_all_point_grid_product(monkeypatch):
    seen = _spy_extremes(monkeypatch)
    pts = _synth_points("box", 100_000)
    fit_obb(pts)
    assert [call for call in seen if call[1] == len(pts)] == []


def _spy_searches(monkeypatch, n):
    """[grid rows, whether it reduced a grid product on all n points] of every
    grid search step of a fit, in order.  A fit runs its tied-pair searches
    (60 rows) first, then `_REFINE_STEPS` rounds of sweep steps (18 rows)
    about box axes 0, 1 and 2, so a step's position and rows tell the box
    axis it turns about."""
    searches, real_grid, real_extremes = [], decomposition._grid_search, decomposition._extremes

    def grid(basis, p2, choose, core=None):
        searches.append([len(basis), False])
        return real_grid(basis, p2, choose, core)

    def extremes(basis, p2):
        searches[-1][1] |= p2.shape[2] == n
        return real_extremes(basis, p2)

    monkeypatch.setattr(decomposition, "_grid_search", grid)
    monkeypatch.setattr(decomposition, "_extremes", extremes)
    return searches


def test_coreset_fit_of_a_large_sphere_falls_back_to_all_points(monkeypatch):
    """Nearly every grid row of a sphere ties, so its checks fail until a
    step runs on all points: all 12 searches of its fit, its 3 tied pairs
    and its 9 sweep steps, do."""
    seen = _spy_extremes(monkeypatch)
    pts = _synth_points("sphere", 100_000)
    searches = _spy_searches(monkeypatch, len(pts))
    fit_obb(pts)
    assert any(n == len(pts) for _, n in seen)
    assert [rows for rows, _ in searches] == [60] * 3 + [18] * 3 * decomposition._REFINE_STEPS
    assert all(whole for _, whole in searches)


@pytest.mark.bitexact
@pytest.mark.parametrize("rotated", [False, True])
def test_coreset_fit_of_a_large_cylinder_falls_back_only_about_its_axis(rotated, monkeypatch):
    """A cylinder's cross-section is round, so its checks fail only in the
    searches that turn about its axis: the tied pair of the cross-section
    and the sweep steps about the axis.  Only those take all-point grid
    products; every other search stays on the coreset, and the box has the
    reference's bytes."""
    rotation = helpers.random_rotation(np.random.default_rng(59)) if rotated else np.eye(3)
    pts = _synth_points("cylinder", 100_000) @ rotation.T
    searches = _spy_searches(monkeypatch, len(pts))
    _assert_reference_bytes(pts, f"cylinder-rotated={rotated}")
    # the tied pair (1, 2) turns about axis 0, the longest: the cylinder's
    # axis, as does the first sweep step of each round
    steps = decomposition._REFINE_STEPS
    assert [rows for rows, _ in searches] == [60] + [18] * 3 * steps
    assert [whole for _, whole in searches] == [True] + [True, False, False] * steps
    assert abs(fit_obb(pts).axis(0) @ rotation[:, 2]) > 0.999      # synth axis: +z


@pytest.mark.bitexact
def test_coreset_fit_from_a_one_point_seed_matches_reference_bytes(monkeypatch):
    """Each search's coreset cut back to the first point, with no limit on
    failed checks: the checks alone add the extremes every step needs, and
    the fit ends in the reference's box without a step on all points."""
    monkeypatch.setattr(decomposition, "_CHECK_FAILS", 10 ** 9)
    real_take, real_search = decomposition._Coreset.take, decomposition._Coreset.search
    searches = []

    def one_point(core, basis, cols):
        core = real_take(core, basis, cols)
        if core is not None:
            core.mask[:] = False
            core._add(np.array([0]))
        return core

    def search(core, basis, p2, choose):
        found = real_search(core, basis, p2, choose)
        searches.append((len(basis), found is not None))
        return found

    monkeypatch.setattr(decomposition._Coreset, "take", one_point)
    monkeypatch.setattr(decomposition._Coreset, "search", search)
    for kind in ("box", "dumbbell", "sphere"):
        searches.clear()
        _assert_reference_bytes(_synth_points(kind, 100_000), kind)
        assert {rows for rows, _ in searches} == ({18} if kind == "box" else {18, 60}), kind
        assert all(passed for _, passed in searches), kind


class _GridRoundsToZero(np.ndarray):
    """A grid basis whose products with more than two rows come out one ulp
    nearer zero than the 2-row product's, as on a kernel that rounds the two
    products differently: no coreset check can pass, and every coreset span
    shrinks, so every sweep step finds a smaller box to check."""

    def __matmul__(self, other):
        out = np.asarray(self) @ other
        return out if len(self) == 2 else np.nextafter(out, 0.0)


def test_coreset_check_that_adds_no_point_falls_back_to_all_points(monkeypatch):
    """With sweep grids whose checks never pass, each coreset search adds the
    all-point extremes once, after its first failed check, and its
    `_CHECK_FAILS`-th failed check ends it, whether or not a check added a
    new point.  The fit ends, its box holds its points, and every sweep step
    reduces its (18, n) grid product on all points."""
    monkeypatch.setattr(decomposition, "_SWEEP_STEPS", [
        (basis.view(_GridRoundsToZero), turns) for basis, turns in decomposition._SWEEP_STEPS])
    real_search, real_add, adds = decomposition._Coreset.search, decomposition._Coreset._add, []

    def search(core, basis, p2, choose):
        adds.append(0)
        return real_search(core, basis, p2, choose)

    def add(core, at):
        if adds:                        # not the seed that take adds first
            adds[-1] += 1
        real_add(core, at)

    monkeypatch.setattr(decomposition._Coreset, "search", search)
    monkeypatch.setattr(decomposition._Coreset, "_add", add)
    seen = _spy_extremes(monkeypatch)
    pts = _synth_points("box", 100_000)
    assert fit_obb(pts).contains(pts, tol=1e-9)
    steps = 3 * decomposition._REFINE_STEPS
    assert adds == [decomposition._CHECK_FAILS - 1] * steps
    assert seen.count((18, len(pts))) == steps


@pytest.mark.bitexact
def test_coreset_fits_of_a_large_scan_tree_fall_back_at_most_once(monkeypatch):
    """Decomposing the first cloud of the seed-1 large-scan workload, each fit
    above the sweep's block size reduces at most one grid search on all of
    its points: a search that falls back leaves the next on the coreset,
    which its failed checks have grown.  The 47,127-point side has the
    reference's bytes."""
    seen, fits, real_fit = _spy_extremes(monkeypatch), [], decomposition.fit_obb

    def fit(points):
        fits.append((points, len(seen)))        # its first _extremes call
        return real_fit(points)

    monkeypatch.setattr(decomposition, "fit_obb", fit)
    decompose(synth_shape("dumbbell", tuple(SYNTH_KINDS["dumbbell"].values()), 100_000, seed=1000))
    ends = [start for _, start in fits[1:]] + [len(seen)]
    whole = [sum(n == len(points) for _, n in seen[start:end])
             for (points, start), end in zip(fits, ends)]
    block = decomposition._BLOCK_BYTES // (8 * 18)
    large = {len(points): w for (points, _), w in zip(fits, whole) if len(points) > block}
    assert {78_171, 20_413, 56_314, 47_127} <= large.keys()
    assert max(large.values()) <= 1, large
    _assert_reference_bytes(next(points for points, _ in fits if len(points) == 47_127), "side")


def _traced_peak(call):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["sphere", "dumbbell", "lshape"])
def test_fit_and_decompose_memory_is_bounded(kind):
    """On a 200k-point cloud, fit_obb peaks below 6x and decompose below 10x
    the cloud's own bytes: no (rows, n) product is built whole."""
    cloud = synth_shape(kind, tuple(SYNTH_KINDS[kind].values()), 200_000, seed=1)
    size = cloud.points.nbytes
    fit_peak = _traced_peak(lambda: fit_obb(cloud.points))
    assert fit_peak < 6 * size, f"{kind}: fit_obb peaked {fit_peak / size:.1f}x the cloud"
    tree_peak = _traced_peak(lambda: decompose(cloud))
    assert tree_peak < 10 * size, f"{kind}: decompose peaked {tree_peak / size:.1f}x the cloud"


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
    offs = candidate_offsets(1.0)
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
    idx_a, idx_b, box_a, box_b = evaluate_split(pts, box, 0, 0.0)
    assert sorted(idx_a) == [0, 1, 2, 3]
    assert sorted(idx_b) == [4, 5, 6, 7]
    assert box_a.as_dict() == fit_obb(pts[idx_a]).as_dict()
    assert box_b.as_dict() == fit_obb(pts[idx_b]).as_dict()


def test_evaluate_split_empty_side_raises():
    pts = np.array([[-0.5, 0.0, 0.0], [-0.5, 0.1, 0.0], [-0.4, 0.0, 0.1], [-0.45, 0.1, 0.1]])
    box = helpers.axis_box((0.0, 0.05, 0.05), (0.5, 0.1, 0.1))
    with pytest.raises(EmptySide):
        evaluate_split(pts, box, 0, 0.2)


def test_evaluate_split_coincident_side_raises():
    pts = np.array([
        [-0.5, 0.0, 0.0], [-0.5, 0.0, 0.0], [-0.5, 0.0, 0.0],
        [0.2, 0.0, 0.0], [0.2, 0.1, 0.0], [0.3, 0.0, 0.1], [0.4, 0.1, 0.1],
    ])
    box = helpers.axis_box((0.0, 0.05, 0.05), (0.5, 0.1, 0.1))
    with pytest.raises(DegenerateInput):
        evaluate_split(pts, box, 0, 0.0)


def _reference_split(node, cloud, params):
    """The accepted split of the exhaustive full-point search, as (axis,
    offset, idx_a, idx_b, box_a, box_b), or None."""
    ev = oracles.exhaustive_split(cloud.points[node.point_indices], node.box)
    if ev is None or ev[0] > params.volume_ratio * node.box.volume:
        return None
    if min(len(ev[3]), len(ev[4])) <= params.min_points / 2.0:
        return None
    return ev[1:]


def _reference_decompose(cloud, params):
    """decompose() with every split chosen by the exhaustive search."""
    root = fit_obb(cloud.points)
    tree = DecompTree([DecompNode(0, root, np.arange(len(cloud.points)))])
    for node in tree.nodes:          # visits appended children: breadth-first
        if len(node.point_indices) < params.min_points:
            continue
        ref = _reference_split(node, cloud, params)
        if ref is None:
            continue
        _, _, idx_a, idx_b, box_a, box_b = ref
        ida = len(tree.nodes)
        tree.nodes.append(DecompNode(ida, box_a, node.point_indices[idx_a], node.id))
        tree.nodes.append(DecompNode(ida + 1, box_b, node.point_indices[idx_b], node.id))
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


@pytest.mark.bitexact
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


@pytest.mark.bitexact
def test_best_split_matches_exhaustive_oracle(lshape_cloud, lshape_tree,
                                              dumbbell_cloud, dumbbell_tree):
    params = DecompParams()
    searched = 0
    for cloud, tree in ((lshape_cloud, lshape_tree), (dumbbell_cloud, dumbbell_tree)):
        for node in _searched_nodes(tree, params):
            ref = _reference_split(node, cloud, params)
            plane = helpers.best_split(node, cloud, params)
            assert (plane is None) == (ref is None), f"node {node.id}"
            if ref is not None:
                assert plane == ref[:2]
            searched += 1
    assert searched >= 4


def test_best_split_tie_takes_smallest_offset():
    # every plane between the two clusters produces the identical partition,
    # so the volume sums tie bit-for-bit and the first offset must win
    cloud = _two_cluster_cloud()
    params = DecompParams(min_points=8)
    tree = decompose(cloud, params)
    root = tree.node(0)
    axis, offset = helpers.best_split(root, cloud, params)
    assert axis == 0
    gap_offsets = [o for o in candidate_offsets(root.box.half_extents[0])
                   if -0.06 + root.box.center[0] < o < 0.06 + root.box.center[0]]
    assert offset == pytest.approx(gap_offsets[0])


def test_split_search_refits_only_finalists(dumbbell_cloud, dumbbell_tree, monkeypatch):
    # the screen leaves out empty and coincident sides, so no refit raises
    params = DecompParams()
    calls = []
    real = decomposition.evaluate_split
    monkeypatch.setattr(decomposition, "evaluate_split",
                        lambda *args: calls.append(args[2]) or real(*args))
    for node in _searched_nodes(dumbbell_tree, params):
        calls.clear()
        helpers.best_split(node, dumbbell_cloud, params)
        assert 1 <= len(calls) <= SCREEN_FINALISTS


def test_screen_slab_sums_match_direct_side_sums(lshape_cloud, lshape_tree):
    node = lshape_tree.node(0)
    pts = lshape_cloud.points[node.point_indices]
    X = pts - pts.mean(axis=0)
    frame = np.array([oracles.box_frame_coordinates(pts, node.box, a) for a in range(3)])
    proj = oracles.lattice_projections(frame.T) + 0.0
    rng = np.random.default_rng(11)
    sides = 0
    for axis in range(3):
        h = node.box.half_extents[axis]
        offsets = np.sort(rng.uniform(-h, h, 8))
        offsets[3] = offsets[4]                   # an empty slab between them
        slabs = _slab_summaries(np.ascontiguousarray(X.T), frame, axis, offsets)
        summaries = _side_summaries(slabs)
        for k in range(1, len(offsets) + 1):
            below = frame[axis] - offsets[k - 1] < 0.0
            for i, mask in enumerate((below, ~below)):
                if not mask.any():
                    continue
                count, moments, hi, lo, coreset = (f[k - 1, i] for f in summaries)
                s1, s2 = moments[:3], moments[3:].reshape(3, 3)
                side = X[mask]
                assert count == len(side)
                np.testing.assert_allclose(s1, side.sum(axis=0), rtol=1e-12,
                                           atol=1e-12 * np.abs(side).sum())
                np.testing.assert_allclose(s2, side.T @ side, rtol=1e-12,
                                           atol=1e-12 * (side ** 2).sum())
                assert mask[coreset].all() and len(coreset) <= 2 * len(SCREEN_DIRECTIONS)
                assert hi.tobytes() == proj[mask].max(axis=0).tobytes()
                assert lo.tobytes() == proj[mask].min(axis=0).tobytes()
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


@pytest.mark.bitexact
@pytest.mark.parametrize("case", sorted(SLAB_CLOUDS))
def test_slab_summaries_match_reference_bytes(case, request, monkeypatch):
    """Every field of the slab summaries equals the per-slab (n_s, 49)
    reference's, byte for byte, on all 3 axes of every searched node."""
    _check_slab_summaries(SLAB_CLOUDS[case](request), monkeypatch)


@pytest.mark.bitexact
@pytest.mark.parametrize("case", ["lattice", "lshape"])
def test_slab_summaries_in_runs_match_reference_bytes(case, request, monkeypatch):
    """Slabs projected in runs of 100 points give the same summaries: the
    lattice's exactly tied extremes stay with the first point in slab order."""
    monkeypatch.setattr(decomposition, "_BLOCK_BYTES", 8 * len(SCREEN_DIRECTIONS) * 100)
    _check_slab_summaries(SLAB_CLOUDS[case](request), monkeypatch)


def _check_slab_summaries(cloud, monkeypatch):
    params = DecompParams()
    real = decomposition._slab_summaries
    calls = []

    def checked(X, frame, axis, offsets):
        got = real(X, frame, axis, offsets)
        ref = oracles.reference_slab_summaries(X, frame, axis, offsets)
        for f in dataclasses.fields(ref):
            a, b = getattr(got, f.name), getattr(ref, f.name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        calls.append(axis)
        return got

    monkeypatch.setattr(decomposition, "_slab_summaries", checked)
    tree = decompose(cloud, params)
    assert len(calls) == 3 * len(_searched_nodes(tree, params)) > 0


def _random_slabs(rng, n_slabs=17, m=49):
    """Slab summaries drawn at random in the form `_slab_summaries` leaves
    them: many slabs empty (zero moments, extremes -inf and +inf), extremes
    from a few values so that slabs tie, signed zeros among the moments, and
    often a single non-empty slab on a side."""
    counts = rng.integers(1, 4, n_slabs) * (rng.random(n_slabs) < rng.random())
    full = counts > 0
    moments = np.where(full[:, None], rng.normal(size=(n_slabs, 12)), 0.0)
    moments[rng.random(moments.shape) < 0.2] = -0.0
    hi = np.where(full[:, None], rng.integers(-2, 3, (n_slabs, m)).astype(float), -np.inf)
    lo = np.where(full[:, None], hi - rng.integers(0, 2, (n_slabs, m)), np.inf)
    idx = np.where(full[:, None, None], rng.integers(0, 10 ** 6, (n_slabs, 2, m)), 0)
    return decomposition._Slabs(np.concatenate(([0], np.cumsum(counts))),
                                moments[:, :3].copy(), moments[:, 3:].reshape(-1, 3, 3),
                                hi, idx[:, 0], lo, idx[:, 1])


@pytest.mark.bitexact
def test_side_summaries_match_one_side_at_a_time_bytes():
    """The scans over an axis's slabs give every side the bits of summing
    that side on its own (`oracles.reference_side_summary`): moments added
    slab by slab from +0.0, extremes from the lowest of tied slabs, with
    empty slabs, ties, signed zeros and one-slab sides."""
    rng = np.random.default_rng(5)
    sides = one_slab = 0
    for _ in range(300):
        slabs = _random_slabs(rng)
        n_slabs, total = len(slabs.s1), slabs.bounds[-1]
        got = _side_summaries(slabs)
        assert got[0].shape == (n_slabs - 1, 2) and got[4].shape == (n_slabs - 1, 2, 98)
        for k in range(1, n_slabs):
            for i, (first, stop) in enumerate(((0, k), (k, n_slabs))):
                if slabs.bounds[stop] == slabs.bounds[first]:
                    continue
                count, s1, s2, hi, lo, coreset = oracles.reference_side_summary(
                    slabs, first, stop)
                g_count, g_moments, g_hi, g_lo, g_coreset = (f[k - 1, i] for f in got)
                assert g_count == count and 0 < count <= total
                assert g_moments[:3].tobytes() == s1.tobytes()
                assert g_moments[3:].tobytes() == s2.tobytes()
                assert (g_hi.tobytes(), g_lo.tobytes()) == (hi.tobytes(), lo.tobytes())
                assert g_coreset.dtype == coreset.dtype
                assert g_coreset.tobytes() == coreset.tobytes()
                sides += 1
                one_slab += int((np.diff(slabs.bounds[first:stop + 1]) > 0).sum() == 1)
    assert sides > 2000 and one_slab > 200


# Coordinates with forced ties: values from a small pool (signed zeros, NaN,
# repeats) or any float, and projections of points drawn from a small lattice,
# so whole points repeat.  Past 16 values numpy's default sort is not stable.
_TIED_VALUES = st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, 0.5, 1e-300, np.inf])
_COORDS = st.one_of(
    st.lists(st.one_of(_TIED_VALUES, st.floats()), max_size=300).map(np.array),
    st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 0.01, 0.02, np.nan])] * 3),
             min_size=1, max_size=300).map(lambda p: np.array(p) @ [0.6, 0.8, 0.0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_COORDS)
def test_slab_order_is_the_stable_order(coord):
    """The screen's slab order equals the stable sort's, ties and all."""
    order, ranked = _slab_order(coord)
    want = np.argsort(coord, kind="stable")
    assert order.dtype == want.dtype and order.tobytes() == want.tobytes()
    assert ranked.tobytes() == coord[want].tobytes()


def test_slab_order_sorts_stably_only_on_ties(sphere_cloud, monkeypatch):
    """A tie-free cloud's slabs take only the default sort; the lattice's
    repeated points take the stable one.  Sorts of 3 values are left out:
    the box fit's canonical form sorts its extents stably."""
    real, kinds = np.argsort, []

    def spy(a, *args, kind=None, **kwargs):
        if np.size(a) > 3:
            kinds.append(kind)
        return real(a, *args, kind=kind, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    decompose(sphere_cloud)
    assert kinds and "stable" not in kinds
    kinds.clear()
    decompose(_lattice_cloud())
    assert "stable" in kinds


def _float_bytes(scored):
    return [(np.float64(v).tobytes(), axis, np.float64(offset).tobytes())
            for v, axis, offset in scored]


@pytest.mark.bitexact
@pytest.mark.parametrize("case", sorted(SLAB_CLOUDS))
def test_screen_matches_per_side_reference_bytes(case, request, monkeypatch):
    """The stacked screen's (volume, axis, offset) list equals the per-side
    reference's, byte for byte, on every searched node.  The lattice ties
    extreme points exactly; the spheres' sides have tied eigenvalues."""
    cloud = SLAB_CLOUDS[case](request)
    params = DecompParams()
    real = decomposition._screen
    calls = []

    def checked(pts, box):
        got = real(pts, box)
        assert _float_bytes(got) == _float_bytes(oracles.reference_screen(pts, box))
        calls.append(len(got))
        return got

    monkeypatch.setattr(decomposition, "_screen", checked)
    tree = decompose(cloud, params)
    assert len(calls) == len(_searched_nodes(tree, params)) > 0


def _stacked_point_sets():
    """Sixteen centred 98-point sets as (3, 98) coordinate rows: rotated
    boxes, square-section bricks and spheres (tied eigenpairs), a planar and
    a collinear set (rank-deficient)."""
    rng = np.random.default_rng(21)
    sets = [oracles.box_surface_points(rng, (0.1, 0.05, 0.02), 98) @ helpers.random_rotation(rng).T
            for _ in range(2)]
    sets += [oracles.make_rotated_brick_cloud(98, seed) @ helpers.random_rotation(rng).T
             for seed in range(4)]
    sets += [synth_shape("sphere", (0.05,), 98, seed=seed).points for seed in range(8)]
    sets.append(np.c_[rng.uniform(-0.1, 0.1, (98, 2)), np.zeros(98)])
    sets.append(np.outer(rng.uniform(-0.1, 0.1, 98), [0.6, 0.0, 0.8]))
    return np.stack([(x - x.mean(axis=0)).T for x in sets])


@pytest.mark.bitexact
def test_stacked_fit_matches_stacks_of_one(monkeypatch):
    """_pca_axes and _sweep give each point set of a stack the bytes of its
    own stack-of-one call, tied and rank-deficient sets included: with the
    whole stack in one block, and with a block budget that splits the tied
    search into blocks of 4 sets and the sweep's products into runs of 81
    points (its update then takes its own 2-row product)."""
    X = _stacked_point_sets()
    cov = np.stack([x @ x.T / x.shape[1] for x in X])
    lam = np.linalg.eigvalsh(cov)[:, ::-1]
    assert (lam[:, 2] <= 1e-18).sum() == 2                       # planar, collinear
    ratio = decomposition._TIED_EIGENVALUE_RATIO
    tied = (lam[:, 0] <= ratio * lam[:, 1]) | (lam[:, 1] <= ratio * lam[:, 2])
    assert tied.sum() > 4                                        # two tied blocks
    ones = [decomposition._pca_axes(cov[g:g + 1], X[g:g + 1]) for g in range(len(X))]
    ones = [(a, *decomposition._sweep(X[g:g + 1], a)) for g, a in enumerate(ones)]
    for budget in (decomposition._BLOCK_BYTES, 4 * 8 * 60 * X.shape[2]):
        monkeypatch.setattr(decomposition, "_BLOCK_BYTES", budget)
        axes = decomposition._pca_axes(cov, X)
        R, vols = decomposition._sweep(X, axes)
        assert R.shape == (len(X), 3, 3) and vols.shape == (len(X),)
        for g, (one_axes, one_R, one_vol) in enumerate(ones):
            assert axes[g].tobytes() == one_axes[0].tobytes(), (budget, g)
            assert R[g].tobytes() == one_R[0].tobytes(), (budget, g)
            assert vols[g].tobytes() == one_vol[0].tobytes(), (budget, g)


def test_screen_stack_fits_one_sweep_block():
    """The screen's largest stack, both sides of SCREEN_PLANES planes on
    each of 3 axes, coresets of 2 rows per screening vector, fits one
    `_BLOCK_BYTES` block of the sweep's grid products, so `_sweep` never
    needs to split a stack into blocks of sets."""
    rows = len(decomposition._SWEEP_STEPS[0][0])
    assert rows == 18
    sets, points = 6 * SCREEN_PLANES, 2 * len(SCREEN_DIRECTIONS)
    assert 8 * rows * sets * points <= decomposition._BLOCK_BYTES


@pytest.mark.parametrize("kind", ["sphere", "cylinder", "dumbbell"])
def test_screen_memory_is_bounded(kind):
    """The stacked screen of a 10k-point root node peaks below 5 MB: the
    tied-pair search runs a block of sides at a time."""
    cloud = synth_shape(kind, tuple(SYNTH_KINDS[kind].values()), 10000, seed=1)
    box = fit_obb(cloud.points)
    peak = _traced_peak(lambda: decomposition._screen(cloud.points, box))
    assert peak < 5e6, f"{kind}: _screen peaked {peak / 1e6:.2f} MB above its start"


def test_screen_directions_are_primitive_antipodal_representatives():
    """All 49 antipodal classes of the primitive integer vectors in [-2, 2]^3
    ((5^3 - 1 - 26 all-even vectors) / 2), one representative each."""
    v = SCREEN_DIRECTIONS.astype(int)
    assert SCREEN_DIRECTIONS.shape == (49, 3) and (v == SCREEN_DIRECTIONS).all()
    assert (np.gcd.reduce(np.abs(v), axis=1) == 1).all()
    assert np.abs(v).max() == 2
    assert (v[np.arange(49), np.argmax(v != 0, axis=1)] > 0).all()
    crossed = np.cross(v[:, None], v[None, :]) != 0
    assert (crossed.any(axis=2) | np.eye(49, dtype=bool)).all()      # no two parallel


def _lattice_rows(rng, n):
    """(3, n) box-frame coordinate rows whose projections on the screening
    vectors hold signed zeros, subnormal terms and sums, and exact ties."""
    rows = rng.normal(scale=0.1, size=(3, n))
    pick = rng.random((3, n))
    rows[pick < 0.3] = rng.choice([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0], (pick < 0.3).sum())
    tiny = pick > 0.9
    rows[tiny] = rng.choice([5e-324, -5e-324, 1e-310, -2e-310, 2.2e-308], tiny.sum())
    return rows


@pytest.mark.bitexact
def test_lattice_product_is_the_fixed_order_sum_bytes():
    """The screen's one (49, 3) @ (3, cols) product per block equals the
    fixed-order sums (v0 L0 + v1 L1) + v2 L2 byte for byte, once signed zeros
    are cleared: on blocks of 1 to 5351 points (past one `_BLOCK_BYTES`
    block) starting 0-3 elements into coordinate rows, as a slab's run may."""
    rows = _lattice_rows(np.random.default_rng(17), 5360)
    widths = [*range(1, 18), 31, 32, 33, 64, 65, 255, 256, 257, 1000, 4096, 4097, 5349, 5351]
    for start in range(4):
        for w in widths:
            got = SCREEN_DIRECTIONS @ rows[:, start:start + w] + 0.0
            want = oracles.lattice_projections(rows[:, start:start + w].T).T + 0.0
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (start, w)


@pytest.mark.bitexact
def test_box_frame_rows_are_the_one_point_fixed_order_sum_bytes(dumbbell_cloud, dumbbell_tree):
    """The box-frame coordinate rows that the screen's slabs and
    evaluate_split's partition both cut equal the one-point fixed-order sum
    (a0 r0 + a1 r1) + a2 r2 of `oracles.box_frame_coordinates`, byte for
    byte, point by point: on every searched node's box and points, and on a
    randomly rotated box far from the cloud's points."""
    params = DecompParams()
    rng = np.random.default_rng(61)
    cases = [(dumbbell_cloud.points[node.point_indices], node.box)
             for node in _searched_nodes(dumbbell_tree, params)]
    cases.append((rng.normal(scale=100.0, size=(500, 3)),
                  OrientedBox(rng.normal(size=3), helpers.random_rotation(rng), np.ones(3))))
    for pts, box in cases:
        rows = decomposition._box_coordinates(pts, box, [0, 1, 2])
        assert rows.shape == (3, len(pts)) and rows.flags.c_contiguous
        for i in range(0, len(pts), 7):
            want = [oracles.box_frame_coordinates(pts[i], box, axis) for axis in range(3)]
            assert rows[:, i].tobytes() == np.array(want).tobytes(), i


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


def test_tree_parent_links_reach_the_root(dumbbell_tree):
    for node in dumbbell_tree.nodes:
        for child in node.children:
            assert dumbbell_tree.node(child).parent == node.id
    for leaf in dumbbell_tree.leaf_ids():
        nid, hops = leaf, 0
        while dumbbell_tree.node(nid).parent is not None:
            nid, hops = dumbbell_tree.node(nid).parent, hops + 1
            assert hops < len(dumbbell_tree.nodes)
        assert nid == 0


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
