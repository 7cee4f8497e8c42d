"""Shared fixtures-in-code for the test suite.

Unlike oracles.py (independent reference implementations), the helpers here
are allowed to call the package, e.g. to assemble classification/mask inputs
the same way the pipeline does, or to hand-build small decomposition trees.
"""

import functools
import itertools

import numpy as np

from pregrasp.classifier import GraspType, classify, pca
from pregrasp.decomposition import DecompNode, DecompTree, OrientedBox
from pregrasp.facemask import (FaceId, compute_face_states, face_frame,
                               face_mask, subfaces)

import oracles

# Hand-derived adjacency: walking left/down/right/up off a face lands on the
# minus/plus faces of the two in-plane axes (u-faces border v and w, etc.)
ADJACENT_TABLE = {
    FaceId.PLUS_U: (FaceId.MINUS_V, FaceId.MINUS_W, FaceId.PLUS_V, FaceId.PLUS_W),
    FaceId.MINUS_U: (FaceId.MINUS_V, FaceId.MINUS_W, FaceId.PLUS_V, FaceId.PLUS_W),
    FaceId.PLUS_V: (FaceId.MINUS_W, FaceId.MINUS_U, FaceId.PLUS_W, FaceId.PLUS_U),
    FaceId.MINUS_V: (FaceId.MINUS_W, FaceId.MINUS_U, FaceId.PLUS_W, FaceId.PLUS_U),
    FaceId.PLUS_W: (FaceId.MINUS_U, FaceId.MINUS_V, FaceId.PLUS_U, FaceId.PLUS_V),
    FaceId.MINUS_W: (FaceId.MINUS_U, FaceId.MINUS_V, FaceId.PLUS_U, FaceId.PLUS_V),
}


# ---------------------------------------------------------------------------
# Hand-built trees
# ---------------------------------------------------------------------------

def axis_box(center, half):
    return OrientedBox(np.asarray(center, dtype=float), np.eye(3),
                       np.asarray(half, dtype=float))


def best_split(node, cloud, params):
    """(axis, offset) of the plane decompose() splits `node` with, or None
    when the node stays whole."""
    from pregrasp.decomposition import _best_split_eval

    best = _best_split_eval(node, cloud, params)
    return None if best is None else best[:2]


def stacked_boxes_tree():
    """Root enclosing two equal boxes stacked along z, touching exactly at z=0."""
    root = axis_box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
    lower = axis_box((0.0, 0.0, -0.05), (0.1, 0.1, 0.05))
    upper = axis_box((0.0, 0.0, +0.05), (0.1, 0.1, 0.05))
    return DecompTree([
        DecompNode(0, root, np.arange(200), None, (1, 2)),
        DecompNode(1, lower, np.arange(100), 0, ()),
        DecompNode(2, upper, np.arange(100, 200), 0, ()),
    ])


def exact_lshape_tree():
    """Hand-built ideal L: the two true leg boxes, touching at y = -0.03.

    Leg A runs along x below the junction; leg B along y above it.  Leg B's
    frame is permuted so its half-extents stay in descending order.
    """
    root = axis_box((0.0, 0.0, 0.0), (0.05, 0.07, 0.02))
    leg_a = axis_box((0.0, -0.05, 0.0), (0.05, 0.02, 0.02))
    rot_b = np.array([[0.0, 0.0, 1.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])  # u = +y, v = +z, w = +x
    leg_b = OrientedBox(np.array([-0.03, 0.02, 0.0]), rot_b,
                        np.array([0.05, 0.02, 0.02]))
    return DecompTree([
        DecompNode(0, root, np.arange(200), None, (1, 2)),
        DecompNode(1, leg_a, np.arange(100), 0, ()),
        DecompNode(2, leg_b, np.arange(100, 200), 0, ()),
    ])


def oversized_parent_tree():
    """Parent with second-largest dimension 0.15 m; two children at 0.07 m."""
    parent = axis_box((0.0, 0.0, 0.0), (0.09, 0.075, 0.05))
    left = axis_box((-0.045, 0.0, 0.0), (0.045, 0.035, 0.03))
    right = axis_box((+0.045, 0.0, 0.0), (0.045, 0.035, 0.03))
    return DecompTree([
        DecompNode(0, parent, np.arange(1000), None, (1, 2)),
        DecompNode(1, left, np.arange(500), 0, ()),
        DecompNode(2, right, np.arange(500, 1000), 0, ()),
    ])


# ---------------------------------------------------------------------------
# Pipeline-equivalent stage inputs
# ---------------------------------------------------------------------------

def classes_for(tree, cloud, thresholds=None):
    """node id -> (category, grasp type, eigenvalues), as the pipeline builds it."""
    out = {}
    for node in tree.nodes:
        lam = pca(cloud.points[node.point_indices])
        cat, grasp = classify(lam, 2.0 * node.box.half_extents, thresholds)
        out[node.id] = (cat, grasp, lam)
    return out


def masks_for(tree, delta_block):
    return {n.id: face_mask(compute_face_states(tree, n.id, delta_block))
            for n in tree.nodes}


def constant_classes(tree, category, grasp):
    return {n.id: (category, grasp, np.ones(3)) for n in tree.nodes}


def free_masks(tree):
    return {n.id: face_mask([False] * 6) for n in tree.nodes}


# ---------------------------------------------------------------------------
# Geometry oracles that need box objects (kept here, not in oracles.py,
# because they take package types as input)
# ---------------------------------------------------------------------------

def ray_hits_box(box, origin, direction, tol=1e-9):
    """Slab-method ray/box intersection with t >= 0."""
    o = box.rotation.T @ (np.asarray(origin, dtype=float) - box.center)
    d = box.rotation.T @ np.asarray(direction, dtype=float)
    tmin, tmax = -np.inf, np.inf
    for k in range(3):
        if abs(d[k]) < 1e-15:
            if abs(o[k]) > box.half_extents[k] + tol:
                return False
            continue
        t1 = (-box.half_extents[k] - o[k]) / d[k]
        t2 = (+box.half_extents[k] - o[k]) / d[k]
        tmin = max(tmin, min(t1, t2))
        tmax = min(tmax, max(t1, t2))
    return tmax + tol >= max(tmin, 0.0)


def points_in_box(box, points, tol=1e-7):
    local = (np.asarray(points, dtype=float) - box.center) @ box.rotation
    return bool(np.all(np.abs(local) <= box.half_extents + tol))


def signed_permutation_rotations():
    """All 24 rotation matrices that permute and flip coordinate axes (det +1)."""
    rots = []
    for perm in itertools.permutations(range(3)):
        base = np.eye(3)[list(perm)]
        for signs in itertools.product((1.0, -1.0), repeat=3):
            mat = base * np.array(signs)
            if np.isclose(np.linalg.det(mat), 1.0):
                rots.append(mat)
    return rots


def random_rotation(rng):
    return oracles.rotation_from_quaternion(rng.standard_normal(4))


def source_subface(pre_grasp):
    """(face, cell) of a pool row's source sub-face."""
    return int(pre_grasp["source_face"]), int(pre_grasp["source_cell"])


def grasp_type_of(pre_grasp):
    """The GraspType of a pool row."""
    return tuple(GraspType)[pre_grasp["grasp_type"]]


def subface_is_free(tree, classes, masks, pre_grasp):
    """Whether a pre-grasp's (a pool row's) source sub-face is free in its
    node's mask."""
    face_index, cell = source_subface(pre_grasp)
    node = tree.node(int(pre_grasp["source_node"]))
    cells = subfaces(FaceId(face_index), masks[node.id],
                     classes[node.id][1], node.box)
    return cells[cell].free


def exhaustive_subface_consistency():
    """Check sub-face freeness == (face free) AND (required neighbours free)
    for every grasp type, face and face-state combination; returns the number
    of cells checked (64 combinations x 128 cells)."""
    box = axis_box((0, 0, 0), (0.1, 0.06, 0.03))
    rules_3x3 = {0: (0, 1), 1: (1,), 2: (2, 1), 3: (0,), 4: (), 5: (2,),
                 6: (0, 3), 7: (3,), 8: (2, 3)}
    checked = 0
    for states in itertools.product((0, 1), repeat=6):
        mask = face_mask(np.array(states))
        for face in FaceId:
            axis = int(face) // 2
            for grasp in GraspType:
                cells = subfaces(face, mask, grasp, box)
                for sf in cells:
                    if grasp is GraspType.THREE_FINGERTIP or (
                            grasp is GraspType.CYLINDRICAL and axis == 0):
                        need = ()
                    elif grasp is GraspType.CYLINDRICAL:
                        lr_axis, _ = face_frame(face)
                        strip_rules = ({0: (0,), 2: (2,)} if lr_axis == 0
                                       else {0: (1,), 2: (3,)})
                        need = strip_rules.get(sf.cell, ())
                    else:
                        need = rules_3x3[sf.cell]
                    expected = not states[int(face)] and all(
                        not states[int(ADJACENT_TABLE[face][d])] for d in need)
                    assert sf.free == expected
                    checked += 1
    return checked


# ---------------------------------------------------------------------------
# Decomposition invariant suite (shared by the module tests and the
# acceptance gate, which requires a minimum number of executed checks)
# ---------------------------------------------------------------------------

def random_invariant_cloud(seed):
    """Deterministic multi-part cloud: a rotated union of 1-3 boxes."""
    rng = np.random.default_rng(40000 + seed)
    n_parts = int(rng.integers(1, 4))
    pts = []
    for _ in range(n_parts):
        half = rng.uniform(0.01, 0.08, size=3)
        center = rng.uniform(-0.08, 0.08, size=3)
        n = int(rng.integers(300, 900))
        pts.append(oracles.box_surface_points(rng, half, n) + center)
    cloud = np.concatenate(pts)
    return cloud @ random_rotation(rng).T


class CheckCounter:
    """Counts elementary checks so property suites can enforce a floor.

    Vectorized checks over n points count n: each point's condition is an
    independently falsifiable assertion and any single failure fails the run.
    """

    def __init__(self):
        self.count = 0

    def ok(self, condition, label, weight=1):
        self.count += weight
        assert condition, label


def check_tree_invariants(points, tree, params, checks):
    """Run every decomposition invariant on one tree, tallied in `checks`."""
    ok = checks.ok
    pts = np.asarray(points, dtype=float)
    root = tree.node(0)
    ok(np.array_equal(np.sort(root.point_indices), np.arange(len(pts))),
       "root owns every point exactly once")

    for node in tree.nodes:
        box = node.box
        rot = box.rotation
        ok(np.allclose(rot @ rot.T, np.eye(3), atol=1e-12), f"node {node.id}: orthonormal")
        ok(abs(np.linalg.det(rot) - 1.0) < 1e-12, f"node {node.id}: right-handed")
        ok(box.half_extents[0] >= box.half_extents[1] >= box.half_extents[2],
           f"node {node.id}: extents sorted")
        ok(box.half_extents[2] >= 1e-4 / 2.0, f"node {node.id}: extent floor")
        ok(points_in_box(box, pts[node.point_indices]),
           f"node {node.id}: containment", weight=len(node.point_indices))
        ok((node.id in tree.leaf_ids()) == node.is_leaf, f"node {node.id}: leaf bookkeeping")
        if node.parent is not None:
            ok(node.id > node.parent, f"node {node.id}: ids grow downward")
            ok(0 in tree.ancestors_of(node.id), f"node {node.id}: rooted")
            ok(node.box.volume <= tree.node(node.parent).box.volume * (1.0 + 1e-12),
               f"node {node.id}: volume shrinks downward")

        if not node.is_leaf:
            a, b = (tree.node(c) for c in node.children)
            ok(len(np.intersect1d(a.point_indices, b.point_indices)) == 0,
               f"node {node.id}: children disjoint")
            ok(np.array_equal(np.sort(np.concatenate([a.point_indices, b.point_indices])),
                              np.sort(node.point_indices)),
               f"node {node.id}: children partition the parent",
               weight=len(node.point_indices))
            ok(a.box.volume + b.box.volume
               <= params.volume_ratio * box.volume * (1.0 + 1e-12),
               f"node {node.id}: split reduced volume")
            ok(min(len(a.point_indices), len(b.point_indices)) > params.min_points / 2.0,
               f"node {node.id}: children keep enough points")
        else:
            ok(len(node.point_indices) >= 1, f"node {node.id}: leaf not empty")


@functools.lru_cache(maxsize=1)
def run_invariant_suite():
    """Decomposition invariants over fixtures + 20 random multi-part clouds.

    Returns the number of executed checks.  Cached so the module test and the
    acceptance gate share one run.
    """
    from pregrasp import DecompParams, decompose, synth_shape
    from pregrasp.pointcloud import PointCloud

    params = DecompParams()
    checks = CheckCounter()
    clouds = [
        synth_shape("sphere", (0.05,), 5000, seed=1),
        synth_shape("lshape", (0.1, 0.1, 0.04), 6000, seed=3),
        synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 8000, seed=3),
    ]
    clouds += [PointCloud(random_invariant_cloud(seed)) for seed in range(20)]
    for cloud in clouds:
        t1 = decompose(cloud, params)
        t2 = decompose(cloud, params)
        check_tree_invariants(cloud.points, t1, params, checks)
        trees_identical(t1, t2, checks)
    return checks.count


@functools.lru_cache(maxsize=1)
def mvbb_oracle_ratios():
    """fit_obb volume / frozen 2-degree-grid volume for the 50 frozen clouds."""
    import _mvbb_frozen as frozen
    from pregrasp.decomposition import fit_obb

    ratios = {}
    for seed, (grid_vol, _true_vol) in sorted(frozen.GRID_VOLUMES.items()):
        pts, _ = oracles.make_rotated_box_cloud(seed)
        ratios[seed] = fit_obb(pts).volume / grid_vol
    return ratios


def trees_identical(t1, t2, checks):
    ok = checks.ok
    ok(len(t1.nodes) == len(t2.nodes), "same node count")
    for n1, n2 in zip(t1.nodes, t2.nodes):
        ok(n1.children == n2.children, f"node {n1.id}: same children")
        ok(np.array_equal(n1.point_indices, n2.point_indices), f"node {n1.id}: same points")
        ok(np.array_equal(n1.box.center, n2.box.center)
           and np.array_equal(n1.box.rotation, n2.box.rotation)
           and np.array_equal(n1.box.half_extents, n2.box.half_extents),
           f"node {n1.id}: same box bits")
