"""Face occlusion states, the 6x5 mask and per-grasp-type sub-face schemes."""

import itertools
import tracemalloc

import numpy as np
import pytest

import helpers
import oracles
from oracles import cells_by_face, cells_containing

from pregrasp import DecompParams, GraspType, GripperConfig, decompose
from pregrasp.decomposition import DecompNode, DecompTree, OrientedBox
from pregrasp.facemask import (
    FACE_FRAMES,
    MASK_COLUMNS,
    NEIGHBOURS,
    FaceId,
    _face_slabs,
    compute_face_states,
    SUBFACE_DTYPE,
    obb_overlap,
    subfaces,
)
from pregrasp.pipeline import _mask_section
from pregrasp.pointcloud import SYNTH_KINDS, PointCloud, synth_shape

ALL_FACES = list(FaceId)

EXPECTED_ADJACENT = helpers.ADJACENT_TABLE


def triple(box):
    return box.center, box.rotation, box.half_extents


# ---------------------------------------------------------------------------
# face ids, adjacency, mask matrix
# ---------------------------------------------------------------------------

def test_face_id_layout():
    assert [int(f) for f in ALL_FACES] == [0, 1, 2, 3, 4, 5]
    for face in ALL_FACES:
        axis, sign = int(face) // 2, int(face) % 2
        assert ("PLUS" in face.name) == (sign == 0)
        assert face.name.endswith("UVW"[axis])


def test_adjacency_matches_hand_table():
    assert NEIGHBOURS.shape == (6, 4)
    for face in ALL_FACES:
        assert NEIGHBOURS[face].tolist() == [int(f) for f in EXPECTED_ADJACENT[face]]


def test_adjacent_faces_are_perpendicular():
    for face in ALL_FACES:
        neighbours = NEIGHBOURS[face].tolist()
        assert all(other // 2 != int(face) // 2 for other in neighbours)
        assert len(set(neighbours)) == 4
        # left/right walk the lr frame axis, down/up the du one
        lr_axis, du_axis = FACE_FRAMES[face]
        assert neighbours == [2 * lr_axis + 1, 2 * du_axis + 1, 2 * lr_axis, 2 * du_axis]
        assert sorted((int(face) // 2, lr_axis, du_axis)) == [0, 1, 2]


def test_mask_assembly_all_64_state_combinations():
    assert MASK_COLUMNS.tolist() == [[int(f), *map(int, EXPECTED_ADJACENT[f])] for f in ALL_FACES]
    for states in itertools.product((0, 1), repeat=6):
        matrix = np.array(states)[MASK_COLUMNS]
        for face in ALL_FACES:
            assert matrix[face, 0] == states[face]
            for d in range(4):
                assert matrix[face, 1 + d] == states[int(EXPECTED_ADJACENT[face][d])]


# ---------------------------------------------------------------------------
# slab extrusion + box overlap
# ---------------------------------------------------------------------------

def test_face_slab_extrudes_outward():
    box = helpers.axis_box((1.0, 2.0, 3.0), (0.1, 0.2, 0.3))
    centers, halves = _face_slabs(*(x[None] for x in triple(box)), 0.08)
    assert centers.shape == halves.shape == (1, 6, 3)
    np.testing.assert_allclose(centers[0, FaceId.PLUS_U], [1.14, 2.0, 3.0])
    np.testing.assert_allclose(halves[0, FaceId.PLUS_U], [0.04, 0.2, 0.3])
    centers, halves = _face_slabs(*(x[None] for x in triple(box)), 0.02)
    np.testing.assert_allclose(centers[0, FaceId.MINUS_W], [1.0, 2.0, 2.69])
    np.testing.assert_allclose(halves[0, FaceId.MINUS_W], [0.1, 0.2, 0.01])


@pytest.mark.bitexact
def test_face_slabs_match_reference_bytes():
    """Every slab of a stack of rotated boxes has the bits of extruding one
    face of one box at a time."""
    rng = np.random.default_rng(5)
    boxes = [OrientedBox(rng.uniform(-1, 1, 3), helpers.random_rotation(rng),
                         np.sort(rng.uniform(0.01, 0.1, 3))[::-1]) for _ in range(8)]
    centers, halves = _face_slabs(*(np.array(x) for x in zip(*map(triple, boxes))), 0.08)
    for i, box in enumerate(boxes):
        for face in ALL_FACES:
            center, _, half = oracles.reference_face_slab(box, face, 0.08)
            assert centers[i, face].tobytes() == center.tobytes()
            assert halves[i, face].tobytes() == half.tobytes()


def test_obb_overlap_separated_touching_overlapping():
    a = triple(helpers.axis_box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)))
    assert not obb_overlap(a, triple(helpers.axis_box((0.3, 0.0, 0.0), (0.1, 0.1, 0.1))))
    # exact face-to-face touch is not an overlap
    assert not obb_overlap(a, triple(helpers.axis_box((0.2, 0.0, 0.0), (0.1, 0.1, 0.1))))
    assert obb_overlap(a, triple(helpers.axis_box((0.15, 0.0, 0.0), (0.1, 0.1, 0.1))))
    # full containment
    assert obb_overlap(a, triple(helpers.axis_box((0.0, 0.0, 0.0), (0.01, 0.01, 0.01))))


def test_obb_overlap_penetration_threshold():
    a = triple(helpers.axis_box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)))
    shallow = triple(helpers.axis_box((0.2 - 0.0005, 0.0, 0.0), (0.1, 0.1, 0.1)))
    deep = triple(helpers.axis_box((0.2 - 0.002, 0.0, 0.0), (0.1, 0.1, 0.1)))
    assert not obb_overlap(a, shallow, min_penetration=1e-3)
    assert obb_overlap(a, deep, min_penetration=1e-3)


def test_obb_overlap_rotated_pair():
    a = triple(helpers.axis_box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)))
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    # corner at x = 0.25 - 0.1*sqrt(2) = 0.109 -> separated from |x| <= 0.1
    assert not obb_overlap(a, (np.array([0.25, 0.0, 0.0]), rot, np.full(3, 0.1)))
    assert obb_overlap(a, (np.array([0.23, 0.0, 0.0]), rot, np.full(3, 0.1)))


def test_obb_overlap_broadcasts_like_one_pair_at_a_time():
    """A (4, 1) stack against a (5,) stack gives the (4, 5) table of the
    one-pair reference test, rotated pairs and touching faces included."""
    rng = np.random.default_rng(11)
    rots = (np.eye(3), helpers.random_rotation(rng), helpers.random_rotation(rng))
    boxes = [(rng.uniform(-0.15, 0.15, 3), rots[i % 3], rng.uniform(0.02, 0.1, 3))
             for i in range(9)]
    # box 4 touches box 0's +x face
    center, _, half = boxes[0]
    boxes[4] = (center + (half[0] + 0.05, 0.0, 0.0), np.eye(3), np.array([0.05, *half[1:]]))
    a = tuple(np.array(x)[:, None] for x in zip(*boxes[:4]))
    b = tuple(np.array(x) for x in zip(*boxes[4:]))
    got = obb_overlap(a, b, 1e-3)
    want = [[oracles.reference_obb_overlap(p, q, 1e-3) for q in boxes[4:]] for p in boxes[:4]]
    assert got.shape == (4, 5) and got.dtype == bool
    assert got.tolist() == want
    assert got.any() and not got.all()
    assert not got[0, 0]


# ---------------------------------------------------------------------------
# face states on trees
# ---------------------------------------------------------------------------

def blocked_faces(states):
    return [FaceId(i).name for i, s in enumerate(states) if s]


def test_stacked_boxes_block_exactly_the_touching_faces():
    states = compute_face_states(helpers.stacked_boxes_tree(), delta_block=0.08)
    assert states.shape == (3, 6) and states.dtype == int
    assert states[1].tolist() == [0, 0, 0, 0, 1, 0]  # only +W (toward the upper box)
    assert states[2].tolist() == [0, 0, 0, 0, 0, 1]  # only -W
    assert states[0].tolist() == [0] * 6  # both leaves lie in the root's subtree


def test_exact_lshape_blocks_one_junction_face_per_leg():
    states = compute_face_states(helpers.exact_lshape_tree(), delta_block=0.08)
    assert blocked_faces(states[1]) == ["PLUS_V"]
    assert blocked_faces(states[2]) == ["MINUS_U"]


def test_delta_block_controls_reach():
    tree = helpers.stacked_boxes_tree()
    # push the upper box 20 mm away
    tree.node(2).box.center[2] += 0.02
    near = compute_face_states(tree, delta_block=0.01)
    far = compute_face_states(tree, delta_block=0.08)
    assert near[1].tolist() == [0, 0, 0, 0, 0, 0]
    assert far[1].tolist() == [0, 0, 0, 0, 1, 0]


def test_face_states_ignore_ancestors_and_descendants():
    # three levels: the middle node's states must skip its parent and child
    states = compute_face_states(helpers.three_level_tree(), delta_block=0.08)
    # still only the face toward the upper sibling; the enclosed child and the
    # enclosing root do not block
    assert states[1].tolist() == [0, 0, 0, 0, 1, 0]
    # the child is blocked by its parent's sibling through its own +W slab
    assert states[3].tolist() == [0, 0, 0, 0, 1, 0]


def test_pipeline_dumbbell_masks(dumbbell_tree):
    states = compute_face_states(dumbbell_tree, GripperConfig().finger_length)
    end_big, neck, end_small = dumbbell_tree.leaf_ids()
    assert blocked_faces(states[end_big]) == ["PLUS_U"]
    assert blocked_faces(states[neck]) == ["PLUS_U", "MINUS_U"]
    assert blocked_faces(states[end_small]) == ["MINUS_U"]


def test_pipeline_lshape_masks(lshape_tree):
    # the fitted split leaves a few-mm sliver, so the sliver-side leaf also
    # blocks one lateral face; the junction faces are blocked on both leaves
    states = compute_face_states(lshape_tree, GripperConfig().finger_length)
    leaf1, leaf2 = lshape_tree.leaf_ids()
    assert blocked_faces(states[leaf1]) == ["PLUS_V"]
    assert blocked_faces(states[leaf2]) == ["MINUS_U", "PLUS_V"]


def _decomposed_trees():
    """122 trees of the synth shapes at 3k points, as generated and rotated
    and shifted: every shape at seeds 1-3 split at (min_points,
    volume_ratio) of (500, 0.9), (300, 0.9) and (100, 0.9), and at seed 1
    at (200, 1.0); the dumbbell as generated and the L-shape moved, split at
    (50, 1.0) into 50 nodes or more."""
    cases = [(kind, seed, moved, split) for kind in SYNTH_KINDS for seed in (1, 2, 3)
             for moved in (False, True)
             for split in ((500, 0.9), (300, 0.9), (100, 0.9)) + ((200, 1.0),) * (seed == 1)]
    cases += [("dumbbell", 1, False, (50, 1.0)), ("lshape", 1, True, (50, 1.0))]
    for kind, seed, moved, (min_points, ratio) in cases:
        cloud = synth_shape(kind, tuple(SYNTH_KINDS[kind].values()), 3000, seed)
        if moved:
            rng = np.random.default_rng(seed)
            cloud = PointCloud(cloud.points @ helpers.random_rotation(rng).T
                               + rng.uniform(-1.0, 1.0, 3))
        yield decompose(cloud, DecompParams(min_points=min_points, volume_ratio=ratio))


@pytest.mark.bitexact
def test_face_states_match_reference_on_every_tree():
    """The one-pass states equal the per-node, per-face, per-leaf reference
    on the hand-built trees and on 122 decomposed trees, at two slab
    depths."""
    trees = [helpers.stacked_boxes_tree(), helpers.exact_lshape_tree(),
             helpers.oversized_parent_tree(), helpers.three_level_tree()]
    trees += list(_decomposed_trees())
    assert len(trees) == 126 and min(len(t.nodes) for t in trees[-2:]) >= 50
    blocked = 0
    for i, tree in enumerate(trees):
        delta = (0.08, 0.02)[i % 2]
        want = [oracles.reference_face_states(tree, nid, delta) for nid in range(len(tree.nodes))]
        got = compute_face_states(tree, delta)
        assert got.tolist() == np.array(want).tolist(), f"tree {i}"
        blocked += int(got.sum())
    assert blocked > 500


def test_face_states_memory_is_bounded():
    """A 221-node tree (a 20k-point dumbbell split down to 100 points at
    any volume gain) is masked in blocks of about 4k (face, leaf) pairs: the
    tracemalloc peak stays below 8 MB."""
    cloud = synth_shape("dumbbell", tuple(SYNTH_KINDS["dumbbell"].values()), 20000, seed=1)
    tree = decompose(cloud, DecompParams(min_points=100, volume_ratio=1.0))
    assert len(tree.nodes) == 221
    tracemalloc.start()
    try:
        states = compute_face_states(tree, GripperConfig().finger_length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert states.sum() > 300


# ---------------------------------------------------------------------------
# sub-face schemes
# ---------------------------------------------------------------------------

def _mask_with(blocked_faces):
    states = np.zeros(6, dtype=int)
    for f in blocked_faces:
        states[int(f)] = 1
    return states


@pytest.mark.parametrize("grasp_type, per_face", [
    (GraspType.SPHERICAL, (9,) * 6),
    (GraspType.TWO_FINGERTIP, (9,) * 6),
    (GraspType.THREE_FINGERTIP, (1,) * 6),
    (GraspType.CYLINDRICAL, (1, 1, 3, 3, 3, 3)),
])
def test_subfaces_one_array_in_face_cell_order(grasp_type, per_face):
    box = helpers.axis_box((0, 0, 0), (0.05, 0.03, 0.015))
    cells = subfaces(_mask_with([]), grasp_type, box)
    assert cells.dtype == SUBFACE_DTYPE
    assert cells["face"].tolist() == [f for f in range(6) for _ in range(per_face[f])]
    assert cells["cell"].tolist() == [c for f in range(6) for c in range(per_face[f])]
    assert cells["free"].all()


def test_document_free_subface_counts():
    """A 10x6x3 cm box with +W blocked.  Spherical / TwoFingertip: +W loses
    its 9 cells, the U faces their top row and the V faces their right column
    (3 each), -W keeps 9: 0 + 9 + 4 * 6 = 33.  ThreeFingertip: the 5 free
    faces.  Cylindrical: 2 caps, 3 strips on each of +/-V and -W, none on
    +W: 11."""
    box = helpers.axis_box((0, 0, 0), (0.05, 0.03, 0.015))
    tree = DecompTree([DecompNode(0, box, np.arange(10))])
    (entry,) = _mask_section(tree, _mask_with([FaceId.PLUS_W])[None])
    assert entry["free_subface_counts"] == {
        "Spherical": 33, "TwoFingertip": 33, "ThreeFingertip": 5, "Cylindrical": 11}


def test_three_fingertip_single_cell_ignores_neighbours():
    box = helpers.axis_box((0, 0, 0), (0.05, 0.05, 0.0025))
    mask = _mask_with([FaceId.PLUS_V, FaceId.MINUS_W])
    by_face = cells_by_face(mask, GraspType.THREE_FINGERTIP, box)
    cells = by_face[FaceId.PLUS_U]
    assert len(cells) == 1
    assert cells[0]["free"]
    assert tuple(cells[0]["rect"].tolist()) == (-0.05, -0.0025, 0.05, 0.0025)
    blocked = by_face[FaceId.PLUS_V]
    assert not blocked[0]["free"]


def test_spherical_three_by_three_tiling():
    box = helpers.axis_box((0, 0, 0), (0.09, 0.06, 0.03))
    cells = cells_by_face(_mask_with([]), GraspType.SPHERICAL, box)[FaceId.PLUS_U]
    assert len(cells) == 9
    # row-major from bottom-left in the (v, w) face frame
    lr, du = 0.06, 0.03
    for i, sf in enumerate(cells):
        col, row = i % 3, i // 3
        x0, y0, x1, y1 = sf["rect"]
        assert x0 == pytest.approx(-lr + 2 * lr * col / 3)
        assert y0 == pytest.approx(-du + 2 * du * row / 3)
        assert x1 == pytest.approx(x0 + 2 * lr / 3)
        assert y1 == pytest.approx(y0 + 2 * du / 3)
        assert sf["free"]
    total_area = sum((r[2] - r[0]) * (r[3] - r[1]) for r in cells["rect"])
    assert total_area == pytest.approx(4 * lr * du)


def test_spherical_propagation_blocks_exact_rows():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.1, 0.1))
    cells = cells_by_face(_mask_with([FaceId.PLUS_W]), GraspType.SPHERICAL, box)
    # +W is "up" from the U faces: top row (6,7,8) lost, nothing else
    for face in (FaceId.PLUS_U, FaceId.MINUS_U):
        free = set(cells[face]["cell"][cells[face]["free"]].tolist())
        assert free == {0, 1, 2, 3, 4, 5}
    # +W is "right" from the V faces: right column (2,5,8) lost
    for face in (FaceId.PLUS_V, FaceId.MINUS_V):
        free = set(cells[face]["cell"][cells[face]["free"]].tolist())
        assert free == {0, 1, 3, 4, 6, 7}
    # the blocked face itself loses everything
    assert not cells[FaceId.PLUS_W]["free"].any()
    # the opposite face is untouched
    assert cells[FaceId.MINUS_W]["free"].all()


def test_spherical_corner_cells_need_both_neighbours():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.1, 0.1))
    mask = _mask_with([FaceId.MINUS_V, FaceId.MINUS_W])  # left and down of +U
    cells = cells_by_face(mask, GraspType.SPHERICAL, box)[FaceId.PLUS_U]
    free = set(cells["cell"][cells["free"]].tolist())
    # left column (0,3,6) and bottom row (0,1,2) lost; centre column/rows stay
    assert free == {4, 5, 7, 8}


def test_cylindrical_caps_are_single_cells():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.02, 0.02))
    mask = _mask_with([FaceId.MINUS_U])
    by_face = cells_by_face(mask, GraspType.CYLINDRICAL, box)
    plus, minus = by_face[FaceId.PLUS_U], by_face[FaceId.MINUS_U]
    assert len(plus) == 1 and plus[0]["free"]
    assert len(minus) == 1 and not minus[0]["free"]


def test_cylindrical_lateral_end_strips_need_their_cap():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.02, 0.02))
    mask = _mask_with([FaceId.MINUS_U])
    by_face = cells_by_face(mask, GraspType.CYLINDRICAL, box)
    for face in (FaceId.PLUS_V, FaceId.MINUS_V, FaceId.PLUS_W, FaceId.MINUS_W):
        cells = by_face[face]
        assert len(cells) == 3
        free = set(cells["cell"][cells["free"]].tolist())
        assert free == {1, 2}, f"{face.name}: strip toward -U must drop"
        # strips run along the long axis: each rect spans the full short side
        lr_axis, du_axis = FACE_FRAMES[face]
        long_in_lr = lr_axis == 0
        for sf in cells:
            x0, y0, x1, y1 = sf["rect"]
            if long_in_lr:
                assert (y0, y1) == (-box.half_extents[du_axis], box.half_extents[du_axis])
                assert x1 - x0 == pytest.approx(2 * box.half_extents[0] / 3)
            else:
                assert (x0, x1) == (-box.half_extents[lr_axis], box.half_extents[lr_axis])
                assert y1 - y0 == pytest.approx(2 * box.half_extents[0] / 3)


def test_cells_containing_closed_rects():
    box = helpers.axis_box((0, 0, 0), (0.09, 0.06, 0.03))
    cells = cells_by_face(_mask_with([]), GraspType.SPHERICAL, box)[FaceId.PLUS_U]
    inside = cells_containing(cells, -0.05, -0.02)
    assert [sf["cell"] for sf in inside] == [0]
    # a grid line belongs to both cells it separates
    on_line = cells_containing(cells, -0.02, 0.0)
    assert [sf["cell"] for sf in on_line] == [3, 4]
    corner = cells_containing(cells, -0.02, 0.01)
    assert [sf["cell"] for sf in corner] == [3, 4, 6, 7]
    assert cells_containing(cells, 0.07, 0.0) == []


def test_exhaustive_subface_consistency():
    """Sub-face freeness equals (face free) AND (required neighbours free)
    for every grasp type, face and 64-state combination."""
    # per combination: U faces 9+9+1+1 cells, V/W faces 9+9+1+3 -> 128 cells
    assert helpers.exhaustive_subface_consistency() == 64 * 128


def test_mask_matrix_shape_and_types(free_mask):
    matrix = free_mask[MASK_COLUMNS]
    assert matrix.shape == (6, 5)
    assert matrix.dtype == int
    assert not matrix.any()
