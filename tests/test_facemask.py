"""Face occlusion states, the 6x5 mask and per-grasp-type sub-face schemes."""

import itertools

import numpy as np
import pytest

import helpers
from oracles import cells_containing

from pregrasp import DecompParams, GraspType, GripperConfig, decompose
from pregrasp.facemask import (
    FaceDir,
    FaceId,
    FaceMask,
    adjacent_face,
    compute_face_states,
    face_frame,
    face_mask,
    face_slab,
    obb_overlap,
    subfaces,
)

ALL_FACES = list(FaceId)
ALL_DIRS = list(FaceDir)

EXPECTED_ADJACENT = helpers.ADJACENT_TABLE


# ---------------------------------------------------------------------------
# face ids, adjacency, mask assembly
# ---------------------------------------------------------------------------

def test_face_id_layout():
    assert [int(f) for f in ALL_FACES] == [0, 1, 2, 3, 4, 5]
    for face in ALL_FACES:
        axis, sign = int(face) // 2, int(face) % 2
        assert ("PLUS" in face.name) == (sign == 0)
        assert face.name.endswith("UVW"[axis])


def test_adjacency_matches_hand_table():
    for face in ALL_FACES:
        for d in ALL_DIRS:
            assert adjacent_face(face, d) is EXPECTED_ADJACENT[face][int(d)]


def test_adjacent_faces_are_perpendicular():
    for face in ALL_FACES:
        for d in ALL_DIRS:
            other = adjacent_face(face, d)
            assert int(other) // 2 != int(face) // 2
        neighbours = {adjacent_face(face, d) for d in ALL_DIRS}
        assert len(neighbours) == 4
        assert face not in neighbours
        # the two neighbours along lr/du match the face frame axes
        lr_axis, du_axis = face_frame(face)
        assert int(adjacent_face(face, FaceDir.RIGHT)) == 2 * lr_axis
        assert int(adjacent_face(face, FaceDir.UP)) == 2 * du_axis


def test_mask_assembly_all_64_state_combinations():
    for states in itertools.product((0, 1), repeat=6):
        mask = face_mask(np.array(states))
        for face in ALL_FACES:
            assert mask.face_blocked(face) == bool(states[int(face)])
            assert mask.matrix[int(face), 0] == states[int(face)]
            for d in ALL_DIRS:
                expected = states[int(EXPECTED_ADJACENT[face][int(d)])]
                assert mask.adjacent_blocked(face, d) == bool(expected)


# ---------------------------------------------------------------------------
# slab extrusion + box overlap
# ---------------------------------------------------------------------------

def test_face_slab_extrudes_outward():
    box = helpers.axis_box((1.0, 2.0, 3.0), (0.1, 0.2, 0.3))
    slab = face_slab(box, FaceId.PLUS_U, 0.08)
    np.testing.assert_allclose(slab.center, [1.14, 2.0, 3.0])
    np.testing.assert_allclose(slab.half_extents, [0.04, 0.2, 0.3])
    slab = face_slab(box, FaceId.MINUS_W, 0.02)
    np.testing.assert_allclose(slab.center, [1.0, 2.0, 2.69])
    np.testing.assert_allclose(slab.half_extents, [0.1, 0.2, 0.01])


def test_obb_overlap_separated_touching_overlapping():
    a = helpers.axis_box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
    assert not obb_overlap(a, helpers.axis_box((0.3, 0.0, 0.0), (0.1, 0.1, 0.1)))
    # exact face-to-face touch is not an overlap
    assert not obb_overlap(a, helpers.axis_box((0.2, 0.0, 0.0), (0.1, 0.1, 0.1)))
    assert obb_overlap(a, helpers.axis_box((0.15, 0.0, 0.0), (0.1, 0.1, 0.1)))
    # full containment
    assert obb_overlap(a, helpers.axis_box((0.0, 0.0, 0.0), (0.01, 0.01, 0.01)))


def test_obb_overlap_penetration_threshold():
    a = helpers.axis_box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
    shallow = helpers.axis_box((0.2 - 0.0005, 0.0, 0.0), (0.1, 0.1, 0.1))
    deep = helpers.axis_box((0.2 - 0.002, 0.0, 0.0), (0.1, 0.1, 0.1))
    assert not obb_overlap(a, shallow, min_penetration=1e-3)
    assert obb_overlap(a, deep, min_penetration=1e-3)


def test_obb_overlap_rotated_pair():
    a = helpers.axis_box((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    from pregrasp.decomposition import OrientedBox
    diamond_far = OrientedBox(np.array([0.25, 0.0, 0.0]), rot, np.array([0.1, 0.1, 0.1]))
    # corner at x = 0.25 - 0.1*sqrt(2) = 0.109 -> separated from |x| <= 0.1
    assert not obb_overlap(a, diamond_far)
    diamond_near = OrientedBox(np.array([0.23, 0.0, 0.0]), rot, np.array([0.1, 0.1, 0.1]))
    assert obb_overlap(a, diamond_near)


# ---------------------------------------------------------------------------
# face states on trees
# ---------------------------------------------------------------------------

def test_stacked_boxes_block_exactly_the_touching_faces():
    tree = helpers.stacked_boxes_tree()
    lower = compute_face_states(tree, 1, delta_block=0.08)
    upper = compute_face_states(tree, 2, delta_block=0.08)
    assert list(lower) == [0, 0, 0, 0, 1, 0]  # only +W (toward the upper box)
    assert list(upper) == [0, 0, 0, 0, 0, 1]  # only -W


def test_exact_lshape_blocks_one_junction_face_per_leg():
    tree = helpers.exact_lshape_tree()
    leg_a = compute_face_states(tree, 1, delta_block=0.08)
    leg_b = compute_face_states(tree, 2, delta_block=0.08)
    assert [FaceId(i) for i, s in enumerate(leg_a) if s] == [FaceId.PLUS_V]
    assert [FaceId(i) for i, s in enumerate(leg_b) if s] == [FaceId.MINUS_U]


def test_delta_block_controls_reach():
    tree = helpers.stacked_boxes_tree()
    # push the upper box 20 mm away
    tree.node(2).box.center[2] += 0.02
    near = compute_face_states(tree, 1, delta_block=0.01)
    far = compute_face_states(tree, 1, delta_block=0.08)
    assert list(near) == [0, 0, 0, 0, 0, 0]
    assert list(far) == [0, 0, 0, 0, 1, 0]


def test_face_states_ignore_ancestors_and_descendants():
    # three levels: the middle node's states must skip its parent and child
    tree = helpers.stacked_boxes_tree()
    child = helpers.axis_box((0.0, 0.0, -0.05), (0.09, 0.09, 0.04))
    from pregrasp.decomposition import DecompNode
    tree.node(1).children = (3,)
    tree.nodes.append(DecompNode(3, child, np.arange(100), 1, ()))
    states = compute_face_states(tree, 1, delta_block=0.08)
    # still only the face toward the upper sibling; the enclosed child and the
    # enclosing root do not block
    assert list(states) == [0, 0, 0, 0, 1, 0]


def test_pipeline_dumbbell_masks(dumbbell_tree):
    grip = GripperConfig()
    end_big, neck, end_small = dumbbell_tree.leaf_ids()
    blocked = {nid: [FaceId(i).name for i, s in
                     enumerate(compute_face_states(dumbbell_tree, nid, grip.finger_length)) if s]
               for nid in (end_big, neck, end_small)}
    assert blocked[end_big] == ["PLUS_U"]
    assert blocked[neck] == ["PLUS_U", "MINUS_U"]
    assert blocked[end_small] == ["MINUS_U"]


def test_pipeline_lshape_masks(lshape_tree):
    # the fitted split leaves a few-mm sliver, so the sliver-side leaf also
    # blocks one lateral face; the junction faces are blocked on both leaves
    grip = GripperConfig()
    leaf1, leaf2 = lshape_tree.leaf_ids()
    blocked1 = [FaceId(i).name for i, s in
                enumerate(compute_face_states(lshape_tree, leaf1, grip.finger_length)) if s]
    blocked2 = [FaceId(i).name for i, s in
                enumerate(compute_face_states(lshape_tree, leaf2, grip.finger_length)) if s]
    assert blocked1 == ["PLUS_V"]
    assert blocked2 == ["MINUS_U", "PLUS_V"]


# ---------------------------------------------------------------------------
# sub-face schemes
# ---------------------------------------------------------------------------

def _mask_with(blocked_faces):
    states = np.zeros(6, dtype=int)
    for f in blocked_faces:
        states[int(f)] = 1
    return face_mask(states)


def test_three_fingertip_single_cell_ignores_neighbours():
    box = helpers.axis_box((0, 0, 0), (0.05, 0.05, 0.0025))
    mask = _mask_with([FaceId.PLUS_V, FaceId.MINUS_W])
    cells = subfaces(FaceId.PLUS_U, mask, GraspType.THREE_FINGERTIP, box)
    assert len(cells) == 1
    assert cells[0].free
    assert cells[0].rect == (-0.05, -0.0025, 0.05, 0.0025)
    blocked = subfaces(FaceId.PLUS_V, mask, GraspType.THREE_FINGERTIP, box)
    assert not blocked[0].free


def test_spherical_three_by_three_tiling():
    box = helpers.axis_box((0, 0, 0), (0.09, 0.06, 0.03))
    cells = subfaces(FaceId.PLUS_U, _mask_with([]), GraspType.SPHERICAL, box)
    assert len(cells) == 9
    # row-major from bottom-left in the (v, w) face frame
    lr, du = 0.06, 0.03
    for i, sf in enumerate(cells):
        col, row = i % 3, i // 3
        x0, y0, x1, y1 = sf.rect
        assert x0 == pytest.approx(-lr + 2 * lr * col / 3)
        assert y0 == pytest.approx(-du + 2 * du * row / 3)
        assert x1 == pytest.approx(x0 + 2 * lr / 3)
        assert y1 == pytest.approx(y0 + 2 * du / 3)
        assert sf.free
    total_area = sum((r[2] - r[0]) * (r[3] - r[1]) for r in (sf.rect for sf in cells))
    assert total_area == pytest.approx(4 * lr * du)


def test_spherical_propagation_blocks_exact_rows():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.1, 0.1))
    mask = _mask_with([FaceId.PLUS_W])
    # +W is "up" from the U faces: top row (6,7,8) lost, nothing else
    for face in (FaceId.PLUS_U, FaceId.MINUS_U):
        free = {sf.cell for sf in subfaces(face, mask, GraspType.SPHERICAL, box) if sf.free}
        assert free == {0, 1, 2, 3, 4, 5}
    # +W is "right" from the V faces: right column (2,5,8) lost
    for face in (FaceId.PLUS_V, FaceId.MINUS_V):
        free = {sf.cell for sf in subfaces(face, mask, GraspType.SPHERICAL, box) if sf.free}
        assert free == {0, 1, 3, 4, 6, 7}
    # the blocked face itself loses everything
    assert not any(sf.free for sf in subfaces(FaceId.PLUS_W, mask, GraspType.SPHERICAL, box))
    # the opposite face is untouched
    assert all(sf.free for sf in subfaces(FaceId.MINUS_W, mask, GraspType.SPHERICAL, box))


def test_spherical_corner_cells_need_both_neighbours():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.1, 0.1))
    mask = _mask_with([FaceId.MINUS_V, FaceId.MINUS_W])  # left and down of +U
    free = {sf.cell for sf in subfaces(FaceId.PLUS_U, mask, GraspType.SPHERICAL, box) if sf.free}
    # left column (0,3,6) and bottom row (0,1,2) lost; centre column/rows stay
    assert free == {4, 5, 7, 8}


def test_cylindrical_caps_are_single_cells():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.02, 0.02))
    mask = _mask_with([FaceId.MINUS_U])
    plus = subfaces(FaceId.PLUS_U, mask, GraspType.CYLINDRICAL, box)
    minus = subfaces(FaceId.MINUS_U, mask, GraspType.CYLINDRICAL, box)
    assert len(plus) == 1 and plus[0].free
    assert len(minus) == 1 and not minus[0].free


def test_cylindrical_lateral_end_strips_need_their_cap():
    box = helpers.axis_box((0, 0, 0), (0.1, 0.02, 0.02))
    mask = _mask_with([FaceId.MINUS_U])
    for face in (FaceId.PLUS_V, FaceId.MINUS_V, FaceId.PLUS_W, FaceId.MINUS_W):
        cells = subfaces(face, mask, GraspType.CYLINDRICAL, box)
        assert len(cells) == 3
        free = {sf.cell for sf in cells if sf.free}
        assert free == {1, 2}, f"{face.name}: strip toward -U must drop"
        # strips run along the long axis: each rect spans the full short side
        lr_axis, du_axis = face_frame(face)
        long_in_lr = lr_axis == 0
        for sf in cells:
            x0, y0, x1, y1 = sf.rect
            if long_in_lr:
                assert (y0, y1) == (-box.half_extents[du_axis], box.half_extents[du_axis])
                assert x1 - x0 == pytest.approx(2 * box.half_extents[0] / 3)
            else:
                assert (x0, x1) == (-box.half_extents[lr_axis], box.half_extents[lr_axis])
                assert y1 - y0 == pytest.approx(2 * box.half_extents[0] / 3)


def test_cells_containing_closed_rects():
    box = helpers.axis_box((0, 0, 0), (0.09, 0.06, 0.03))
    cells = subfaces(FaceId.PLUS_U, _mask_with([]), GraspType.SPHERICAL, box)
    inside = cells_containing(cells, -0.05, -0.02)
    assert [sf.cell for sf in inside] == [0]
    # a grid line belongs to both cells it separates
    on_line = cells_containing(cells, -0.02, 0.0)
    assert [sf.cell for sf in on_line] == [3, 4]
    corner = cells_containing(cells, -0.02, 0.01)
    assert [sf.cell for sf in corner] == [3, 4, 6, 7]
    assert cells_containing(cells, 0.07, 0.0) == []


def test_exhaustive_subface_consistency():
    """Sub-face freeness equals (face free) AND (required neighbours free)
    for every grasp type, face and 64-state combination."""
    # per combination: U faces 9+9+1+1 cells, V/W faces 9+9+1+3 -> 128 cells
    assert helpers.exhaustive_subface_consistency() == 64 * 128


def test_mask_matrix_shape_and_types(free_mask):
    assert free_mask.matrix.shape == (6, 5)
    assert free_mask.matrix.dtype == int
    assert not free_mask.face_blocked(FaceId.PLUS_U)
