"""Tests for node selection and enclosing-surface pre-grasp sampling."""

import itertools
import json

import numpy as np
import pytest

import helpers
import oracles
from pregrasp.classifier import GRASP_PRESHAPE, GraspType, ShapeCategory
from pregrasp.decomposition import DecompNode, DecompTree, OrientedBox
from pregrasp.errors import PreGraspError
from pregrasp.facemask import FaceId, compute_face_states
from pregrasp.pipeline import _pool_section
from pregrasp.graspeval import finger_rays, rank_pool
from pregrasp.pipeline import RunConfig, run_pipeline
from pregrasp.pointcloud import synth_shape
from pregrasp.sampler import (_MAX_DIRECTIONS, POOL_DTYPE, GripperConfig, SamplingParams,
                              _direction_table, generate_pool, sample_node, select_nodes)


def leaf_node(box, nid=0):
    return DecompNode(nid, box, np.arange(10), None, ())


def single_node_tree(box):
    return DecompTree([leaf_node(box)])


# ===========================================================================
# Node selection
# ===========================================================================

def test_oversized_parent_defers_to_children(gripper):
    """Parent at 0.15 m second dimension exceeds the 0.10 m aperture; its
    0.07 m children are selected instead."""
    tree = helpers.oversized_parent_tree()
    classes = helpers.constant_classes(
        tree, ShapeCategory.THREE_DIMENSIONAL_LARGE, GraspType.SPHERICAL)
    assert select_nodes(tree, classes, gripper) == [1, 2]


def test_small_child_promotes_parent(gripper):
    parent = helpers.axis_box((0.0, 0.0, 0.0), (0.05, 0.04, 0.03))
    left = helpers.axis_box((-0.025, 0.0, 0.0), (0.025, 0.02, 0.02))
    right = helpers.axis_box((+0.025, 0.0, 0.0), (0.025, 0.02, 0.02))
    tree = DecompTree([
        DecompNode(0, parent, np.arange(100), None, (1, 2)),
        DecompNode(1, left, np.arange(50), 0, ()),
        DecompNode(2, right, np.arange(50, 100), 0, ()),
    ])
    classes = helpers.constant_classes(
        tree, ShapeCategory.THREE_DIMENSIONAL_LARGE, GraspType.SPHERICAL)
    # all-large children: the fitting parent is not a leaf, so we descend
    assert select_nodes(tree, classes, gripper) == [1, 2]
    # one small child makes the parent graspable as a whole (and stops descent)
    classes[1] = (ShapeCategory.THREE_DIMENSIONAL_SMALL, GraspType.TWO_FINGERTIP,
                  np.ones(3))
    assert select_nodes(tree, classes, gripper) == [0]


def test_oversized_leaf_selects_nothing(gripper, sampling):
    """No node fits the 10 cm aperture: the pool has no rows, and a zero-row
    pool goes through the rays, the ranking and the run document."""
    tree = single_node_tree(helpers.axis_box((0, 0, 0), (0.09, 0.075, 0.05)))
    classes = helpers.constant_classes(
        tree, ShapeCategory.THREE_DIMENSIONAL_LARGE, GraspType.SPHERICAL)
    assert select_nodes(tree, classes, gripper) == []
    pool = generate_pool(tree, classes, helpers.free_masks(tree), gripper, sampling)
    assert pool.dtype == POOL_DTYPE and pool["position"].shape == (0, 3)
    assert finger_rays(pool, gripper).shape == (0, 2, 3)
    cloud = synth_shape("box", (0.2, 0.15, 0.1), 2000, seed=1)
    assert rank_pool(pool, cloud, gripper) == []
    doc = run_pipeline(cloud, RunConfig())
    assert (doc["pool"], doc["ranking"], doc["best_index"]) == ([], [], None)


def test_aperture_boundary_is_inclusive(gripper):
    at_limit = single_node_tree(helpers.axis_box((0, 0, 0), (0.06, 0.05, 0.03)))
    beyond = single_node_tree(helpers.axis_box((0, 0, 0), (0.06, 0.0501, 0.03)))
    classes = helpers.constant_classes(
        at_limit, ShapeCategory.THREE_DIMENSIONAL_LARGE, GraspType.SPHERICAL)
    assert select_nodes(at_limit, classes, gripper) == [0]
    assert select_nodes(beyond, classes, gripper) == []


# ===========================================================================
# Preshapes and angular grids
# ===========================================================================

def test_preshape_table():
    expected = {
        GraspType.CYLINDRICAL: (0.0, False),
        GraspType.SPHERICAL: (30.0, False),
        GraspType.THREE_FINGERTIP: (0.0, True),
        GraspType.TWO_FINGERTIP: (90.0, True),
    }
    assert GRASP_PRESHAPE == expected
    for grasp_type, (spread, tips) in expected.items():
        spread_got, tips_got = GRASP_PRESHAPE[grasp_type]
        assert spread_got == spread
        assert tips_got is tips


def test_direction_table_row_counts():
    """A ring holds the angles k * angular_step below 360 degrees, and a
    lat-lon grid each pole once and a ring per inner theta: 12 and 62 rows
    at 30 degrees.  A step that does not divide the span floors: at 50
    degrees, 7 ring angles, and thetas 0-150 with no south pole, 22 rows."""
    for step, ring_angles, thetas, rows in ((30.0, 12, 7, 62), (50.0, 7, 4, 22)):
        sampling = SamplingParams(angular_step=step)
        ring, _ = _direction_table(GraspType.THREE_FINGERTIP, None, sampling)
        assert np.allclose(np.degrees(np.arctan2(ring[:, 1], ring[:, 0])) % 360.0,
                           np.arange(ring_angles) * step)
        grid, _ = _direction_table(GraspType.SPHERICAL, None, sampling)
        assert len(grid) == rows
        assert np.allclose(np.unique(np.round(np.degrees(np.arccos(grid[:, 2])), 6)),
                           np.arange(thetas) * step)


def test_direction_table_at_its_row_bound():
    """The bound checks the count the table is built from: a ThreeFingertip
    table at 360 / _MAX_DIRECTIONS degrees holds exactly _MAX_DIRECTIONS
    rows, and one direction more raises PreGraspError."""
    at = SamplingParams(angular_step=360.0 / _MAX_DIRECTIONS)
    assert len(_direction_table(GraspType.THREE_FINGERTIP, None, at)[0]) == 1_200_002
    over = SamplingParams(angular_step=360.0 / (_MAX_DIRECTIONS + 1))
    with pytest.raises(PreGraspError, match="^a ThreeFingertip node needs 1,200,003 directions"):
        _direction_table(GraspType.THREE_FINGERTIP, None, over)


# ===========================================================================
# Spherical sampler
# ===========================================================================

def test_sphere_sample_count_matches_grid_oracle(gripper, free_mask):
    node = leaf_node(helpers.axis_box((0, 0, 0), (0.1, 0.1, 0.05)))
    assert len(sample_node(node, free_mask, gripper, SamplingParams(),
                           GraspType.SPHERICAL)) \
        == oracles.sphere_grid_count(30.0) == 62
    assert len(sample_node(node, free_mask, gripper,
                           SamplingParams(angular_step=45.0), GraspType.SPHERICAL)) \
        == oracles.sphere_grid_count(45.0) == 26


def test_direction_table_beyond_its_row_bound_is_an_error(gripper, free_mask):
    """At a 0.001 degree step a Spherical node's lat-lon table would hold
    64,799,640,002 directions (a 483 GiB array), and the rings of a 0.2 m
    Cylindrical node at a 5 mm axial_step 14,760,002: sampling either raises
    PreGraspError, counted before any array is built."""
    fine = SamplingParams(angular_step=0.001, axial_step=0.005)
    node = leaf_node(helpers.axis_box((0, 0, 0), (0.1, 0.1, 0.05)))
    with pytest.raises(PreGraspError, match="^a Spherical node needs 64,799,640,002 directions "
                                            "at angular_step 0.001 degrees"):
        sample_node(node, free_mask, gripper, fine, GraspType.SPHERICAL)
    rod = leaf_node(helpers.axis_box((0, 0, 0), (0.08, 0.01, 0.01)))
    with pytest.raises(PreGraspError, match="^a Cylindrical node of length 0.2 m at axial_step "
                                            "0.005 m needs 14,760,002 directions"):
        sample_node(rod, free_mask, gripper, fine, GraspType.CYLINDRICAL)


def test_sphere_sample_geometry(gripper, sampling, free_mask):
    box = helpers.axis_box((0.02, -0.01, 0.03), (0.05, 0.04, 0.03))
    node = leaf_node(box, nid=4)
    radius = float(np.linalg.norm(box.half_extents)) + gripper.standoff
    for pg in sample_node(node, free_mask, gripper, sampling, GraspType.SPHERICAL):
        position, approach, closing = oracles.row_vectors(pg)
        assert helpers.grasp_type_of(pg) == GraspType.SPHERICAL
        assert pg["source_node"] == 4
        assert np.isclose(np.linalg.norm(position - box.center), radius)
        assert np.isclose(np.linalg.norm(approach), 1.0)
        assert np.isclose(np.linalg.norm(closing), 1.0)
        assert abs(approach @ closing) < 1e-9
        # the approach ray points back through the box center
        assert helpers.ray_hits_box(box, position, approach)


def test_two_fingertip_reuses_sphere_surface(gripper, sampling, free_mask):
    node = leaf_node(helpers.axis_box((0, 0, 0), (0.015, 0.015, 0.015)))
    got = sample_node(node, free_mask, gripper, sampling, GraspType.TWO_FINGERTIP)
    assert len(got) == 62
    assert all(helpers.grasp_type_of(pg) == GraspType.TWO_FINGERTIP for pg in got)
    assert all(entry["spread_angle"] == 90.0 and entry["fingertip_mode"] is True
               for entry in _pool_section(got))


def test_sphere_blocked_face_drops_its_directions(gripper, sampling):
    """Blocking +W removes a direction iff its sub-face goes non-free: the 17
    directions on +W itself plus 8 more on the neighboring faces' edge cells
    that the 3x3 propagation rules blank (62 -> 37)."""
    box = helpers.axis_box((0, 0, 0), (0.05, 0.04, 0.03))
    node = leaf_node(box)
    free = sample_node(node, [False] * 6, gripper, sampling,
                       GraspType.SPHERICAL)
    mask = [False] * 4 + [True, False]
    blocked = sample_node(node, mask, gripper, sampling, GraspType.SPHERICAL)
    new_free = helpers.free_subfaces(mask, GraspType.SPHERICAL, box)
    kept = {tuple(np.round(pg["position"], 12)) for pg in blocked}
    for pg in free:
        still_free = helpers.source_subface(pg) in new_free
        assert (tuple(np.round(pg["position"], 12)) in kept) == still_free
    assert len(free) == 62 and len(blocked) == 37
    assert all(pg["source_face"] != int(FaceId.PLUS_W) for pg in blocked)


# ===========================================================================
# Cylindrical sampler
# ===========================================================================

def test_cylinder_rows_times_angles_plus_caps(gripper, sampling, free_mask):
    """Box half (0.02, 0.01, 0.01): the enclosing cylinder is 0.08 m long, so
    5 stations are laid out but only the 3 with |z| <= 0.02 project onto the
    lateral faces -> 3 rows x 12 angles + 2 caps."""
    box = helpers.axis_box((0, 0, 0), (0.02, 0.01, 0.01))
    got = sample_node(leaf_node(box), free_mask, gripper, sampling,
                      GraspType.CYLINDRICAL)
    cap_faces = (int(FaceId.PLUS_U), int(FaceId.MINUS_U))
    caps = [pg for pg in got if pg["source_face"] in cap_faces]
    lateral = [pg for pg in got if pg["source_face"] not in cap_faces]
    assert oracles.cylinder_lateral_station_count(0.08, sampling.axial_step) == 5
    assert len(caps) == 2
    assert len(lateral) == 3 * 12
    assert len(got) == 38
    axial = sorted({round(float((pg["position"] - box.center) @ box.axis(0)), 9)
                    for pg in lateral})
    assert axial == [-0.02, 0.0, 0.02]


def test_cylinder_cap_block_propagates_to_end_strips(gripper, sampling):
    """Blocking the +U cap also blocks the +U end strip of every lateral face
    (a finger can't wrap there), so the whole z = +hu station row disappears
    along with the cap sample: 38 - 1 - 12 = 25."""
    box = helpers.axis_box((0, 0, 0), (0.02, 0.01, 0.01))
    mask = [True, False, False, False, False, False]
    got = sample_node(leaf_node(box), mask, gripper, sampling, GraspType.CYLINDRICAL)
    assert len(got) == 25
    assert all(pg["source_face"] != int(FaceId.PLUS_U) for pg in got)
    axial = sorted({round(float((pg["position"] - box.center) @ box.axis(0)), 9)
                    for pg in got if pg["source_face"] >= 2})
    assert axial == [-0.02, 0.0]


def test_cylinder_blocked_lateral_face(gripper, sampling):
    """Blocking +V removes its 3 angular positions at every station (9 of the
    36 lateral samples) and leaves both caps."""
    box = helpers.axis_box((0, 0, 0), (0.02, 0.01, 0.01))
    mask = [False, False, True, False, False, False]
    got = sample_node(leaf_node(box), mask, gripper, sampling, GraspType.CYLINDRICAL)
    assert len(got) == 29
    assert all(pg["source_face"] != int(FaceId.PLUS_V) for pg in got)


def test_cylinder_sample_geometry(gripper, sampling, free_mask):
    box = helpers.axis_box((0.01, 0.02, -0.01), (0.03, 0.012, 0.008))
    node = leaf_node(box, nid=2)
    lat_r = float(np.hypot(0.012, 0.008)) + gripper.standoff
    half_len = 0.03 + gripper.standoff
    for pg in sample_node(node, free_mask, gripper, sampling, GraspType.CYLINDRICAL):
        position, approach, closing = oracles.row_vectors(pg)
        rel = position - box.center
        axial = float(rel @ box.axis(0))
        radial = rel - axial * box.axis(0)
        if pg["source_face"] in (int(FaceId.PLUS_U), int(FaceId.MINUS_U)):
            assert np.isclose(abs(axial), half_len)
            assert np.linalg.norm(radial) < 1e-12
            assert np.allclose(approach, -np.sign(axial) * box.axis(0))
        else:
            assert abs(axial) <= 0.03 + 1e-12
            assert np.isclose(np.linalg.norm(radial), lat_r)
            # approach is the inward radial: opposite the radial offset
            assert np.allclose(approach, -radial / np.linalg.norm(radial))
        assert abs(approach @ closing) < 1e-9
        assert np.isclose(np.linalg.norm(closing), 1.0)
        assert helpers.ray_hits_box(box, position, approach)
        assert helpers.grasp_type_of(pg) == GraspType.CYLINDRICAL


# ===========================================================================
# Circle sampler
# ===========================================================================

def test_circle_counts_and_blocking(gripper, sampling, free_mask):
    plate = leaf_node(helpers.axis_box((0, 0, 0), (0.05, 0.04, 0.0025)))
    got = sample_node(plate, free_mask, gripper, sampling, GraspType.THREE_FINGERTIP)
    assert len(got) == oracles.circle_grid_count(30.0) == 12
    # blocking +U drops the three angles binned to it (330, 0, 30 degrees)
    mask = [True, False, False, False, False, False]
    kept = sample_node(plate, mask, gripper, sampling, GraspType.THREE_FINGERTIP)
    assert len(kept) == 9
    assert {helpers.source_subface(pg) for pg in kept} == {(1, 0), (2, 0), (3, 0)}


def test_circle_sample_geometry(gripper, sampling, free_mask):
    box = helpers.axis_box((-0.02, 0.01, 0.04), (0.05, 0.04, 0.0025))
    node = leaf_node(box, nid=6)
    radius = float(np.hypot(0.05, 0.04)) + gripper.standoff
    got = sample_node(node, free_mask, gripper, sampling, GraspType.THREE_FINGERTIP)
    for pg in got:
        position, approach, closing = oracles.row_vectors(pg)
        rel = position - box.center
        assert abs(float(rel @ box.axis(2))) < 1e-12   # in the big-face plane
        assert np.isclose(np.linalg.norm(rel), radius)
        assert np.allclose(closing, box.axis(2))  # across the thin side
        assert abs(approach @ closing) < 1e-12
        assert helpers.ray_hits_box(box, position, approach)
        assert helpers.grasp_type_of(pg) == GraspType.THREE_FINGERTIP
    assert all(entry["fingertip_mode"] is True for entry in _pool_section(got))


# ===========================================================================
# Free-sub-face consistency (exhaustive over face-state combinations)
# ===========================================================================

@pytest.mark.parametrize("grasp_type", [
    GraspType.SPHERICAL, GraspType.CYLINDRICAL, GraspType.THREE_FINGERTIP])
def test_samples_only_on_free_subfaces(grasp_type, gripper, sampling):
    """For all 64 face-state combinations every emitted sample keys a free
    sub-face, its ray hits the box, and blocking more faces never adds
    samples."""
    box = helpers.axis_box((0, 0, 0), (0.04, 0.025, 0.015))
    node = leaf_node(box)
    counts = {}
    for combo in itertools.product((False, True), repeat=6):
        mask = list(combo)
        got = sample_node(node, mask, gripper, sampling, grasp_type)
        counts[combo] = len(got)
        free = helpers.free_subfaces(mask, grasp_type, box)
        for pg in got:
            assert helpers.source_subface(pg) in free
            assert helpers.ray_hits_box(box, pg["position"], pg["approach"])
    assert counts[(False,) * 6] > 0
    assert counts[(True,) * 6] == 0
    for combo, count in counts.items():
        for k in range(6):
            if not combo[k]:
                more = combo[:k] + (True,) + combo[k + 1:]
                assert counts[more] <= count


# ===========================================================================
# Single sampling loop vs the per-surface reference samplers
# ===========================================================================

REFERENCE_BOXES = {
    "criterion_6": helpers.axis_box((0, 0, 0), (0.04, 0.025, 0.015)),
    "thin_plate": helpers.axis_box((0.01, -0.02, 0.03), (0.05, 0.04, 0.0025)),
    "rotated": OrientedBox(np.array([0.1, 0.2, -0.05]),
                           oracles.rotation_from_quaternion(np.array([0.9, 0.1, -0.3, 0.2])),
                           np.array([0.03, 0.02, 0.01])),
}


@pytest.mark.bitexact
@pytest.mark.parametrize("box_name", sorted(REFERENCE_BOXES))
def test_sample_node_matches_reference_samplers(box_name, gripper, sampling):
    """Pool documents are byte-identical to the per-surface reference for all
    64 face masks and every grasp type (the JSON text also tells 0.0 from
    -0.0), and for a coarse grid with zero standoff on a few masks."""
    node = leaf_node(REFERENCE_BOXES[box_name], nid=3)
    coarse = SamplingParams(angular_step=45.0, axial_step=0.013)
    flush = GripperConfig(standoff=0.0)
    cases = [(list(combo), gripper, sampling)
             for combo in itertools.product((0, 1), repeat=6)]
    cases += [(combo, flush, coarse) for combo in
              ([0] * 6, [1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1], [0, 1, 0, 1, 1, 0])]
    emitted = 0
    for combo, grip, samp in cases:
        mask = combo
        for grasp_type in GraspType:
            got = _pool_section(sample_node(node, mask, grip, samp, grasp_type))
            want = _pool_section(oracles.reference_samples(node, mask, grip, samp,
                                                           grasp_type))
            assert json.dumps(got) == json.dumps(want), (combo, grasp_type)
            emitted += len(got)
    assert emitted > 0


ARRAY_PASS_BOXES = {
    "criterion_6": REFERENCE_BOXES["criterion_6"],
    "rotated": REFERENCE_BOXES["rotated"],
    # tied extents: rays through edges and corners tie between exit faces
    "cube": helpers.axis_box((0.01, 0.02, -0.03), (0.03, 0.03, 0.03)),
    "rotated_cube": OrientedBox(np.array([-0.2, 0.1, 0.4]),
                                oracles.rotation_from_quaternion(np.array([0.3, 0.5, -0.3, 0.2])),
                                np.array([0.02, 0.02, 0.02])),
    # a column-major rotation, as a transposed eigenvector matrix would be
    "fortran_rotation": OrientedBox(
        np.array([0.1, -0.1, 0.05]),
        np.asfortranarray(oracles.rotation_from_quaternion(np.array([0.3, 0.5, -0.3, 0.7]))),
        np.array([0.05, 0.02, 0.015])),
}

# all free, each face blocked alone, and pairs of adjacent faces blocked
ARRAY_PASS_MASKS = ([[0] * 6] + [[int(f == k) for f in range(6)] for k in range(6)]
                    + [[1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 0, 1]])


@pytest.mark.bitexact
@pytest.mark.parametrize("box_name", sorted(ARRAY_PASS_BOXES))
@pytest.mark.parametrize("angular_step,axial_step", [(7.0, 0.013), (10.0, 0.005),
                                                     (45.0, 0.01), (180.0, 0.02)])
def test_sample_node_matches_reference_bytes(box_name, angular_step, axial_step):
    """The per-node array pass gives the bytes of the one-direction-at-a-time
    loop: positions, approaches, closing directions and (face, cell) order,
    for every grasp type (cylinder caps included), on masks with no face,
    one face and two adjacent faces blocked, at steps that do and do not
    divide 180 and 360."""
    node = leaf_node(ARRAY_PASS_BOXES[box_name], nid=5)
    sampling = SamplingParams(angular_step, axial_step)
    emitted = set()
    for combo in ARRAY_PASS_MASKS:
        mask = combo
        for grasp_type, gripper in itertools.product(
                GraspType, (GripperConfig(), GripperConfig(standoff=0.0))):
            got = sample_node(node, mask, gripper, sampling, grasp_type)
            want = oracles.reference_sample_node(node, mask, gripper, sampling, grasp_type)
            assert [helpers.source_subface(pg) for pg in got] == \
                [helpers.source_subface(pg) for pg in want]
            for field in ("position", "approach", "closing_dir"):
                assert [pg[field].tobytes() for pg in got] == \
                    [pg[field].tobytes() for pg in want], (combo, grasp_type, field)
            assert all(helpers.grasp_type_of(pg) == grasp_type and pg["source_node"] == 5
                       for pg in got)
            emitted.update((grasp_type, int(pg["source_face"])) for pg in got)
    # every grasp type kept samples, on the caps too
    assert {gt for gt, _ in emitted} == set(GraspType)
    assert {(GraspType.CYLINDRICAL, int(f)) for f in (FaceId.PLUS_U, FaceId.MINUS_U)} <= emitted


# ===========================================================================
# Pool assembly on real pipeline fixtures
# ===========================================================================

@pytest.mark.parametrize("tree_fx,cloud_fx", [
    ("sphere_tree", "sphere_cloud"),
    ("lshape_tree", "lshape_cloud"),
    ("dumbbell_tree", "dumbbell_cloud"),
])
def test_pool_is_valid_on_fixtures(tree_fx, cloud_fx, gripper, sampling, request):
    tree = request.getfixturevalue(tree_fx)
    cloud = request.getfixturevalue(cloud_fx)
    classes = helpers.classes_for(tree, cloud)
    masks = compute_face_states(tree, gripper.finger_length)
    pool = generate_pool(tree, classes, masks, gripper, sampling)
    assert len(pool), f"{tree_fx} produced an empty pool"
    selected = set(select_nodes(tree, classes, gripper))
    for pg in pool:
        position, approach, closing = oracles.row_vectors(pg)
        assert pg["source_node"] in selected
        assert helpers.grasp_type_of(pg) == classes[pg["source_node"]][1]
        assert helpers.subface_is_free(tree, classes, masks, pg)
        box = tree.node(pg["source_node"]).box
        assert helpers.ray_hits_box(box, position, approach)
        assert np.isclose(np.linalg.norm(approach), 1.0)
        assert np.isclose(np.linalg.norm(closing), 1.0)
        assert abs(approach @ closing) < 1e-9


def test_pool_ordering_and_determinism(dumbbell_tree, dumbbell_cloud,
                                       gripper, sampling):
    classes = helpers.classes_for(dumbbell_tree, dumbbell_cloud)
    masks = compute_face_states(dumbbell_tree, gripper.finger_length)
    pool = generate_pool(dumbbell_tree, classes, masks, gripper, sampling)
    keys = [(int(pg["source_node"]),) + helpers.source_subface(pg) for pg in pool]
    assert keys == sorted(keys)
    again = generate_pool(dumbbell_tree, classes, masks, gripper, sampling)
    assert len(again) == len(pool)
    for a, b in zip(pool, again):
        assert a["source_node"] == b["source_node"]
        assert helpers.source_subface(a) == helpers.source_subface(b)
        assert np.array_equal(a["position"], b["position"])
        assert np.array_equal(a["approach"], b["approach"])
        assert np.array_equal(a["closing_dir"], b["closing_dir"])
