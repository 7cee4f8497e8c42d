"""Tests for contact estimation, wrench construction and epsilon ranking."""

import dataclasses
import functools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from pregrasp import graspeval
from pregrasp.classifier import GraspType
from pregrasp.decomposition import DecompNode, OrientedBox, decompose
from pregrasp.errors import ConfigError, DegenerateInput, EmptyWrenchSet, NoContacts
from pregrasp.facemask import compute_face_states
from pregrasp.geom import dot3, perpendicular_frames, unit_rows
from pregrasp.graspeval import (ContactIndex, epsilon_quality, estimate_contacts, finger_rays,
                                rank_pool, wrench_set)
from pregrasp.pipeline import RunConfig, _ranking_section
from pregrasp.pointcloud import SYNTH_KINDS, PointCloud, synth_shape
from pregrasp.sampler import (POOL_DTYPE, GripperConfig, SamplingParams,
                              generate_pool, sample_node)

MU = 0.5
EDGES = 8


def make_pregrasp(position, approach, closing, grasp_type):
    """A one-row pool."""
    return oracles.pool_of([(position, approach, closing, grasp_type, 0, (0, 0))])


def pool_rows(*pools):
    """The rows of one-row pools (or longer ones) as one pool."""
    return np.concatenate(pools) if pools else np.zeros(0, POOL_DTYPE)


def wrenches_of(contacts, mu, edges, centroid):
    """`wrench_set` of one grasp's (k, 2, 3) contacts."""
    return wrench_set(contacts[None, :, 0], contacts[None, :, 1], mu, edges, centroid)[0]


def antipodal_contacts(r=0.04):
    """Two ideal contacts facing each other across the origin."""
    return np.array([
        [[+r, 0.0, 0.0], [-1.0, 0.0, 0.0]],
        [[-r, 0.0, 0.0], [+1.0, 0.0, 0.0]],
    ])


def icosahedral_cage(rotation=np.eye(3), r=0.04):
    """12 contacts at icosahedron vertices, normals inward: a strong cage
    whose quality is far from zero (rotation-invariance fixture)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = np.asarray(verts)
    verts = r * verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return np.array([(rotation @ v, rotation @ (-v / np.linalg.norm(v))) for v in verts])


def cross_polytope_wrenches():
    """Wrench set whose hull is the unit 6-D cross-polytope (inradius
    1/sqrt(6), attained on the all-ones diagonals)."""
    return np.vstack([np.eye(6), -np.eye(6)])


# ===========================================================================
# Finger rays
# ===========================================================================

def test_finger_rays_cylindrical_canonical(gripper):
    pg = make_pregrasp((0, 0, 0), (1, 0, 0), (0, 0, 1), GraspType.CYLINDRICAL)
    rays = finger_rays(pg, gripper)
    assert len(rays) == 3
    thumb_o, thumb_d = rays[0]
    assert np.allclose(thumb_o, (0.08, 0.0, 0.05))    # fingertip plane, +closing
    assert np.allclose(thumb_d, (0.0, 0.0, -1.0))
    for origin, direction in rays[1:]:                # zero spread: coincident pair
        assert np.allclose(origin, (0.08, 0.0, -0.05))
        assert np.allclose(direction, (0.0, 0.0, 1.0))


def test_finger_rays_spherical_spread(gripper):
    pg = make_pregrasp((0, 0, 0), (1, 0, 0), (0, 0, 1), GraspType.SPHERICAL)
    rays = finger_rays(pg, gripper)
    assert len(rays) == 3
    c30, s30 = np.cos(np.radians(30.0)), np.sin(np.radians(30.0))
    assert np.allclose(rays[1][0], (0.08, 0.05 * s30, -0.05 * c30))
    assert np.allclose(rays[1][1], (0.0, -s30, c30))
    assert np.allclose(rays[2][0], (0.08, -0.05 * s30, -0.05 * c30))
    assert np.allclose(rays[2][1], (0.0, s30, c30))
    # spread pair is mirror-symmetric about the closing plane
    for (o1, d1), (o2, d2) in [(rays[1], rays[2])]:
        flip = np.array([1.0, -1.0, 1.0])
        assert np.allclose(o1 * flip, o2) and np.allclose(d1 * flip, d2)


def test_finger_rays_two_fingertip_drops_thumb(gripper):
    pg = make_pregrasp((0, 0, 0), (1, 0, 0), (0, 0, 1), GraspType.TWO_FINGERTIP)
    rays = finger_rays(pg, gripper)
    assert len(rays) == 2                              # no thumb
    assert np.allclose(rays[0][0], (0.08, 0.05, 0.0))  # 90 deg spread: across y
    assert np.allclose(rays[0][1], (0.0, -1.0, 0.0))
    assert np.allclose(rays[1][0], (0.08, -0.05, 0.0))
    assert np.allclose(rays[1][1], (0.0, 1.0, 0.0))


def test_finger_ray_origins_lie_in_fingertip_plane(gripper):
    pg = make_pregrasp((0.02, -0.01, 0.3), (0, -1, 0), (1, 0, 0),
                       GraspType.SPHERICAL)
    position, approach, _ = oracles.row_vectors(pg[0])
    tip = position + approach * gripper.finger_length
    for origin, direction in finger_rays(pg, gripper):
        assert abs((origin - tip) @ approach) < 1e-12
        assert abs(direction @ approach) < 1e-12
        assert np.isclose(np.linalg.norm(origin - tip), gripper.max_aperture / 2)


def mixed_pool():
    """Pre-grasps of all four grasp types sampled on a rotated box, shuffled so
    that the types interleave."""
    box = OrientedBox(np.array([0.1, -0.2, 0.3]),
                      oracles.rotation_from_quaternion(np.array([0.9, 0.1, -0.3, 0.2])),
                      np.array([0.04, 0.025, 0.015]))
    node = DecompNode(0, box, np.arange(10), None, ())
    pool = pool_rows(*(sample_node(node, np.zeros(6, dtype=int), GripperConfig(), SamplingParams(), gt)
                       for gt in GraspType))
    return pool[np.random.default_rng(4).permutation(len(pool))]


@pytest.mark.bitexact
def test_finger_rays_match_reference_bytes(gripper):
    """The stacked build gives each pre-grasp's rays the bytes of building
    them one pre-grasp at a time, over a pool that mixes the grasp types,
    with an empty sequence giving no rays."""
    pool = pool_rows(mixed_pool(), sphere_pool(), edge_pool())
    got = finger_rays(pool, gripper)
    want = [ray for pg in pool for ray in oracles.reference_finger_rays(pg, gripper)]
    assert got.shape == (len(want), 2, 3)
    assert [row[0].tobytes() for row in got] == [o.tobytes() for o, _ in want]
    assert [row[1].tobytes() for row in got] == [d.tobytes() for _, d in want]
    assert finger_rays(pool_rows(), gripper).shape == (0, 2, 3)


# ===========================================================================
# Contact estimation
# ===========================================================================

def test_pinch_contacts_match_ray_oracle(small_sphere_cloud, gripper):
    """Centered pinch on the 0.04 m sphere: the paired fingers close along
    -/+y through the center plane and each first contact agrees with the
    brute-force ray-tube reference."""
    pg = make_pregrasp((0.08, 0, 0), (-1, 0, 0), (0, 0, 1),
                       GraspType.TWO_FINGERTIP)
    contacts = estimate_contacts(pg, small_sphere_cloud, gripper)
    assert len(contacts) == 2
    for (origin, direction), (position, _) in zip(finger_rays(pg, gripper), contacts):
        idx = oracles.first_contact_reference(
            small_sphere_cloud.points, origin, direction, 0.005)
        assert idx is not None
        assert np.allclose(small_sphere_cloud.points[idx], position)
    assert np.isclose(contacts[0, 0, 1], -0.04, atol=2e-3)
    assert np.isclose(contacts[1, 0, 1], +0.04, atol=2e-3)
    for position, normal in contacts:
        assert np.isclose(np.linalg.norm(normal), 1.0)
        # normals face the interior (toward the centroid)
        inward = small_sphere_cloud.centroid - position
        assert normal @ inward > 0.0


def test_no_contacts_raises(small_sphere_cloud, gripper):
    pg = make_pregrasp((1.0, 1.0, 1.0), (1, 0, 0), (0, 0, 1),
                       GraspType.SPHERICAL)
    with pytest.raises(NoContacts):
        estimate_contacts(pg, small_sphere_cloud, gripper)


def test_misses_contribute_no_contact(gripper):
    """A cloud hugging only the thumb ray yields exactly one contact (the
    30-degree spread rays pass 2 cm away from the blob)."""
    rng = np.random.default_rng(11)
    blob = np.array([0.08, 0.0, 0.04]) + 0.001 * rng.standard_normal((200, 3))
    cloud = synth_shape("box", (0.01, 0.01, 0.01), 10, seed=0)
    cloud.points = blob  # reuse the container, replace the geometry
    pg = make_pregrasp((0, 0, 0), (1, 0, 0), (0, 0, 1), GraspType.SPHERICAL)
    contacts = estimate_contacts(pg, cloud, gripper)
    assert len(contacts) == 1


def planned_pool(cloud, gripper, tree=None):
    """The pre-grasp pool the pipeline samples for `cloud` (default sampling)."""
    cfg = RunConfig()
    tree = tree or decompose(cloud, cfg.decomposition)
    return generate_pool(tree, helpers.classes_for(tree, cloud, cfg.thresholds),
                         compute_face_states(tree, gripper.finger_length),
                         gripper, SamplingParams())


def assert_contacts_match_reference(pool, cloud, gripper):
    """Contacts equal the full scan's, bytes and all, both from
    `estimate_contacts` with one shared index and from the batched search
    `rank_pool` makes for each slice of the pool (graded on one quality
    direction, for speed).  Returns how many candidates touched the cloud
    and how many missed."""
    index = ContactIndex(cloud, gripper.tube_radius)
    with mock.patch.object(graspeval, "QUALITY_DIRS", 1):
        ranked = rank_pool(pool, cloud, gripper)
    batched = {c.pool_index: c.contacts for c in ranked}
    touched = missed = 0
    for i, pg in enumerate(pool):
        try:
            ref = oracles.reference_contacts(pg, cloud, gripper)
        except NoContacts:
            with pytest.raises(NoContacts):
                estimate_contacts(pool[i:i + 1], cloud, gripper, index=index)
            assert batched[i].shape == (0, 2, 3)
            missed += 1
            continue
        for got in (estimate_contacts(pool[i:i + 1], cloud, gripper, index=index),
                    batched[i]):
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert g[0].tobytes() == r[0].tobytes()
                assert g[1].tobytes() == r[1].tobytes()
        touched += 1
    return touched, missed


@pytest.mark.bitexact
@pytest.mark.parametrize("fixture", ["small_sphere_cloud", "sphere_cloud",
                                     "lshape_cloud", "dumbbell_cloud"])
def test_contacts_match_reference_on_fixtures(fixture, request, gripper):
    cloud = request.getfixturevalue(fixture)
    pool = planned_pool(cloud, gripper)
    touched, _ = assert_contacts_match_reference(pool, cloud, gripper)
    assert touched > 0


SHAPES_10K = [("box", (0.2, 0.15, 0.1)), ("sphere", (0.05,)), ("cylinder", (0.03, 0.2)),
              ("plate", (0.2, 0.15, 0.01)), ("dumbbell", (0.2, 0.08, 0.03, 0.015)),
              ("lshape", (0.2, 0.15, 0.04))]


@pytest.mark.bitexact
@pytest.mark.parametrize("kind,dims", SHAPES_10K)
def test_contacts_match_reference_on_10k_shapes(kind, dims):
    """A wide aperture so that the box and the plate get a pool too."""
    gripper = GripperConfig(max_aperture=0.25)
    cloud = synth_shape(kind, dims, 10000, seed=1)
    pool = planned_pool(cloud, gripper)
    touched, _ = assert_contacts_match_reference(pool, cloud, gripper)
    assert touched > 0


def exact_gripper():
    """Finger length and half aperture 1/16 m, so that the finger rays of an
    axis-aligned pre-grasp at the origin have dyadic origins; tube radius
    1/128 m."""
    return GripperConfig(finger_length=0.0625, max_aperture=0.125, tube_radius=2.0 ** -7)


def axis_pregrasp():
    """Cylindrical pre-grasp at the origin approaching along +x, closing
    along z: its thumb ray starts at (1/16, 0, 1/16) along -z, and its two
    paired rays are one ray, from (1/16, 0, -1/16) along +z."""
    return make_pregrasp((0, 0, 0), (1, 0, 0), (0, 0, 1), GraspType.CYLINDRICAL)


def edge_pool():
    """Rays along -z and +z (zero direction components in the slab test),
    then a miss."""
    return pool_rows(make_pregrasp((-0.1, 0, 0), (1, 0, 0), (0, 0, 1), GraspType.CYLINDRICAL),
                     make_pregrasp((0, -0.1, 0), (0, 1, 0), (1, 0, 0), GraspType.SPHERICAL),
                     make_pregrasp((1.0, 1.0, 1.0), (1, 0, 0), (0, 0, 1), GraspType.SPHERICAL))


def inner_pool():
    """A narrow gripper and two pre-grasps whose finger origins lie inside
    the 5 cm sphere's box (and inside the sphere)."""
    return GripperConfig(max_aperture=0.04), pool_rows(
        make_pregrasp((-0.08, 0, 0), (1, 0, 0), (0, 0, 1), GraspType.SPHERICAL),
        make_pregrasp((0, 0, -0.07), (0, 0, 1), (0, 1, 0), GraspType.CYLINDRICAL))


@pytest.mark.bitexact
def test_contacts_match_reference_on_edge_rays(sphere_cloud, sphere_tree, gripper):
    pool = planned_pool(sphere_cloud, gripper, sphere_tree)
    touched, missed = assert_contacts_match_reference(
        pool_rows(pool, edge_pool()), sphere_cloud, gripper)
    assert touched >= len(pool) and missed == 1
    inside, inner = inner_pool()
    for origin, _ in finger_rays(inner[:1], inside):
        assert (np.abs(origin) < 0.05).all()     # the sphere's radius
    touched, _ = assert_contacts_match_reference(inner, sphere_cloud, inside)
    assert touched == 2
    # a tube wider than the cloud
    wide = dataclasses.replace(gripper, tube_radius=0.5)
    touched, _ = assert_contacts_match_reference(pool, sphere_cloud, wide)
    assert touched == len(pool)


def outlier_and_far_cases(cloud, pool):
    """(pool, cloud) with a 1e4 m outlier added to `cloud`, and with `cloud`
    and `pool` moved near 1e6 m."""
    outlier = PointCloud(np.vstack([cloud.points, [1e4, 1e4, 1e4]]))
    shift = np.array([1e6, -1e6, 1e6])
    far_pool = pool.copy()
    far_pool["position"] += shift
    return [(pool, outlier), (far_pool, PointCloud(cloud.points + shift))]


@pytest.mark.bitexact
def test_contacts_match_reference_far_and_large_coordinates(sphere_cloud, sphere_tree,
                                                            gripper):
    """A 1e4 m outlier, which sends the rays heading its way through the
    every-point fallback, and coordinates near 1e6 m: cells are keyed sparsely, so
    neither builds a grid spanning the cloud box nor overflows a key."""
    pool = planned_pool(sphere_cloud, gripper, sphere_tree)
    for case_pool, cloud in outlier_and_far_cases(sphere_cloud, pool):
        touched, _ = assert_contacts_match_reference(case_pool, cloud, gripper)
        assert touched > 0
    rays = finger_rays(pool, gripper)
    _, count = ContactIndex(outlier_and_far_cases(sphere_cloud, pool)[0][1], 0.005)._spans(
        rays[:, 0], rays[:, 1])
    assert (count == -1).any() and (count > 0).any()


def far_outlier_cloud(distance):
    """The default dumbbell (3000 points, seed 1) and one point `distance` m
    along +x."""
    cloud = synth_shape("dumbbell", tuple(SYNTH_KINDS["dumbbell"].values()), 3000, seed=1)
    return PointCloud(np.vstack([cloud.points, [distance, 0.0, 0.0]]))


def test_contact_index_rejects_a_point_2_62_cells_from_the_corner():
    """A point 1e17 m away lies 1e19 cells of 1 cm out, past int64's cell
    coordinates: the index names the distance and the cell side."""
    with pytest.raises(DegenerateInput, match=r"lies 1e\+17 .* cells of side 0\.01$"):
        ContactIndex(far_outlier_cloud(1e17), 0.005)


@pytest.mark.bitexact
def test_contact_index_keys_a_point_1e18_cells_from_the_corner():
    """A point 1e16 m away, 1e18 cells out, is keyed: rays aimed at the
    object from around it get a scan of every point's contacts."""
    cloud = far_outlier_cloud(1e16)
    rng = np.random.default_rng(2)
    origins = 0.3 * unit_rows(rng.normal(size=(40, 3)))
    directions = unit_rows(0.02 * rng.normal(size=(40, 3)) - origins)
    hits = first_hits_match_reference(cloud, origins, directions, 0.005)
    assert (hits >= 0).sum() > 20

def far_points(n=1000):
    """n points at least 3 cm from the rays of `axis_pregrasp`: enough
    points for the index to be used instead of a scan of every point."""
    rng = np.random.default_rng(0)
    return np.column_stack([0.05 + 0.02 * rng.random(n), 0.03 + 0.02 * rng.random(n),
                            0.03 * rng.random(n)])


def tie_cloud():
    """Points 0 and 1 lie at equal t on both rays of `axis_pregrasp`, 1/512 m
    either side of the rays' line, in two cells (of a 1/128 m tube's index)
    ordered opposite to their indices; point 2 only fixes the cloud corner
    that puts the cell boundary between them."""
    q = 1.0 / 16
    return PointCloud(np.vstack([[[q + 2.0 ** -9, 0.0, 0.0],
                                  [q - 2.0 ** -9, 0.0, 0.0],
                                  [q - 2.0 ** -6, 0.0, 1.0 / 32]], far_points()]))


def boundary_cloud():
    """Point 0 lies exactly 1/128 m from the thumb ray of `axis_pregrasp`,
    with perp2 == tube_r**2 in floating point, and before point 1 along it."""
    q, r = 1.0 / 16, 2.0 ** -7
    return PointCloud(np.vstack([[[q + r, 0.0, 1.0 / 32], [q, 0.0, 0.0]], far_points()]))


@pytest.mark.bitexact
def test_contact_ties_go_to_the_lowest_index():
    """The equal-t points of `tie_cloud` lie in cells ordered opposite to
    their indices, and the lower index wins."""
    gripper = exact_gripper()
    cloud = tie_cloud()
    index = ContactIndex(cloud, 2.0 ** -7)
    order = list(index.order)
    assert order.index(1) < order.index(0)
    pg = axis_pregrasp()
    contacts = estimate_contacts(pg, cloud, gripper, index=index)
    assert [c[0].tobytes() for c in contacts] == [cloud.points[0].tobytes()] * 3
    assert_contacts_match_reference(pg, cloud, gripper)


@pytest.mark.bitexact
def test_contact_on_the_tube_boundary_counts():
    """Point 0 lies exactly tube_r (1/128 m) from the thumb ray, with
    perp2 == tube_r**2 in floating point, and before point 1 along it."""
    gripper = exact_gripper()
    r = 2.0 ** -7
    cloud = boundary_cloud()
    rel = cloud.points[0] - finger_rays(axis_pregrasp(), gripper)[0][0]
    assert rel @ rel - rel[2] ** 2 == r * r
    contacts = estimate_contacts(axis_pregrasp(), cloud, gripper)
    assert contacts[0, 0].tobytes() == cloud.points[0].tobytes()
    assert_contacts_match_reference(axis_pregrasp(), cloud, gripper)


def lone_candidate_case():
    """A pre-grasp whose thumb ray has point 0 as its only candidate, its
    contact.  For this ray (found by a random search) a 1-row BLAS product
    rounds t so that the point falls outside the tube (x86-64 OpenBLAS); the
    tube test's pair products give a lone row the bits they give it in a
    scan of every point.  The 3000 other points, 15 cm away, make the cloud
    large enough for the index to be used."""
    pg = make_pregrasp([0.0004, 0.0732, -0.0951],
                       [-0.003386952230513614, -0.6097222946756489, 0.7926078803103396],
                       [-0.07027377756200023, 0.7907979857227814, 0.6080297212833911],
                       GraspType.CYLINDRICAL)
    hit = np.array([-0.004813389530020996, 0.023736792334463533, -0.03137114093809743])
    rng = np.random.default_rng(0)
    return pg, PointCloud(np.vstack([hit, hit + 0.15 + 0.01 * rng.random((3000, 3))]))


@pytest.mark.bitexact
def test_contact_single_candidate_keeps_scan_bits(gripper):
    pg, cloud = lone_candidate_case()
    assert_contacts_match_reference(pg, cloud, gripper)


# A ray off every axis and a point on its tube's boundary (found by a search
# of points a few ulps apart): with rel = point - origin and t = rel.d summed
# as pair products, rel.rel - t*t equals TUBE_EDGE_R**2 (25 * 2**-20, exact)
# in floating point.
TUBE_EDGE_RAY = (np.array([-0.048, 0.068, 0.0019]),
                 np.array([0.07737382677803742, -0.8711252567305109, -0.4849268790404629]))
TUBE_EDGE_POINT = np.array([-0.03658049083001316, -0.006616947463912424, -0.03869552014963279])
TUBE_EDGE_R = 5.0 / 1024


def first_hits_match_reference(cloud, origins, directions, tube_r):
    """`first_hits` of the rays equals a scan of every point for each."""
    got = ContactIndex(cloud, tube_r).first_hits(origins, directions)
    ref = [oracles.reference_first_hit(cloud.points, o, d, tube_r) for o, d in
           zip(origins, directions)]
    assert got.tolist() == [-1 if i is None else i for i in ref]
    return got


@pytest.mark.bitexact
def test_point_on_the_tube_boundary_is_a_contact():
    """The tube is closed: its boundary point is the contact, and it drops
    out of a tube one ulp thinner."""
    origin, direction = TUBE_EDGE_RAY
    rel = TUBE_EDGE_POINT - origin
    t = dot3(rel, direction)
    assert dot3(rel, rel) - t * t == TUBE_EDGE_R ** 2
    cloud = PointCloud(np.vstack([TUBE_EDGE_POINT, 0.5 + 0.1 * far_points()]))
    for tube_r, hit in ((TUBE_EDGE_R, 0), (np.nextafter(TUBE_EDGE_R, 0.0), -1)):
        hits = first_hits_match_reference(cloud, origin[None], direction[None], tube_r)
        assert hits.tolist() == [hit]


# Ray directions for `tube_clouds`: three axes, on which every product of a
# dyadic offset is exact, and two off-axis ones.
_A = np.sqrt(0.5)
TUBE_DIRECTIONS = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                            [_A, _A, 0.0], [0.0, -_A, _A]])
_FAR = 0.5 + 0.1 * far_points()


@st.composite
def tube_clouds(draw):
    """(cloud, origins, directions, tube_r): 1-3 rays from dyadic origins
    and, per ray, points at dyadic t (some behind the origin) offset from its
    line by 0, 1/2, 1 or 3/2 tube radii along one of four perpendiculars,
    some of them repeated; then up to 20 points anywhere near the rays and
    the 1000 points of a far cluster, in a drawn order.  On an axis ray
    every product is exact, so its unit offsets lie exactly on the tube's
    boundary and its offsets at one t tie on t; on the others they lie
    within a few ulps of that."""
    tube_r = 2.0 ** -draw(st.integers(5, 7))
    coords = st.lists(st.integers(-32, 32), min_size=3, max_size=3)
    offsets = st.tuples(st.integers(-16, 64), st.integers(0, 3), st.integers(0, 3))
    origins, directions, near = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        origin = np.array(draw(coords)) / 128.0
        direction = TUBE_DIRECTIONS[draw(st.integers(0, len(TUBE_DIRECTIONS) - 1))]
        e1, e2 = (e[0] for e in perpendicular_frames(direction[None]))
        perps = (e1, -e1, e2, -e2)
        for t, s, k in draw(st.lists(offsets, min_size=1, max_size=12)):
            near.append(origin + t / 256.0 * direction + s / 2.0 * tube_r * perps[k])
        origins.append(origin)
        directions.append(direction)
    near += [near[i] for i in draw(st.lists(st.integers(0, len(near) - 1), max_size=4))]
    near += draw(st.lists(st.tuples(*[st.floats(-0.5, 0.5)] * 3), max_size=20))
    points = np.vstack([np.array(near, dtype=float).reshape(-1, 3), _FAR])
    order = draw(st.permutations(range(len(points))))
    return PointCloud(points[order]), np.array(origins), np.array(directions), tube_r


@pytest.mark.bitexact
@pytest.mark.parametrize("rows", [40, graspeval._CHUNK_ROWS])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tube_clouds())
def test_first_hits_match_reference_on_tube_boundaries_and_ties(rows, case):
    """`first_hits` equals a scan of every point on clouds with points on
    the rays' tube boundaries and at equal t, in search passes of 40 rows
    and of the default size."""
    cloud, origins, directions, tube_r = case
    with mock.patch.object(graspeval, "_CHUNK_ROWS", rows):
        first_hits_match_reference(cloud, origins, directions, tube_r)


def long_ray_case():
    """12000 points along a 0.32 m rod on the x axis and a ray down its
    length: with a 1 mm tube, the ray's 3x3x3 blocks hold more cells than
    one search pass takes, yet fewer than the cloud's points."""
    rng = np.random.default_rng(4)
    rod = np.column_stack([0.32 * rng.random(12000), 0.004 * rng.random((12000, 2)) - 0.002])
    return PointCloud(rod), np.array([[-0.01, 0.0005, 0.0]]), np.array([[1.0, 0.0, 0.0]]), 0.001


def offset_rod_case():
    """12000 points along a 0.32 m rod of 2 mm square section on the x axis,
    one point (the last) near its far end, and a ray down its length 1.5 mm
    off the rod's side: within a 1 mm tube the ray touches only the last
    point, while every rod cell lies within the cells' reach of its line."""
    rng = np.random.default_rng(4)
    rod = np.column_stack([0.32 * rng.random(12000), 0.002 * rng.random((12000, 2)) - 0.001])
    return (PointCloud(np.vstack([rod, [[0.3, 0.0025, 0.0]]])), np.array([[-0.01, 0.0025, 0.0]]),
            np.array([[1.0, 0.0, 0.0]]), 0.001)


def search_log(monkeypatch):
    """A list that gets, per `ContactIndex._tube_rows` call, the candidate
    points of its (ray, cell) pairs and the points of its rows inside the
    tube."""
    log = []
    tube_rows = ContactIndex._tube_rows

    def logged(index, origins, directions, ray, cell):
        lo, hi = index._bounds[cell], index._bounds[cell + 1]
        rows = tube_rows(index, origins, directions, ray, cell)
        log.append((index.order[graspeval._ranges(lo, hi)], rows[1]))
        return rows

    monkeypatch.setattr(ContactIndex, "_tube_rows", logged)
    return log


@pytest.mark.bitexact
def test_ray_longer_than_a_search_pass(monkeypatch):
    """In passes of 4096 rows, the rod ray's blocks hold more cells than a
    pass takes, and the offset ray, whose contact lies in its last search
    window, builds more ray-point rows in one window than a pass takes."""
    monkeypatch.setattr(graspeval, "_CHUNK_ROWS", 4096)
    cloud, origins, directions, tube_r = long_ray_case()
    _, count = ContactIndex(cloud, tube_r)._spans(origins, directions)
    assert graspeval._CHUNK_ROWS < count[0] * 27 < len(cloud.points)
    assert first_hits_match_reference(cloud, origins, directions, tube_r)[0] >= 0
    log = search_log(monkeypatch)
    cloud, origins, directions, tube_r = offset_rod_case()
    assert first_hits_match_reference(cloud, origins, directions, tube_r)[0] == 12000
    assert max(len(candidates) for candidates, _ in log) > graspeval._CHUNK_ROWS


@pytest.mark.bitexact
def test_repeated_ray_is_searched_once(small_sphere_cloud, gripper, monkeypatch):
    """The two paired rays of a zero-spread preshape are one ray: it is
    searched once, and its contact is still listed for both fingers."""
    pg = make_pregrasp((0.0932, 0, 0), (-1, 0, 0), (0, 0, 1), GraspType.CYLINDRICAL)
    rays = finger_rays(pg, gripper)
    assert rays[1][0].tobytes() == rays[2][0].tobytes()
    assert rays[1][1].tobytes() == rays[2][1].tobytes()
    searched = []
    first_hits = ContactIndex.first_hits

    def counting(index, origins, directions):
        searched.append(len(origins))
        return first_hits(index, origins, directions)

    monkeypatch.setattr(ContactIndex, "first_hits", counting)
    contacts = estimate_contacts(pg, small_sphere_cloud, gripper)
    assert searched == [2] and len(contacts) == 3
    assert contacts[1, 0].tobytes() == contacts[2, 0].tobytes()
    assert not np.shares_memory(contacts[1], contacts[2])
    searched.clear()
    ranked = rank_pool(pg, small_sphere_cloud, gripper)
    assert searched == [2] and len(ranked[0].contacts) == 3


@pytest.mark.bitexact
def test_contact_at_the_centroid_takes_the_normal_against_the_ray():
    """Every ray of `axis_pregrasp` touches the point at the cloud's centroid
    first (the three points' mean is exact), so each normal falls back to
    the reversed ray direction; a one-point cloud too."""
    gripper, q = exact_gripper(), 1.0 / 16
    cloud = PointCloud(np.array([[q, 0.0, -0.25], [q, 0.0, 0.0], [q, 0.0, 0.25]]))
    assert cloud.centroid.tolist() == [q, 0.0, 0.0]
    contacts = estimate_contacts(axis_pregrasp(), cloud, gripper)
    assert contacts[:, 1].tolist() == [[0.0, 0.0, 1.0]] + [[0.0, 0.0, -1.0]] * 2
    assert_contacts_match_reference(axis_pregrasp(), cloud, gripper)
    single = PointCloud(cloud.points[1:2])
    touched, _ = assert_contacts_match_reference(axis_pregrasp(), single, gripper)
    assert touched == 1


@pytest.fixture(params=[(40, 1), (1000, 3)], ids=["rows40-slice1", "rows1000-slice3"])
def small_passes(request, monkeypatch):
    """Search passes of few candidate rows and pool slices of few
    pre-grasps, so that rays span passes (or share them) and pools span
    slices."""
    rows, part = request.param
    monkeypatch.setattr(graspeval, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(graspeval, "_POOL_SLICE", part)


@pytest.mark.bitexact
def test_boundary_cases_match_reference_in_small_passes(small_passes, sphere_cloud,
                                                        sphere_tree, gripper):
    pool = planned_pool(sphere_cloud, gripper, sphere_tree)[::4]
    touched, missed = assert_contacts_match_reference(pool_rows(pool, edge_pool()), sphere_cloud,
                                                      gripper)
    assert touched >= len(pool) and missed == 1
    inside, inner = inner_pool()
    assert assert_contacts_match_reference(inner, sphere_cloud, inside) == (2, 0)
    for case_pool, cloud in outlier_and_far_cases(sphere_cloud, pool):
        assert assert_contacts_match_reference(case_pool, cloud, gripper)[0] > 0
    for cloud in (tie_cloud(), boundary_cloud()):
        assert assert_contacts_match_reference(pool_rows(*[axis_pregrasp()] * 3), cloud,
                                               exact_gripper()) == (3, 0)
    pg, cloud = lone_candidate_case()
    assert assert_contacts_match_reference(pool_rows(pg, pg), cloud, gripper) == (2, 0)
    origin, direction = TUBE_EDGE_RAY
    cloud = PointCloud(np.vstack([TUBE_EDGE_POINT, 0.5 + 0.1 * far_points()]))
    first_hits_match_reference(cloud, np.stack([origin] * 3), np.stack([direction] * 3),
                               TUBE_EDGE_R)
    cloud, origins, directions, tube_r = long_ray_case()
    first_hits_match_reference(cloud, np.vstack([origins, origins + 0.001]),
                               np.vstack([directions] * 2), tube_r)


# A ray's samples are expanded in windows: samples 0-3, 4-11, 12-27, and so on.
# Each case is one ray.  In the first four it runs from the origin through a
# cloud of its own points, a point that sets the cloud's minimum corner to
# (-1/16, -1/16, 0) (to (-1/16, -15/256, 0) in the later-window tie), so that
# t_in = 0, and the far cluster, which gives the ray more samples than its
# windows need and keeps it off the every-cell fallback.  With tube_r = 1/32
# every sample, cell boundary and t along the x axis is exact.

WINDOW_R = 1.0 / 32
X_RAY = (np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]]))


def window_log(monkeypatch):
    """A list that gets, per search window, the first sample of the window
    and the points of the tube rows its `_tube_rows` calls keep: a
    `ContactIndex._block_lists` call opens an entry unless it continues the
    window of the entry before."""
    log = []
    block_lists, tube_rows = ContactIndex._block_lists, ContactIndex._tube_rows

    def windowed(index, origins, directions, t_in, rays, first, *rest):
        if not log or log[-1][0] != first:
            log.append((first, []))
        return block_lists(index, origins, directions, t_in, rays, first, *rest)

    def logged(index, *args):
        rows = tube_rows(index, *args)
        log[-1][1].extend(rows[1].tolist())
        return rows

    monkeypatch.setattr(ContactIndex, "_block_lists", windowed)
    monkeypatch.setattr(ContactIndex, "_tube_rows", logged)
    return log


def window_cloud(*points):
    return PointCloud(np.vstack([points, [[-1.0 / 16, -1.0 / 16, 0.25]], _FAR]))


def assert_point_at_a_window_bound(monkeypatch):
    """Points 0 and 1 lie at t = 3.5 tube radii, exactly where samples 3
    and 4 are equally near: the first window's bound less its rounding
    slack.  So the ray does not retire at that t and takes the second window
    too; point 0 (on the tube's boundary) wins the tie.  Alone, and
    2^-20 m nearer, point 1 retires the ray after the first window."""
    r = WINDOW_R
    log = window_log(monkeypatch)
    cloud = window_cloud([3.5 * r, 0.0, r], [3.5 * r, 0.0, 0.0])
    assert first_hits_match_reference(cloud, *X_RAY, r).tolist() == [0]
    assert [first for first, _ in log] == [0, 4] and log[0][1] == [0, 1]
    log.clear()
    cloud = window_cloud([3.5 * r - 2.0 ** -20, 0.0, 0.0])
    assert first_hits_match_reference(cloud, *X_RAY, r).tolist() == [0]
    assert log == [(0, [0])]


def assert_tie_in_a_later_window(monkeypatch):
    """Points 0 and 1 are (23, 33, 0) / 256 and (33, 23, 0) / 256, at equal t
    4.95 tube radii out on a ray along (a, a, 0), a = fl(sqrt(1/2)):
    fl(x a) + fl(y a) is one sum either way round.  The cloud's corner
    (-16, -15, 0) / 256 puts the first window's last sample in cell (2, 1),
    whose block holds point 1's cell (3, 2) but not point 0's (2, 3): point
    0 wins only in the second window, by its lower index."""
    a = np.sqrt(0.5)
    cloud = PointCloud(np.vstack([[[23 / 256, 33 / 256, 0.0], [33 / 256, 23 / 256, 0.0],
                                   [-16 / 256, -15 / 256, 0.25]], _FAR]))
    origins, directions = np.zeros((1, 3)), np.array([[a, a, 0.0]])
    t = dot3(cloud.points[:2] - origins[0], directions[0])
    assert t[0] == t[1]
    log = window_log(monkeypatch)
    assert first_hits_match_reference(cloud, origins, directions, WINDOW_R).tolist() == [0]
    assert [first for first, _ in log] == [0, 4]
    assert log[0][1] == [1] and 0 in log[1][1]


def assert_miss_after_every_window(monkeypatch):
    """Points every half tube radius along the x ray, 1.25 tube radii off
    it: each window's blocks hold some, none lies in the tube, and the ray
    misses after expanding its last sample."""
    r = WINDOW_R
    line = [[k * r / 2, 1.25 * r, 0.0] for k in range(40)]
    cloud = window_cloud(*line)
    _, count = ContactIndex(cloud, r)._spans(*X_RAY)
    log = window_log(monkeypatch)
    assert first_hits_match_reference(cloud, *X_RAY, r).tolist() == [-1]
    assert [first for first, _ in log] == [0, 4, 12] and 12 < count[0] <= 28
    assert all(kept == [] for _, kept in log)


def assert_contact_in_the_third_window(monkeypatch):
    """The only point in the x ray's tube lies 16 tube radii out, nearest
    sample 16, beyond the blocks of sample 11 (cell [10, 12) tube radii):
    the first two windows keep no row, the third finds the contact."""
    r = WINDOW_R
    cloud = window_cloud([16 * r, 0.0, r / 2], [5 * r, 1.25 * r, 0.0])
    log = window_log(monkeypatch)
    assert first_hits_match_reference(cloud, *X_RAY, r).tolist() == [0]
    assert log == [(0, []), (4, []), (12, [0])]


def assert_tie_in_one_window(monkeypatch):
    """Points 0 and 1 lie at equal t on a ray along (1, 1, 0) from the
    origin: a power of two times fl(sqrt(1/2)) is exact, so both t's are
    fl(a/8 + a/16), nearest the first window's last sample.  The first
    window keeps both, point 0 wins the tie by its lower index, and the ray
    retires after that window."""
    a = np.sqrt(0.5)
    rng = np.random.default_rng(0)
    above = np.column_stack([0.3 * rng.random((300, 2)) - [0.1, 0.05], 0.5 + 0.1 * rng.random(300)])
    cloud = PointCloud(np.vstack([[[0.125, 0.0625, 0.0], [0.0625, 0.125, 0.0],
                                   [-0.06, 0.04, 0.0], [-0.1, -0.05, 0.5]], above]))
    origins, directions = np.zeros((1, 3)), np.array([[a, a, 0.0]])
    t = (cloud.points[:2] - origins[0]) @ directions[0]
    assert t[0] == t[1]
    log = window_log(monkeypatch)
    assert first_hits_match_reference(cloud, origins, directions, 0.05).tolist() == [0]
    assert [first for first, _ in log] == [0] and sorted(log[0][1]) == [0, 1]


def assert_rod_contact_in_the_last_window(monkeypatch):
    """The offset rod ray reaches its contact, the last point, through
    several windows: every `_tube_rows` call has candidate points, none
    before the last keeps a point within the tube, and the last keeps only
    the contact."""
    cloud, origins, directions, tube_r = offset_rod_case()
    log = search_log(monkeypatch)
    assert first_hits_match_reference(cloud, origins, directions, tube_r).tolist() == [12000]
    assert len(log) > 2 and all(len(candidates) > 0 for candidates, _ in log)
    assert all(len(kept) == 0 for _, kept in log[:-1])
    assert log[-1][1].tolist() == [12000]


def assert_rows_behind_the_origin(monkeypatch):
    """The thumb ray of `lone_candidate_case`, with three points added on
    its line behind its origin (t < 0): they are candidates of the first
    `_tube_rows` call but lie outside the tube, so that call keeps no row,
    and each later one only the contact's lone row, 10 samples past the
    ray's entry."""
    pg, cloud = lone_candidate_case()
    origin, direction = finger_rays(pg, GripperConfig())[0]
    behind = [origin - k * 0.005 * direction for k in (0.5, 1.0, 1.5)]
    cloud = PointCloud(np.vstack([cloud.points, behind]))
    log = search_log(monkeypatch)
    assert first_hits_match_reference(cloud, origin[None], direction[None], 0.005).tolist() == [0]
    (first, kept_first), *later = log
    assert {3001, 3002, 3003} <= set(first.tolist())
    assert kept_first.tolist() == [] and len(later) > 0
    assert all(kept.tolist() == [0] for _, kept in later)


WINDOW_CASES = {"point-at-a-window-bound": assert_point_at_a_window_bound,
                "tie-in-a-later-window": assert_tie_in_a_later_window,
                "miss-after-every-window": assert_miss_after_every_window,
                "contact-in-the-third-window": assert_contact_in_the_third_window,
                "tie-in-one-window": assert_tie_in_one_window,
                "rod-contact-in-the-last-window": assert_rod_contact_in_the_last_window,
                "rows-behind-the-origin": assert_rows_behind_the_origin}


@pytest.mark.bitexact
@pytest.mark.parametrize("case", WINDOW_CASES)
def test_search_windows_match_reference(case, monkeypatch):
    WINDOW_CASES[case](monkeypatch)


@pytest.mark.bitexact
@pytest.mark.parametrize("case", WINDOW_CASES)
def test_search_windows_match_reference_in_small_passes(small_passes, case, monkeypatch):
    WINDOW_CASES[case](monkeypatch)


def test_search_windows_build_fewer_pairs(monkeypatch):
    """On the 10k cylinder's dense pool, the search builds at most 60% of the
    (ray, cell) pairs that block lists of every ray's whole stretch would:
    most rays retire after a window or two."""
    pool, cloud, gripper = dense_case("cylinder-10k")
    rays = finger_rays(pool, gripper)
    origins, directions = rays[:, 0], rays[:, 1]
    index = ContactIndex(cloud, gripper.tube_radius)
    n_occ = index._centers.shape[1]
    built = []
    tube_cells = ContactIndex._tube_cells

    def counted(index, origins, directions, ray, cell):
        built.append(len(cell))
        return tube_cells(index, origins, directions, ray, cell)

    monkeypatch.setattr(ContactIndex, "_tube_cells", counted)
    index.first_hits(origins, directions)
    t_in, count = index._spans(origins, directions)
    whole = np.flatnonzero(count > 0)
    _, cell = index._block_lists(origins.T.copy(), directions.T.copy(), t_in, whole, 0,
                                 count[whole])
    full = len(cell) + int((count < 0).sum()) * n_occ
    assert 0 < sum(built) <= 0.6 * full


@pytest.mark.parametrize("kind", ["sphere", "cylinder", "dumbbell", "lshape"])
def test_contact_search_memory_is_bounded(kind, gripper):
    """The search of the rays of one pool slice of a 10k-point cloud peaks
    below 2 MB: each pass builds about `_CHUNK_ROWS` rows of each kind."""
    cloud = synth_shape(kind, tuple(SYNTH_KINDS[kind].values()), 10000, seed=1)
    pool = planned_pool(cloud, gripper)[:graspeval._POOL_SLICE]
    rays = finger_rays(pool, gripper)
    origins, directions = rays[:, 0], rays[:, 1]
    index = ContactIndex(cloud, gripper.tube_radius)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        index.first_hits(origins, directions)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"{kind}: first_hits peaked {peak / 1e6:.2f} MB above its start"


def solid_cube_case(n_rays):
    """10000 uniform points filling a 0.08 m cube, all 512 of whose 1 cm
    contact cells (a 5 mm tube) are occupied, so that the 3x3x3 block of
    every sample inside it is full; and `n_rays` rays from 0.15 m around
    the cube's center aimed into its middle half."""
    rng = np.random.default_rng(0)
    cloud = PointCloud(0.08 * rng.random((10000, 3)))
    around = unit_rows(rng.standard_normal((n_rays, 3)))
    origins = 0.04 + 0.15 * around
    directions = unit_rows(0.02 + 0.04 * rng.random((n_rays, 3)) - origins)
    return cloud, origins, directions


@pytest.mark.bitexact
def test_first_hits_match_reference_in_a_solid_cube(monkeypatch):
    """In passes of 256 rows, a `_block_lists` call builds at most 27 (ray,
    cell) pairs per sample it expands, some calls more pairs than a pass
    has rows, and every ray gets the scan's contact."""
    monkeypatch.setattr(graspeval, "_CHUNK_ROWS", 256)
    cloud, origins, directions = solid_cube_case(300)
    assert ContactIndex(cloud, 0.005)._centers.shape[1] == 512
    built = []
    block_lists = ContactIndex._block_lists

    def counted(index, origins, directions, t_in, rays, first, stops):
        ray, cell = block_lists(index, origins, directions, t_in, rays, first, stops)
        built.append((len(cell), int((stops - first).sum())))
        return ray, cell

    monkeypatch.setattr(ContactIndex, "_block_lists", counted)
    assert (first_hits_match_reference(cloud, origins, directions, 0.005) >= 0).all()
    assert all(pairs <= 27 * samples for pairs, samples in built)
    assert max(pairs for pairs, _ in built) > graspeval._CHUNK_ROWS


def test_contact_search_memory_in_a_solid_cube():
    """The search of 12288 rays, a pool slice's fingers, into the solid cube
    peaks below 16 MB: a pass of `_CHUNK_ROWS` samples builds at most 27
    (ray, cell) pairs per sample."""
    cloud, origins, directions = solid_cube_case(3 * graspeval._POOL_SLICE)
    index = ContactIndex(cloud, 0.005)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        index.first_hits(origins, directions)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 16e6, f"first_hits peaked {peak / 1e6:.2f} MB above its start"


def test_contact_index_must_match_cloud_and_tube(small_sphere_cloud, sphere_cloud, gripper):
    pg = sphere_pool()[1:2]
    index = ContactIndex(small_sphere_cloud, 0.005)
    with pytest.raises(ValueError):
        estimate_contacts(pg, small_sphere_cloud, dataclasses.replace(gripper, tube_radius=0.004),
                          index=index)
    with pytest.raises(ValueError):
        estimate_contacts(pg, sphere_cloud, gripper, index=index)
    with pytest.raises(ValueError):
        ContactIndex(small_sphere_cloud, 0.0)


# ===========================================================================
# Wrench sets
# ===========================================================================

def test_wrench_count_and_force_geometry():
    contacts = antipodal_contacts()
    wrenches = wrenches_of(contacts, MU, EDGES, np.zeros(3))
    assert wrenches.shape == (len(contacts) * EDGES, 6) == (16, 6)
    cos_alpha = np.cos(np.arctan(MU))
    sin_alpha = np.sin(np.arctan(MU))
    forces, torques = wrenches[:, :3], wrenches[:, 3:]
    normals = np.repeat(contacts[:, 1], EDGES, axis=0)
    assert np.allclose(np.linalg.norm(forces, axis=1), 1.0)
    assert np.allclose(np.einsum("ij,ij->i", forces, normals), cos_alpha)  # cone half-angle
    # contact sits on the lever axis at distance rho, so the scaled
    # torque magnitude is exactly sin(alpha) = mu / sqrt(1 + mu^2)
    assert np.allclose(np.linalg.norm(torques, axis=1), sin_alpha)
    assert (np.linalg.norm(torques, axis=1) <= MU + 1e-12).all()


def test_zero_friction_degenerates_to_normals():
    wrenches = wrenches_of(antipodal_contacts(), 0.0, EDGES, np.zeros(3))
    normals = np.repeat(antipodal_contacts()[:, 1], EDGES, axis=0)
    assert np.allclose(wrenches[:, :3], normals)
    assert np.allclose(wrenches[:, 3:], 0.0)


def test_wrench_torque_scaling_is_rho_invariant():
    """Doubling the object scale leaves the scaled torques unchanged."""
    small = wrenches_of(antipodal_contacts(0.04), MU, EDGES, np.zeros(3))
    large = wrenches_of(antipodal_contacts(0.08), MU, EDGES, np.zeros(3))
    assert small.shape == large.shape
    assert np.allclose(small[:, :3], large[:, :3])
    assert np.allclose(small[:, 3:], large[:, 3:])


def test_empty_contacts_yield_no_wrenches():
    assert wrenches_of(np.empty((0, 2, 3)), MU, EDGES, np.zeros(3)).shape == (0, 6)


def axis_contacts():
    """Contacts 4 cm out along -n for normals exactly on +-x, +-y, +-z and on
    the diagonals where perpendicular_frame's argmin ties."""
    normals = np.vstack([np.eye(3), -np.eye(3),
                         [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return np.stack((-0.04 * normals, normals), axis=1)


@functools.lru_cache(maxsize=1)
def cylinder_pool():
    """A 5k cylinder, the default config and its pool."""
    cloud = synth_shape("cylinder", (0.03, 0.2), 5000, seed=3)
    cfg = RunConfig()
    tree = decompose(cloud, cfg.decomposition)
    pool = generate_pool(tree, helpers.classes_for(tree, cloud, cfg.thresholds),
                         compute_face_states(tree, cfg.gripper.finger_length),
                         cfg.gripper, cfg.sampling)
    return cloud, cfg, pool


@functools.lru_cache(maxsize=1)
def ranked_contact_sets():
    """Contact sets of every ranked candidate of one 5k cylinder plan."""
    cloud, cfg, pool = cylinder_pool()
    ranked = rank_pool(pool, cloud, cfg.gripper)
    return cloud.centroid, [c.contacts for c in ranked if len(c.contacts)]


@pytest.mark.bitexact
@pytest.mark.parametrize("mu", [0.0, MU])
@pytest.mark.parametrize("edges", [3, EDGES])
def test_wrench_set_matches_reference_bytes(mu, edges):
    """The broadcast wrench array equals the per-edge reference bit for bit."""
    origin = np.zeros(3)
    at_origin = axis_contacts()
    at_origin[:, 0] = 0.0
    cases = [
        (antipodal_contacts(), origin),
        (icosahedral_cage(), origin),
        (antipodal_contacts()[:1], origin),
        (axis_contacts(), origin),
        (at_origin, origin),
        (np.empty((0, 2, 3)), origin),
    ]
    centroid, sets = ranked_contact_sets()
    assert len(sets) > 100
    cases += [(contacts, centroid) for contacts in sets]
    for contacts, center in cases:
        got = wrenches_of(contacts, mu, edges, center)
        ref = oracles.reference_wrench_set(contacts, mu, edges, center)
        assert got.shape == ref.shape == (len(contacts) * edges, 6)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


# ===========================================================================
# Epsilon quality
# ===========================================================================

def test_cross_polytope_quality_is_exact():
    """The direction set contains every +/-1 diagonal, so the cross-polytope
    inradius 1/sqrt(6) is recovered exactly, and the 5% reference-grid bound
    holds with margin."""
    wrenches = cross_polytope_wrenches()
    got = epsilon_quality(wrenches, n_dirs=14896)
    exact = 1.0 / np.sqrt(6.0)
    assert np.isclose(got, exact, rtol=1e-12)
    ref = oracles.epsilon_support_reference(wrenches, n_dirs=2 ** 18)
    assert abs(got - ref) / ref <= 0.05


def test_pinch_quality_matches_fine_reference(small_sphere_cloud, gripper):
    """Antipodal pinch on the sphere cloud vs an independent 2^20-direction
    support grid: agreement within 10%.  Contacts come from the real cloud
    (about a millimeter off the pinch axis), so the quality is small but
    positive."""
    pg = make_pregrasp((0.08, 0, 0), (-1, 0, 0), (0, 0, 1),
                       GraspType.TWO_FINGERTIP)
    contacts = estimate_contacts(pg, small_sphere_cloud, gripper)
    wrenches = wrenches_of(contacts, MU, EDGES, small_sphere_cloud.centroid)
    got = epsilon_quality(wrenches, n_dirs=14896)
    ref = oracles.epsilon_support_reference(wrenches, n_dirs=2 ** 20)
    assert got > 0.0
    assert abs(got - ref) / ref <= 0.10


def test_ideal_pinch_has_no_torsional_resistance():
    """Point contacts exactly on the pinch axis cannot resist torque about
    it: the support collapses to zero in that direction and the quality is
    exactly 0 (origin on the hull boundary)."""
    wrenches = wrenches_of(antipodal_contacts(), MU, EDGES, np.zeros(3))
    assert epsilon_quality(wrenches, n_dirs=14896) == 0.0


@pytest.mark.bitexact
def test_quality_matches_row_maxima_bytes():
    """The support reduction along contiguous memory gives the bits of the
    row maxima of the same product, on ranked contact sets, on sets whose
    supports are exactly zero and on sets with the origin outside."""
    origin = np.zeros(3)
    sets = [wrenches_of(c, mu, EDGES, origin) for mu in (0.0, MU)
            for c in (antipodal_contacts(), antipodal_contacts()[:1], icosahedral_cage())]
    sets += [cross_polytope_wrenches(), np.vstack([np.zeros(6), np.eye(6)])]
    centroid, contact_sets = ranked_contact_sets()
    sets += [wrenches_of(c, MU, EDGES, centroid) for c in contact_sets]
    for ws in sets:
        for n_dirs in (64, 1024, 14896):
            got = epsilon_quality(ws, n_dirs)
            assert np.float64(got).tobytes() == np.float64(
                oracles.reference_epsilon_quality(ws, n_dirs)).tobytes()


def test_zero_support_scores_positive_zero():
    """A zero wrench row makes every support >= 0, and exactly 0 where all
    other rows lie in the opposite orthant: the quality is +0.0, with no
    sign that a reduction order could pick."""
    q = epsilon_quality(np.vstack([np.zeros(6), np.eye(6)]), n_dirs=14896)
    assert np.float64(q).tobytes() == np.float64(0.0).tobytes()


@pytest.mark.bitexact
@pytest.mark.parametrize("n_dirs", [1, 1024, 14896])
def test_quality_stack_matches_per_set_bytes(n_dirs):
    """Qualities of a (g, k, 6) stack, chunked over the sets, equal each
    set's own quality and the row maxima reference bit for bit, for 2 and 3
    contacts (the first of a ranked candidate's), a set with an exactly zero
    support among them."""
    centroid, contact_sets = ranked_contact_sets()
    for k in (2, 3):
        sets = [wrenches_of(c[:k], MU, EDGES, centroid) for c in contact_sets if len(c) >= k]
        # supports max(0, max_i d_i): zero on the all-negative first direction
        zero_support = np.zeros((k * EDGES, 6))
        zero_support[1:7] = np.eye(6)
        sets.append(zero_support)
        stack = np.stack(sets)
        assert stack.shape[1] == k * EDGES and len(stack) > 2
        got = epsilon_quality(stack, n_dirs)
        assert got.shape == (len(stack),)
        assert got[-1].tobytes() == np.float64(0.0).tobytes() and (got > 0.0).any()
        assert got.tobytes() == np.array([epsilon_quality(ws, n_dirs) for ws in sets]).tobytes()
        assert got.tobytes() == np.array(
            [oracles.reference_epsilon_quality(ws, n_dirs) for ws in sets]).tobytes()


def _zero_only_along(d, eps):
    """12 wrenches spanning the hyperplane normal to the unit 6-vector d,
    shifted by -eps d: support -eps along d, and positive along every other
    lattice direction, whose projection on the hyperplane is far longer
    than eps."""
    flat = np.vstack([np.eye(6), -np.eye(6)])
    flat -= (flat @ d)[:, None] * d
    return flat - eps * d


@pytest.mark.bitexact
@pytest.mark.parametrize("n_dirs", [1, 15, 16, 17, 1024, 14896])
def test_certificate_keeps_full_scan_bytes(n_dirs):
    """The certificate over every 16th direction changes no quality's bits:
    a (g, 12, 6) stack and each of its sets alone equal the full-scan
    reference, with sets settled by a screened direction, zero sets whose
    only non-positive direction is unscreened, sets whose support is
    exactly 0 on a screened direction (left to the scan), and positive sets."""
    lattice = graspeval._lattice_directions()
    screened = lattice[:n_dirs:16]
    rng = np.random.default_rng(n_dirs)
    settled_sets = [0.1 * rng.normal(size=(12, 6)) - d for d in screened[:4]]
    settled_sets.append(_zero_only_along(lattice[0], 1.0))
    exact_zero = np.vstack([np.zeros(6), np.eye(6), np.eye(6)[:5]])    # 0 along lattice[0]
    positive = [cross_polytope_wrenches()] + [
        cross_polytope_wrenches() @ np.linalg.qr(rng.normal(size=(6, 6)))[0] for _ in range(3)]
    unscreened = []
    if n_dirs > 1:
        j = n_dirs - 1 if (n_dirs - 1) % 16 else n_dirs - 2
        unscreened = [_zero_only_along(lattice[j], eps) for eps in (1e-3, 1e-9)]
    sets = settled_sets + [exact_zero] + unscreened + positive
    stack = np.stack(sets)
    got = epsilon_quality(stack, n_dirs)
    ref = np.array([oracles.reference_epsilon_quality(ws, n_dirs) for ws in sets])
    assert got.tobytes() == ref.tobytes()
    assert got.tobytes() == np.array([epsilon_quality(ws, n_dirs) for ws in sets]).tobytes()
    settled = graspeval._supports(stack, np.ascontiguousarray(screened), np.arange(len(stack)),
                                  True)[1]
    n_settled = len(settled_sets)
    assert settled[:n_settled].all() and not settled[n_settled:].any()
    assert (got[:-len(positive)] == 0.0).all() and (got[-len(positive):] > 0.0).all()
    assert np.signbit(got).sum() == 0


def test_certificate_leaves_fewer_sets_to_the_scan(monkeypatch):
    """On the default cylinder's pool, whose pinches score 0, the full scan
    grades fewer sets than the quality calls hold: the certificate settles
    the others, each of which scores +0.0."""
    cloud, cfg, pool = cylinder_pool()
    sets = {}       # direction count of a pass -> sets it saw, call by call
    real = graspeval._supports

    def supports(stack, dirs, which, certify):
        sets.setdefault(len(dirs), []).append(len(which))
        return real(stack, dirs, which, certify)

    monkeypatch.setattr(graspeval, "_supports", supports)
    ranked = rank_pool(pool, cloud, cfg.gripper)
    graded = [c.quality for c in ranked if len(c.contacts) >= 2]
    stacked, scanned = sets[graspeval.QUALITY_DIRS // 16], sets[graspeval.QUALITY_DIRS]
    assert len(scanned) == len(stacked) > 0 and sum(stacked) == len(graded)
    assert sum(scanned) < sum(stacked)
    assert graded.count(0.0) >= sum(stacked) - sum(scanned)


def test_quality_memory_is_bounded():
    """Grading one pool slice of 3-contact grasps (24 wrenches each) at the
    default direction count peaks below 2 MB: the sets are gathered and
    their support products built about 1 MB at a time, not the slice's
    805 MB at once."""
    stack = np.random.default_rng(2).normal(size=(graspeval._POOL_SLICE, 3 * EDGES, 6))
    epsilon_quality(stack[:1])        # the cached lattice is not part of the peak
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        epsilon_quality(stack)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2e6, f"epsilon_quality peaked {peak / 1e6:.2f} MB above its start"


def test_single_contact_scores_zero():
    contacts = np.array([[[0.04, 0.0, 0.0], [-1.0, 0.0, 0.0]]])
    wrenches = wrenches_of(contacts, MU, EDGES, np.zeros(3))
    assert epsilon_quality(wrenches, n_dirs=1024) == 0.0


@pytest.mark.parametrize("n_dirs", [0, 14897])
def test_quality_dirs_outside_the_lattice_raise(n_dirs):
    wrenches = wrenches_of(icosahedral_cage(), MU, EDGES, np.zeros(3))
    with pytest.raises(ValueError, match="n_dirs"):
        epsilon_quality(wrenches, n_dirs=n_dirs)


def test_empty_wrench_set_raises():
    with pytest.raises(EmptyWrenchSet):
        epsilon_quality(wrenches_of(np.empty((0, 2, 3)), MU, EDGES, np.zeros(3)), n_dirs=1024)


def test_quality_prefix_monotone_in_directions():
    """More directions never raise the estimate (prefix sequence)."""
    wrenches = wrenches_of(icosahedral_cage(), MU, EDGES, np.zeros(3))
    estimates = [epsilon_quality(wrenches, n_dirs=n)
                 for n in (64, 256, 1024, 4096, 14896)]
    for coarse, fine in zip(estimates, estimates[1:]):
        assert fine <= coarse + 1e-15
    assert estimates[-1] > 0.0


def test_quality_rotation_invariance():
    """Rigid rotation of contacts + normals about the centroid leaves the
    estimate unchanged within 2% (exactly, for the 24 rotations that map the
    direction lattice to itself); arbitrary rotations stay within a
    documented 25% sampling-anisotropy envelope."""
    base = epsilon_quality(wrenches_of(icosahedral_cage(), MU, EDGES,
                                       np.zeros(3)), n_dirs=1024)
    assert base > 0.0
    for rot in helpers.signed_permutation_rotations():
        rotated = epsilon_quality(
            wrenches_of(icosahedral_cage(rot), MU, EDGES, np.zeros(3)),
            n_dirs=1024)
        assert abs(rotated - base) / base <= 0.02
    base_all = epsilon_quality(wrenches_of(icosahedral_cage(), MU, EDGES,
                                           np.zeros(3)), n_dirs=14896)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rot = helpers.random_rotation(rng)
        rotated = epsilon_quality(
            wrenches_of(icosahedral_cage(rot), MU, EDGES, np.zeros(3)),
            n_dirs=14896)
        assert abs(rotated - base_all) / base_all <= 0.25


# ===========================================================================
# Pool ranking
# ===========================================================================

def sphere_pool():
    """One caging spherical grasp, one pinch, one miss — in worst order."""
    return pool_rows(
        make_pregrasp((1.0, 1.0, 1.0), (1, 0, 0), (0, 0, 1),
                      GraspType.SPHERICAL),                       # miss
        make_pregrasp((0.08, 0, 0), (-1, 0, 0), (0, 0, 1),
                      GraspType.TWO_FINGERTIP),                   # 2 contacts
        make_pregrasp((0.0932, 0, 0), (-1, 0, 0), (0, 0, 1),
                      GraspType.SPHERICAL),                       # 3 contacts
    )


def test_rank_pool_orders_by_quality(small_sphere_cloud, gripper):
    ranked = rank_pool(sphere_pool(), small_sphere_cloud, gripper)
    assert [c.pool_index for c in ranked] == [2, 1, 0]
    assert len(ranked[0].contacts) == 3
    assert len(ranked[1].contacts) == 2
    assert ranked[0].quality > ranked[1].quality > ranked[2].quality == 0.0
    qualities = [c.quality for c in ranked]
    assert qualities == sorted(qualities, reverse=True)


def test_rank_pool_is_a_permutation(small_sphere_cloud, gripper):
    pool = pool_rows(sphere_pool(), sphere_pool())
    ranked = rank_pool(pool, small_sphere_cloud, gripper)
    assert sorted(c.pool_index for c in ranked) == list(range(len(pool)))


def test_rank_pool_duplicates_keep_pool_order(small_sphere_cloud, gripper):
    pool = sphere_pool()[[1, 1, 1]]
    ranked = rank_pool(pool, small_sphere_cloud, gripper)
    assert [c.pool_index for c in ranked] == [0, 1, 2]
    assert len({round(c.quality, 15) for c in ranked}) == 1


def test_rank_pool_all_misses_preserve_order(small_sphere_cloud, gripper):
    pool = pool_rows(*(make_pregrasp((1.0 + 0.1 * k, 1.0, 1.0), (1, 0, 0), (0, 0, 1),
                                     GraspType.SPHERICAL) for k in range(4)))
    ranked = rank_pool(pool, small_sphere_cloud, gripper)
    assert [c.pool_index for c in ranked] == [0, 1, 2, 3]
    assert all(c.quality == 0.0 and not len(c.contacts) for c in ranked)


def test_rank_pool_quality_sequence_stable_under_permutation(
        small_sphere_cloud, gripper):
    pool = sphere_pool()
    ranked = rank_pool(pool, small_sphere_cloud, gripper)
    shuffled = pool[[2, 0, 1]]
    ranked2 = rank_pool(shuffled, small_sphere_cloud, gripper)
    assert np.allclose([c.quality for c in ranked],
                       [c.quality for c in ranked2])


def test_rank_pool_params_respected(small_sphere_cloud, gripper, monkeypatch):
    """Coarser direction counts may only raise individual estimates: the
    count is looked up when the pool is ranked."""
    pool = sphere_pool()
    monkeypatch.setattr(graspeval, "QUALITY_DIRS", 4096)
    fine = rank_pool(pool, small_sphere_cloud, gripper)
    monkeypatch.setattr(graspeval, "QUALITY_DIRS", 256)
    coarse = rank_pool(pool, small_sphere_cloud, gripper)
    fine_by_idx = {c.pool_index: c.quality for c in fine}
    coarse_by_idx = {c.pool_index: c.quality for c in coarse}
    for idx in fine_by_idx:
        assert fine_by_idx[idx] <= coarse_by_idx[idx] + 1e-15


@pytest.mark.parametrize("field,value", [
    ("tube_radius", 0.0), ("tube_radius", -0.005), ("tube_radius", float("nan")),
    ("max_aperture", -1.0), ("friction_mu", float("nan"))])
def test_rank_pool_rejects_bad_eval_params(field, value, small_sphere_cloud, gripper):
    """The bounds the CLI puts on its flags hold for library callers of the
    ranking too, on every gripper field it grades with: no contact index of
    a zero tube, no rays from a negative aperture, no NaN friction cone."""
    with pytest.raises(ValueError, match=field) as exc:
        rank_pool(sphere_pool(), small_sphere_cloud,
                  dataclasses.replace(gripper, **{field: value}))
    assert isinstance(exc.value, ConfigError) and exc.value.field == f"GripperConfig.{field}"


def rank_case(name, request):
    """(pool, cloud, gripper) of a named ranking case."""
    gripper = GripperConfig()
    if name in ("small_sphere_cloud", "sphere_cloud", "lshape_cloud", "dumbbell_cloud"):
        cloud = request.getfixturevalue(name)
        return planned_pool(cloud, gripper), cloud, gripper
    cloud = request.getfixturevalue("small_sphere_cloud")
    if name == "empty":
        return pool_rows(), cloud, gripper
    if name == "all-miss":
        return pool_rows(*(make_pregrasp((1.0 + 0.1 * k, 1.0, 1.0), (1, 0, 0), (0, 0, 1),
                                         GraspType.SPHERICAL) for k in range(4))), cloud, gripper
    if name == "one":
        return sphere_pool()[2:], cloud, gripper
    return dense_case(name)


@functools.lru_cache(maxsize=None)
def dense_case(name):
    """(pool, cloud, gripper) of a 10k shape at the dense sampling of
    perfbench's dense-pool workload, with a wide aperture so that the box
    and the plate get a pool too; built once, and only read."""
    kind, dims = dict((f"{k}-10k", (k, d)) for k, d in SHAPES_10K)[name]
    gripper = GripperConfig(max_aperture=0.25)
    cloud = synth_shape(kind, dims, 10000, seed=1)
    cfg = RunConfig()
    tree = decompose(cloud, cfg.decomposition)
    pool = generate_pool(tree, helpers.classes_for(tree, cloud, cfg.thresholds),
                         compute_face_states(tree, gripper.finger_length), gripper,
                         SamplingParams(10.0, 0.005))
    return pool, cloud, gripper


@pytest.mark.bitexact
@pytest.mark.parametrize("name", [
    "small_sphere_cloud", "sphere_cloud", "lshape_cloud", "dumbbell_cloud",
    *(f"{kind}-10k" for kind, _ in SHAPES_10K), "empty", "all-miss", "one"])
def test_rank_pool_matches_reference_bytes(name, request):
    """The ranking section of the run document from the sliced, batched
    ranking equals the one from grading each candidate on its own with a
    scan of every point, byte for byte."""
    pool, cloud, gripper = rank_case(name, request)
    got = json.dumps(_ranking_section(rank_pool(pool, cloud, gripper)))
    ref = json.dumps(_ranking_section(oracles.reference_rank_pool(pool, cloud, gripper)))
    assert got == ref


@pytest.mark.bitexact
@pytest.mark.parametrize("name", [f"{kind}-10k" for kind, _ in SHAPES_10K])
def test_rank_pool_matches_reference_bytes_in_slices_of_128(name, monkeypatch):
    """As above, with the pool ranked in slices of 128 pre-grasps: every
    pool but the plate's spans several slices."""
    pool, cloud, gripper = dense_case(name)
    assert len(pool) > (0 if name == "plate-10k" else 2 * 128)
    monkeypatch.setattr(graspeval, "_POOL_SLICE", 128)
    got = json.dumps(_ranking_section(rank_pool(pool, cloud, gripper)))
    ref = json.dumps(_ranking_section(oracles.reference_rank_pool(pool, cloud, gripper)))
    assert got == ref


PLAN_IMPORTS = """
import sys
import pregrasp
from pregrasp.pipeline import RunConfig, run_pipeline
from pregrasp.pointcloud import SYNTH_KINDS, synth_shape
cloud = synth_shape("dumbbell", tuple(SYNTH_KINDS["dumbbell"].values()), 3000, seed=1)
before = {name for name in sys.modules if name.startswith("numpy")}
doc = run_pipeline(cloud, RunConfig(), upto="rank")
assert doc["ranking"]
print(sorted({name for name in sys.modules if name.startswith("numpy")} - before))
"""


def test_a_plan_imports_no_numpy_submodule():
    """In a fresh process, a plan through ranking imports no numpy submodule
    that importing pregrasp and building the cloud did not.  Under numpy 2
    the first call of np.unique imports numpy.ma, a cost every process pays."""
    import pregrasp

    env = dict(os.environ, PYTHONPATH=str(Path(pregrasp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", PLAN_IMPORTS], env=env, stdout=subprocess.PIPE,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"
