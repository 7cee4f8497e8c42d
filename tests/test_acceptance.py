"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Every test prints a [PASS]/[FAIL] line (visible in normal pytest runs) so the
gate doubles as a human-readable checklist.  The heavy shared suites
(decomposition invariants, MVBB oracle ratios) are cached in helpers and
reused by the per-module tests.
"""

import itertools
import json
import re
import time

import numpy as np
import pytest

import helpers
import oracles
from pregrasp import (ClassifierThresholds, DecompParams, GraspType,
                      GripperConfig, decompose, synth_shape)
from pregrasp.classifier import ShapeCategory, classify, pca
from pregrasp.cli import main as cli_main
from pregrasp.facemask import FaceId, compute_face_states
from pregrasp.graspeval import epsilon_quality, rank_pool
from pregrasp.pipeline import RunConfig, run_pipeline
from pregrasp.pointcloud import PointCloud
from pregrasp.sampler import (SamplingParams, generate_pool, sample_node,
                              select_nodes)


def verdict(capsys, number, summary, body):
    """Run one criterion body, printing a visible one-line verdict."""
    try:
        detail = body()
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] criterion {number}: {summary}")
        raise
    line = f"[PASS] criterion {number}: {summary}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print("\n" + line)


# ---------------------------------------------------------------------------

def test_criterion_01_decomposition_fixtures(capsys):
    def body():
        fixtures = [
            ("sphere", (0.05,), 5000, 1),
            ("lshape", (0.1, 0.1, 0.04), 6000, 3),
            ("dumbbell", (0.2, 0.08, 0.03, 0.015), 8000, 3),
        ]
        trees, slowest = {}, 0.0
        for kind, dims, n, seed in fixtures:
            cloud = synth_shape(kind, dims, n, seed=seed)
            t0 = time.perf_counter()
            trees[kind] = decompose(cloud, DecompParams())
            slowest = max(slowest, time.perf_counter() - t0)
        assert len(trees["sphere"].nodes) == 1
        assert len(trees["lshape"].leaf_ids()) == 2
        assert len(trees["dumbbell"].leaf_ids()) >= 2
        assert slowest < 2.0
        return (f"sphere 1 node, lshape 2 leaves, dumbbell "
                f"{len(trees['dumbbell'].leaf_ids())} leaves; "
                f"slowest {slowest:.2f} s")
    verdict(capsys, 1, "defaults give 1 / 2 / >=2 boxes in under 2 s", body)


def test_criterion_02_mvbb_vs_rotation_grid_oracle(capsys):
    def body():
        ratios = helpers.mvbb_oracle_ratios()
        worst = max(ratios.values())
        assert len(ratios) == 50
        assert worst <= 1.05
        return f"worst fitted/oracle volume ratio {worst:.4f} over 50 clouds"
    verdict(capsys, 2, "MVBB volume within 1.05x of the 2-degree grid oracle",
            body)


def test_criterion_03_decomposition_invariants(capsys):
    def body():
        count = helpers.run_invariant_suite()
        assert count >= 1000
        return f"{count} checks across 3 fixtures + 20 random clouds"
    verdict(capsys, 3, "containment/partition/volume/determinism suite", body)


def test_criterion_04_classification(capsys):
    def body():
        shapes = [
            ("cylinder", (0.02, 0.2), ShapeCategory.ONE_DIMENSIONAL,
             GraspType.CYLINDRICAL),
            ("sphere", (0.05,), ShapeCategory.THREE_DIMENSIONAL_LARGE,
             GraspType.SPHERICAL),
            ("box", (0.1, 0.1, 0.005), ShapeCategory.TWO_DIMENSIONAL,
             GraspType.THREE_FINGERTIP),
            ("box", (0.02, 0.02, 0.02), ShapeCategory.THREE_DIMENSIONAL_SMALL,
             GraspType.TWO_FINGERTIP),
        ]
        for kind, dims, want_cat, want_grasp in shapes:
            cloud = synth_shape(kind, dims, 2000, seed=0)
            lam = pca(cloud.points)
            extents = cloud.points.max(axis=0) - cloud.points.min(axis=0)
            cat, grasp = classify(lam, extents)
            assert cat is want_cat and grasp is want_grasp, kind
        base = pca(synth_shape("box", (0.12, 0.07, 0.03), 2000, seed=5).points)
        pts = synth_shape("box", (0.12, 0.07, 0.03), 2000, seed=5).points
        rng = np.random.default_rng(123)
        worst = 0.0
        for _ in range(100):
            rot = helpers.random_rotation(rng)
            lam = pca(pts @ rot.T)
            worst = max(worst, float(np.abs(lam - base).max()))
        assert worst <= 1e-9
        return f"4 canonical shapes; eigenvalue drift {worst:.1e} over 100 rotations"
    verdict(capsys, 4, "shape-to-grasp mapping + rotation invariance", body)


def test_criterion_05_face_mask(capsys):
    def body():
        checked = helpers.exhaustive_subface_consistency()
        assert checked == 64 * 128

        tree = helpers.stacked_boxes_tree()
        states = compute_face_states(tree, 0.08)
        assert states[1].tolist() == [0, 0, 0, 0, 1, 0]
        assert states[2].tolist() == [0, 0, 0, 0, 0, 1]

        # blocking +W removes exactly the +W-adjacent row/column of the 3x3
        # neighbours (and the +W face itself); -W keeps all nine cells
        box = helpers.axis_box((0, 0, 0), (0.1, 0.06, 0.03))
        mask = [0, 0, 0, 0, 1, 0]
        pairs = helpers.free_subfaces(mask, GraspType.SPHERICAL, box)
        free = {f: {cell for face, cell in pairs if face == f} for f in FaceId}
        assert free[FaceId.PLUS_U] == free[FaceId.MINUS_U] == set(range(6))
        assert free[FaceId.PLUS_V] == free[FaceId.MINUS_V] == {0, 1, 3, 4, 6, 7}
        assert free[FaceId.PLUS_W] == set()
        assert free[FaceId.MINUS_W] == set(range(9))
        return f"{checked} sub-face states verified"
    verdict(capsys, 5, "64-state masks, touching faces, strip propagation",
            body)


def test_criterion_06_sampling_free_subfaces_only(capsys):
    def body():
        gripper, sampling = GripperConfig(), SamplingParams()
        # exhaustive: every face-state combination, all three surface schemes
        box = helpers.axis_box((0, 0, 0), (0.04, 0.025, 0.015))
        node = helpers.DecompNode(0, box, np.arange(10), None, ())
        surfaces = (GraspType.SPHERICAL, GraspType.CYLINDRICAL,
                    GraspType.THREE_FINGERTIP)
        total = 0
        for combo in itertools.product((0, 1), repeat=6):
            mask = list(combo)
            for gtype in surfaces:
                free = helpers.free_subfaces(mask, gtype, box)
                for pg in sample_node(node, mask, gripper, sampling, gtype):
                    assert helpers.source_subface(pg) in free
                    assert helpers.ray_hits_box(box, pg["position"], pg["approach"])
                    total += 1

        # pipeline fixtures
        for kind, dims, n, seed in [("sphere", (0.05,), 5000, 1),
                                    ("lshape", (0.1, 0.1, 0.04), 6000, 3),
                                    ("dumbbell", (0.2, 0.08, 0.03, 0.015),
                                     8000, 3)]:
            cloud = synth_shape(kind, dims, n, seed=seed)
            tree = decompose(cloud, DecompParams())
            classes = helpers.classes_for(tree, cloud)
            masks = compute_face_states(tree, gripper.finger_length)
            pool = generate_pool(tree, classes, masks, gripper, sampling)
            assert len(pool)
            for pg in pool:
                assert helpers.subface_is_free(tree, classes, masks, pg)
                box = tree.node(pg["source_node"]).box
                assert helpers.ray_hits_box(box, pg["position"], pg["approach"])
            total += len(pool)

        # three-fingertip circle, all free, 30 degrees -> exactly 12
        plate = helpers.DecompNode(
            0, helpers.axis_box((0, 0, 0), (0.05, 0.04, 0.0025)),
            np.arange(10), None, ())
        twelve = sample_node(plate, [0] * 6, gripper, sampling,
                             GraspType.THREE_FINGERTIP)
        assert len(twelve) == 12
        return f"{total} samples checked; circle fixture yields 12"
    verdict(capsys, 6, "samples only from free sub-faces, rays hit their box",
            body)


def test_criterion_07_traversal_gating(capsys):
    def body():
        tree = helpers.oversized_parent_tree()
        classes = helpers.constant_classes(
            tree, ShapeCategory.THREE_DIMENSIONAL_LARGE, GraspType.SPHERICAL)
        assert select_nodes(tree, classes, GripperConfig()) == [1, 2]
        return "0.15 m parent skipped, both 0.07 m children selected"
    verdict(capsys, 7, "oversized part defers to graspable children", body)


def test_criterion_08_quality_metric(capsys, small_sphere_cloud, gripper):
    def body():
        from test_graspeval import (cross_polytope_wrenches, make_pregrasp,
                                    sphere_pool, wrenches_of)
        got = epsilon_quality(cross_polytope_wrenches(), n_dirs=14896)
        exact = 1.0 / np.sqrt(6.0)
        cross_err = abs(got - exact) / exact
        assert cross_err <= 0.05

        single = wrenches_of(np.array([[[0.04, 0.0, 0.0], [-1.0, 0, 0]]]),
                             0.5, 8, np.zeros(3))
        assert epsilon_quality(single, n_dirs=14896) == 0.0

        from pregrasp.graspeval import estimate_contacts
        pinch = make_pregrasp((0.08, 0, 0), (-1, 0, 0), (0, 0, 1),
                              GraspType.TWO_FINGERTIP)
        contacts = estimate_contacts(pinch, small_sphere_cloud, gripper)
        wrenches = wrenches_of(contacts, gripper.friction_mu, 8,
                               small_sphere_cloud.centroid)
        est = epsilon_quality(wrenches, n_dirs=14896)
        ref = oracles.epsilon_support_reference(wrenches, n_dirs=2 ** 20)
        pinch_err = abs(est - ref) / ref
        assert pinch_err <= 0.10

        ranked = rank_pool(sphere_pool(), small_sphere_cloud, gripper)
        assert len(ranked[0].contacts) == 3 and len(ranked[1].contacts) == 2
        assert ranked[0].quality > ranked[1].quality > 0.0
        return (f"cross-polytope err {cross_err:.1e}, pinch vs oracle "
                f"{pinch_err:.1%}, 3-contact grasp ranked first")
    verdict(capsys, 8, "epsilon quality anchors and contact-count preference",
            body)


def test_criterion_09_performance_50k(capsys):
    def body():
        cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 50000, seed=4)
        t0 = time.perf_counter()
        doc = run_pipeline(cloud, RunConfig(), upto="rank")
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert 0 < len(doc["pool"]) <= 2000
        assert set(doc["timings_ms"]) == {"decompose", "classify", "mask",
                                          "sample", "rank"}
        return f"{elapsed:.2f} s, pool {len(doc['pool'])}"
    verdict(capsys, 9, "50k-point cloud through ranking in under 10 s", body)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    def body():
        cloud = tmp_path / "c.xyz"
        assert cli_main(["synth", "sphere", "--r", "0.04", "--n", "1500",
                         "--seed", "6", "--out", str(cloud)]) == 0
        out = tmp_path / "run.json"
        texts = []
        for _ in range(2):
            assert cli_main(["rank", "--input", str(cloud),
                             "--out", str(out)]) == 0
            texts.append(re.sub(r'"timings_ms": \{[^}]*\}',
                                '"timings_ms": {}', out.read_text()))
        assert texts[0] == texts[1]
        doc = json.loads(texts[0])
        assert doc["ranking"] and doc["best_index"] is not None
        return "byte-identical rank documents modulo timings"
    verdict(capsys, 10, "identical CLI runs reproduce the document", body)
