"""PCA shape statistics and the category -> grasp-type mapping."""

import numpy as np

import helpers

from pregrasp import ClassifierThresholds, GraspType, synth_shape
from pregrasp.classifier import ShapeCategory, classify, pca
from pregrasp.decomposition import fit_obb


def _classify_cloud(cloud):
    extents = cloud.points.max(axis=0) - cloud.points.min(axis=0)
    return classify(pca(cloud.points), extents)


# ---------------------------------------------------------------------------
# the four canonical shapes
# ---------------------------------------------------------------------------

def test_cylinder_is_one_dimensional():
    cloud = synth_shape("cylinder", (0.02, 0.2), 2000, seed=0)
    cat, grasp = _classify_cloud(cloud)
    assert cat is ShapeCategory.ONE_DIMENSIONAL
    assert grasp is GraspType.CYLINDRICAL


def test_sphere_is_large_blob():
    cloud = synth_shape("sphere", (0.05,), 2000, seed=0)
    cat, grasp = _classify_cloud(cloud)
    assert cat is ShapeCategory.THREE_DIMENSIONAL_LARGE
    assert grasp is GraspType.SPHERICAL


def test_plate_is_two_dimensional():
    cloud = synth_shape("box", (0.1, 0.1, 0.005), 2000, seed=0)
    cat, grasp = _classify_cloud(cloud)
    assert cat is ShapeCategory.TWO_DIMENSIONAL
    assert grasp is GraspType.THREE_FINGERTIP


def test_small_cube_is_two_fingertip():
    cloud = synth_shape("box", (0.02, 0.02, 0.02), 2000, seed=0)
    cat, grasp = _classify_cloud(cloud)
    assert cat is ShapeCategory.THREE_DIMENSIONAL_SMALL
    assert grasp is GraspType.TWO_FINGERTIP


def test_grasp_type_mapping_is_total():
    expected = {
        ShapeCategory.ONE_DIMENSIONAL: GraspType.CYLINDRICAL,
        ShapeCategory.TWO_DIMENSIONAL: GraspType.THREE_FINGERTIP,
        ShapeCategory.THREE_DIMENSIONAL_SMALL: GraspType.TWO_FINGERTIP,
        ShapeCategory.THREE_DIMENSIONAL_LARGE: GraspType.SPHERICAL,
    }
    for cat, grasp in expected.items():
        eigen = {
            ShapeCategory.ONE_DIMENSIONAL: (9.0, 1.0, 1.0),
            ShapeCategory.TWO_DIMENSIONAL: (2.0, 2.0, 0.1),
            ShapeCategory.THREE_DIMENSIONAL_SMALL: (1.0, 1.0, 1.0),
            ShapeCategory.THREE_DIMENSIONAL_LARGE: (1.0, 1.0, 1.0),
        }[cat]
        extents = (0.02,) * 3 if cat is ShapeCategory.THREE_DIMENSIONAL_SMALL else (0.2,) * 3
        got_cat, got_grasp = classify(np.array(eigen), np.array(extents))
        assert got_cat is cat
        assert got_grasp is grasp


# ---------------------------------------------------------------------------
# threshold boundaries
# ---------------------------------------------------------------------------

def _cat(eigenvalues, extents=(0.2, 0.2, 0.2), thresholds=None):
    return classify(np.asarray(eigenvalues, dtype=float), np.asarray(extents),
                    thresholds)[0]


def test_elongation_threshold_is_inclusive():
    assert _cat((4.0, 1.0, 1.0)) is ShapeCategory.ONE_DIMENSIONAL
    assert _cat((3.999999, 1.0, 1.0)) is ShapeCategory.THREE_DIMENSIONAL_LARGE


def test_flatness_threshold_is_inclusive():
    assert _cat((1.0, 1.0, 0.25)) is ShapeCategory.TWO_DIMENSIONAL
    assert _cat((1.0, 1.0, 0.2500001)) is ShapeCategory.THREE_DIMENSIONAL_LARGE


def test_small_object_threshold_is_strict():
    assert _cat((1.0, 1.0, 1.0), extents=(0.0399, 0.03, 0.03)) is ShapeCategory.THREE_DIMENSIONAL_SMALL
    assert _cat((1.0, 1.0, 1.0), extents=(0.04, 0.03, 0.03)) is ShapeCategory.THREE_DIMENSIONAL_LARGE


def test_zero_eigenvalue_edge_cases():
    # flat to a line: lambda2 = 0 -> infinitely elongated
    assert _cat((1.0, 0.0, 0.0)) is ShapeCategory.ONE_DIMENSIONAL
    # flat to a plane: lambda3 = 0 -> infinitely flat
    assert _cat((1.0, 1.0, 0.0)) is ShapeCategory.TWO_DIMENSIONAL
    # lambda2 = 0 always reads as elongated (a degenerate cloud of coincident
    # points never reaches the classifier; the box fitter rejects it first)
    assert _cat((0.0, 0.0, 0.0)) is ShapeCategory.ONE_DIMENSIONAL


def test_custom_thresholds_respected():
    t = ClassifierThresholds(tau_long=10.0, tau_flat=10.0, s_small=0.5)
    assert _cat((9.0, 1.0, 1.0), extents=(0.4, 0.4, 0.4), thresholds=t) \
        is ShapeCategory.THREE_DIMENSIONAL_SMALL


# ---------------------------------------------------------------------------
# pca
# ---------------------------------------------------------------------------

def test_pca_eigenvalues_sorted_descending():
    cloud = synth_shape("box", (0.3, 0.1, 0.05), 2000, seed=4)
    lam = pca(cloud.points)
    assert lam[0] >= lam[1] >= lam[2] >= 0.0


def test_pca_matches_direct_covariance_eigenvalues():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(500, 3)) * [3.0, 2.0, 0.5]
    centered = pts - pts.mean(axis=0)
    ref = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(pts)))[::-1]
    np.testing.assert_allclose(pca(pts), ref, atol=1e-12)


def test_pca_rotation_invariant_eigenvalues():
    cloud = synth_shape("lshape", (0.2, 0.15, 0.04), 1500, seed=5)
    base = pca(cloud.points)
    for seed in range(100):
        rot = helpers.random_rotation(np.random.default_rng(seed))
        rotated = pca(cloud.points @ rot.T)
        np.testing.assert_allclose(rotated, base, atol=1e-9)


def test_classification_rotation_invariant():
    fixtures = [
        ("cylinder", (0.02, 0.2), ShapeCategory.ONE_DIMENSIONAL),
        ("box", (0.1, 0.1, 0.005), ShapeCategory.TWO_DIMENSIONAL),
        ("sphere", (0.05,), ShapeCategory.THREE_DIMENSIONAL_LARGE),
    ]
    for kind, dims, expected in fixtures:
        cloud = synth_shape(kind, dims, 1200, seed=6)
        for seed in range(10):
            rot = helpers.random_rotation(np.random.default_rng(200 + seed))
            pts = cloud.points @ rot.T
            # extents of the fitted box, as the pipeline takes them
            extents = 2.0 * fit_obb(pts).half_extents
            assert classify(pca(pts), extents)[0] is expected
