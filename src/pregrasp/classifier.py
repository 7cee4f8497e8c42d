"""PCA shape categories and the grasp type each one maps to.

Eigenvalue ratios of the point covariance separate elongated, flat and blocky
parts; blocky parts are then split by absolute size against the gripper scale.
"""

from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .geom import centred_rows, covariance, eigh_descending


class ShapeCategory(str, Enum):
    ONE_DIMENSIONAL = "OneDimensional"
    TWO_DIMENSIONAL = "TwoDimensional"
    THREE_DIMENSIONAL_SMALL = "ThreeDimensionalSmall"
    THREE_DIMENSIONAL_LARGE = "ThreeDimensionalLarge"


class GraspType(str, Enum):
    CYLINDRICAL = "Cylindrical"
    SPHERICAL = "Spherical"
    THREE_FINGERTIP = "ThreeFingertip"
    TWO_FINGERTIP = "TwoFingertip"


CATEGORY_TO_GRASP = {
    ShapeCategory.ONE_DIMENSIONAL: GraspType.CYLINDRICAL,
    ShapeCategory.TWO_DIMENSIONAL: GraspType.THREE_FINGERTIP,
    ShapeCategory.THREE_DIMENSIONAL_SMALL: GraspType.TWO_FINGERTIP,
    ShapeCategory.THREE_DIMENSIONAL_LARGE: GraspType.SPHERICAL,
}

# Hand preshape of each grasp type: (spread angle of the paired fingers about
# the approach axis in degrees, fingertip mode).
GRASP_PRESHAPE = {
    GraspType.CYLINDRICAL: (0.0, False),
    GraspType.SPHERICAL: (30.0, False),
    GraspType.THREE_FINGERTIP: (0.0, True),
    GraspType.TWO_FINGERTIP: (90.0, True),
}


@dataclass
class ClassifierThresholds:
    tau_long: float = 4.0    # lambda1/lambda2 at or above this -> elongated
    tau_flat: float = 4.0    # lambda2/lambda3 at or above this -> flat
    s_small: float = 0.04    # blocky parts with max extent below this (m) -> small
    BOUNDS: ClassVar[dict] = {"tau_long": "> 1", "tau_flat": "> 1", "s_small": "> 0"}


def pca(points):
    """Covariance eigenvalues of a point set (n >= 4), descending and clamped
    at zero.

    Raises:
        DegenerateInput: a point is not finite, all points coincide, or their
            sum or covariance overflows.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return eigh_descending(covariance(centred_rows(pts)[1]))[0]


def classify(eigenvalues, extents, thresholds=None):
    """Assign a shape category and grasp type.

    Args:
        eigenvalues: covariance eigenvalues of the node's points (3,),
            descending, as `pca` returns them.
        extents: full box dimensions (3,), meters.
        thresholds: ClassifierThresholds (defaults used when None).

    Rules, in order: elongated (lambda1/lambda2 >= tau_long) -> Cylindrical;
    flat (lambda2/lambda3 >= tau_flat) -> ThreeFingertip; small blocky
    (max extent < s_small) -> TwoFingertip; otherwise -> Spherical.
    """
    t = thresholds or ClassifierThresholds()
    l1, l2, l3 = eigenvalues
    ratio_12 = l1 / l2 if l2 > 0.0 else np.inf
    ratio_23 = l2 / l3 if l3 > 0.0 else (np.inf if l2 > 0.0 else 1.0)
    if ratio_12 >= t.tau_long:
        cat = ShapeCategory.ONE_DIMENSIONAL
    elif ratio_23 >= t.tau_flat:
        cat = ShapeCategory.TWO_DIMENSIONAL
    elif float(np.max(extents)) < t.s_small:
        cat = ShapeCategory.THREE_DIMENSIONAL_SMALL
    else:
        cat = ShapeCategory.THREE_DIMENSIONAL_LARGE
    return cat, CATEGORY_TO_GRASP[cat]
