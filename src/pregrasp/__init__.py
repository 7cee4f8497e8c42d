"""Three-finger pre-grasp planning from raw point clouds.

Pipeline: fit-and-split box decomposition of the cloud, per-box shape
classification, occlusion face masks, enclosing-surface pre-grasp sampling,
and wrench-space quality ranking.  See the README for the CLI entry points.
"""

from .classifier import (ClassifierThresholds, GraspType, ShapeCategory,
                         classify, pca)
from .decomposition import (DecompNode, DecompParams, DecompTree, OrientedBox,
                            SplitPlane, decompose, evaluate_split, fit_obb)
from .errors import (BadDimension, ConfigError, DegenerateInput, EmptyCloud,
                     EmptySide, EmptyWrenchSet, NoContacts, ParseError,
                     PreGraspError)
from .facemask import (FaceDir, FaceId, FaceMask, SubFace, adjacent_face,
                       cells_containing, compute_face_states, face_frame,
                       face_mask, face_slab, obb_overlap, subfaces)
from .graspeval import (ContactPoint, EvalParams, GraspCandidate,
                        epsilon_quality, estimate_contacts, finger_rays,
                        rank_pool, wrench_set)
from .pipeline import STAGES, RunConfig, run_pipeline
from .pointcloud import (PointCloud, SYNTH_KINDS, load_cloud, load_results,
                         save_results, synth_shape)
from .sampler import (GripperConfig, PreGrasp, SamplingParams, generate_pool,
                      select_nodes)

__version__ = "0.1.0"

__all__ = [
    "BadDimension", "ClassifierThresholds", "ConfigError", "ContactPoint",
    "DecompNode", "DecompParams", "DecompTree", "DegenerateInput",
    "EmptyCloud", "EmptySide", "EmptyWrenchSet", "EvalParams", "FaceDir",
    "FaceId", "FaceMask", "GraspCandidate", "GraspType", "GripperConfig",
    "NoContacts", "OrientedBox", "ParseError", "PointCloud",
    "PreGrasp", "PreGraspError", "RunConfig", "STAGES",
    "SYNTH_KINDS", "SamplingParams", "ShapeCategory", "SplitPlane",
    "SubFace", "adjacent_face", "cells_containing", "classify",
    "compute_face_states", "decompose", "epsilon_quality", "estimate_contacts",
    "evaluate_split", "face_frame", "face_mask", "face_slab", "finger_rays",
    "fit_obb", "generate_pool", "load_cloud", "load_results", "obb_overlap",
    "pca", "rank_pool", "run_pipeline", "save_results",
    "select_nodes", "subfaces", "synth_shape", "wrench_set",
]
