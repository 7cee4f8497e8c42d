"""Three-finger pre-grasp planning from raw point clouds.

Pipeline: fit-and-split box decomposition of the cloud, per-box shape
classification, occlusion face masks, enclosing-surface pre-grasp sampling,
and wrench-space quality ranking.  See the README for the CLI entry points;
the stages' own functions are imported from their submodules.
"""

from .classifier import ClassifierThresholds, GraspType
from .decomposition import DecompParams, OrientedBox, decompose
from .errors import (BadDimension, ConfigError, DegenerateInput, EmptyCloud,
                     EmptySide, EmptyWrenchSet, NoContacts, ParseError,
                     PreGraspError)
from .pipeline import RunConfig, run_pipeline
from .pointcloud import PointCloud, load_cloud, load_results, save_results, synth_shape
from .sampler import GripperConfig, SamplingParams

__version__ = "0.1.0"

__all__ = [
    "BadDimension", "ClassifierThresholds", "ConfigError", "DecompParams",
    "DegenerateInput", "EmptyCloud", "EmptySide", "EmptyWrenchSet", "GraspType",
    "GripperConfig", "NoContacts", "OrientedBox", "ParseError", "PointCloud",
    "PreGraspError", "RunConfig", "SamplingParams", "decompose", "load_cloud",
    "load_results", "run_pipeline", "save_results", "synth_shape",
]
