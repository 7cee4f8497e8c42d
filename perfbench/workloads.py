"""The benchmark's workloads: which clouds are planned, and with which config.

Every cloud comes from ``pregrasp.synth_shape``.  Its seed is derived from the
workload seed given on the command line and the cloud's place in the mix, so
the same workload seed always gives the same inputs.  The planner itself only
ever sees the generated points (in memory, or written to a file it loads).
"""

import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# Default dimensions of `pregrasp synth` (meters), in synth_shape's dims order.
SHAPE_DIMS = {
    "box": (0.2, 0.15, 0.1),
    "sphere": (0.05,),
    "cylinder": (0.03, 0.2),
    "plate": (0.2, 0.15, 0.01),
    "dumbbell": (0.2, 0.08, 0.03, 0.015),
    "lshape": (0.2, 0.15, 0.04),
}

DENSE_SAMPLING = (10.0, 0.005)   # (angular_step degrees, axial_step meters)


@dataclass(frozen=True)
class CloudSpec:
    kind: str
    n: int
    fmt: Optional[str] = None    # None: planned in memory; "xyz" / "ply": via a file


@dataclass(frozen=True)
class Workload:
    """A mix of clouds planned in rounds; why each was chosen is in BENCHMARK.json."""

    name: str
    clouds: Tuple[CloudSpec, ...]
    sampling: Optional[Tuple[float, float]] = None   # None: the RunConfig default


# parts-mixed runs by hand but is not in BENCHMARK.json.  A run plans every
# cloud twice (warm-up and measured), which takes 40-60 s on a 2-CPU machine, and
# three such workloads do not fit the benchmark's total run budget.  Its
# median also falls in the gap between the 5k and 50k clouds, so it spread 13-20%
# across seeds.  Its decomposition work is still measured on large-scan.
WORKLOADS = {w.name: w for w in (
    Workload(
        "parts-mixed",
        tuple(CloudSpec(kind, n) for kind in SHAPE_DIMS for n in (5000, 50000)),
    ),
    # Two clouds (two seeds) of each shape at 10k points: a round of one cloud
    # each at 20k held only 4 plans, whose median spread 13-23% across seeds
    # (pool sizes and trees vary with the seed); 8 plans at 10k take as long.
    Workload(
        "dense-pool",
        tuple(CloudSpec(kind, 10000) for kind in ("sphere", "cylinder", "dumbbell", "lshape") * 2),
        sampling=DENSE_SAMPLING,
    ),
    Workload(
        "large-scan",
        (CloudSpec("dumbbell", 100000, "xyz"), CloudSpec("lshape", 100000, "ply")),
    ),
)}


# The set-up probe plans the same cloud whatever the workload seed, so that
# setup_s moves with the program and not with the input.  It takes the path
# (memory or file format) of the workload's first cloud.
PROBE_KIND, PROBE_POINTS, PROBE_SEED = "dumbbell", 3000, 0


def cloud_seed(workload_seed, index):
    """Seed of the cloud at `index` in the mix."""
    return workload_seed * 1000 + index


def make_config(workload, input_path="", out_path="run.json"):
    from pregrasp.pipeline import RunConfig
    from pregrasp.sampler import SamplingParams

    cfg = RunConfig(input=input_path, out=out_path)
    if workload.sampling is not None:
        cfg.sampling = SamplingParams(*workload.sampling)
    return cfg


def make_cloud(spec, seed):
    from pregrasp import synth_shape

    return synth_shape(spec.kind, SHAPE_DIMS[spec.kind], spec.n, seed)


def write_cloud(points, path, fmt):
    """Write points as `.xyz` or ASCII `.ply`, 9 significant digits."""
    rows = "\n".join(f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in np.asarray(points).tolist())
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "ply":
            fh.write(f"ply\nformat ascii 1.0\nelement vertex {len(points)}\n"
                     "property float x\nproperty float y\nproperty float z\nend_header\n")
        else:
            fh.write(f"# {os.path.basename(path)}\n")
        fh.write(rows + "\n")
