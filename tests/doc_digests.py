"""Digests of run documents, to show that a change keeps them byte-identical.

Prints one ``label sha256`` line per cloud.  The digest is of the run
document without ``timings_ms``, dumped as JSON with sorted keys.  The clouds:

* the six synth shapes at 5k points, ``pregrasp synth`` default dimensions,
  default config;
* three 5k-point clouds whose pools hold the grasp types the others' do
  not: the box (Spherical) and the plate (ThreeFingertip) with a 25 cm
  gripper aperture, and a sphere of radius 1.5 cm (TwoFingertip);
* the 8 ``dense-pool`` clouds of workload seed 1, with that workload's
  sampling;
* the 2 ``large-scan`` clouds of workload seed 1, written as ``.xyz`` /
  ``.ply`` in a temporary directory and read back with ``load_cloud``.

The clouds and configs come from ``perfbench/workloads.py``, which is only
read.  The documents are planned by whatever ``pregrasp`` is on PYTHONPATH, so
to compare two trees, run this script once per tree's ``src`` and diff:

    PYTHONPATH=/path/to/other/src python tests/doc_digests.py > before.txt
    PYTHONPATH=src python tests/doc_digests.py > after.txt
    diff before.txt after.txt

Pytest does not collect this file (it is not named ``test_*.py``).  A full run
takes about 15 s on two CPUs.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SYNTH_POINTS, SYNTH_SEED, WORKLOAD_SEED = 5000, 1, 1

# (label, synth kind, dimensions, gripper max_aperture)
GRASP_TYPE_CLOUDS = (
    ("box-wide", "box", workloads.SHAPE_DIMS["box"], 0.25),
    ("plate-wide", "plate", workloads.SHAPE_DIMS["plate"], 0.25),
    ("sphere-1.5cm", "sphere", (0.015,), 0.10),
)


def digest(doc):
    doc = {k: v for k, v in doc.items() if k != "timings_ms"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def documents():
    """(label, run document) for every cloud, in a fixed order."""
    from pregrasp import load_cloud, run_pipeline, synth_shape

    plain = workloads.Workload("synth", ())
    for kind in workloads.SHAPE_DIMS:
        cloud = workloads.make_cloud(workloads.CloudSpec(kind, SYNTH_POINTS), SYNTH_SEED)
        yield f"synth:{kind}-{SYNTH_POINTS}", run_pipeline(cloud, workloads.make_config(plain))

    for label, kind, dims, aperture in GRASP_TYPE_CLOUDS:
        cloud = synth_shape(kind, dims, SYNTH_POINTS, SYNTH_SEED)
        cfg = workloads.make_config(plain)
        cfg.gripper.max_aperture = aperture
        yield f"synth:{label}-{SYNTH_POINTS}", run_pipeline(cloud, cfg)

    for name in ("dense-pool", "large-scan"):
        workload = workloads.WORKLOADS[name]
        for i, spec in enumerate(workload.clouds):
            cloud = workloads.make_cloud(spec, workloads.cloud_seed(WORKLOAD_SEED, i))
            label = f"{name}:{i}:{spec.kind}-{spec.n}"
            if spec.fmt is None:
                yield label, run_pipeline(cloud, workloads.make_config(workload))
                continue
            # relative names, so the documents do not depend on the directory
            path = f"{i}-{spec.kind}.{spec.fmt}"
            workloads.write_cloud(cloud.points, path, spec.fmt)
            yield f"{label}.{spec.fmt}", run_pipeline(
                load_cloud(path), workloads.make_config(workload, path, path + ".json"))


def main():
    import pregrasp

    print(f"pregrasp from {os.path.dirname(pregrasp.__file__)}", file=sys.stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="doc-digests-") as tmp:
        os.chdir(tmp)
        try:
            for label, doc in documents():
                print(label, digest(doc), flush=True)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
