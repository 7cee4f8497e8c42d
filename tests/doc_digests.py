"""Digests of run documents, to show that a change keeps them byte-identical.

Prints one ``label sha256`` line per cloud.  The digest is of the run
document without ``timings_ms``, dumped as JSON with sorted keys.  The clouds:

* the six synth shapes at 5k points, ``pregrasp synth`` default dimensions,
  default config;
* the dumbbell at 200k points, seed 1, default config: its root box fit and
  split screen reduce their per-point products block by block;
* the dumbbell at 20k points, seed 1, split down to ``min_points=100`` at
  ``volume_ratio=1.0``, defaults otherwise: 221 nodes, so its mask has
  hundreds of blocked faces and its pool 1,399 rows;
* three 5k-point clouds whose pools hold the grasp types the others' do
  not: the box (Spherical) and the plate (ThreeFingertip) with a 25 cm
  gripper aperture, and a sphere of radius 1.5 cm (TwoFingertip);
* the 8 ``dense-pool`` clouds of workload seed 1, with that workload's
  sampling;
* the 2 ``large-scan`` clouds of workload seed 1, written as ``.xyz`` /
  ``.ply`` in a temporary directory and read back with ``load_cloud``.

The clouds and configs come from ``perfbench/workloads.py``, which is only
read.  The documents are planned by whatever ``pregrasp`` is on PYTHONPATH, so
to compare two trees, run it on one and name the other's ``src``:

    PYTHONPATH=src python tests/doc_digests.py --against /path/to/other/src

``--against`` reruns the script in a subprocess with ``PYTHONPATH`` set to
that directory and the rest of the environment unchanged (so
``OPENBLAS_CORETYPE`` and ``PYTHONHASHSEED`` carry over), prints each label
whose digest differs and exits 1 if any digest or label differs.

``--skeleton`` digests each document's discrete content instead (see
`skeleton`), which a float's last bits change only where a decision flips:
a tree, shape class, mask, pool row or ranking order that differs between
two BLAS kernels is such a flip.

Pytest does not collect this file (it is not named ``test_*.py``).  A full run
takes about 20 s on two CPUs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SYNTH_POINTS, SYNTH_SEED, WORKLOAD_SEED = 5000, 1, 1
LARGE_POINTS = 200000
FINE_POINTS, FINE_SPLIT = 20000, (100, 1.0)    # (min_points, volume_ratio)

# (label, synth kind, dimensions, gripper max_aperture)
GRASP_TYPE_CLOUDS = (
    ("box-wide", "box", workloads.SHAPE_DIMS["box"], 0.25),
    ("plate-wide", "plate", workloads.SHAPE_DIMS["plate"], 0.25),
    ("sphere-1.5cm", "sphere", (0.015,), 0.10),
)


def digest(doc):
    doc = {k: v for k, v in doc.items() if k != "timings_ms"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def skeleton(doc):
    """The discrete content of a full run document: each node's parent,
    children and point count; each node's category and grasp type; each
    mask's matrix and free sub-face counts; each pool row's grasp type and
    source (node, face, cell); the ranking's pool-index order, contact counts
    and which qualities are > 0; and `best_index`."""
    return {
        "nodes": [[n["parent"], n["children"], n["point_count"]] for n in doc["tree"]["nodes"]],
        "classes": [[c["category"], c["grasp_type"]] for c in doc["classifications"]],
        "masks": [[m["matrix"], m["free_subface_counts"]] for m in doc["masks"]],
        "pool": [[p["grasp_type"], p["source_node"], p["source_face"], p["source_cell"]]
                 for p in doc["pool"]],
        "ranking": [[r["pool_index"], r["contact_count"], r["quality"] > 0]
                    for r in doc["ranking"]],
        "best_index": doc["best_index"],
    }


def documents():
    """(label, run document) for every cloud, in a fixed order."""
    from pregrasp import load_cloud, run_pipeline, synth_shape

    plain = workloads.Workload("synth", ())
    for kind in workloads.SHAPE_DIMS:
        cloud = workloads.make_cloud(workloads.CloudSpec(kind, SYNTH_POINTS), SYNTH_SEED)
        yield f"synth:{kind}-{SYNTH_POINTS}", run_pipeline(cloud, workloads.make_config(plain))

    cloud = workloads.make_cloud(workloads.CloudSpec("dumbbell", LARGE_POINTS), SYNTH_SEED)
    yield f"synth:dumbbell-{LARGE_POINTS}", run_pipeline(cloud, workloads.make_config(plain))

    cloud = workloads.make_cloud(workloads.CloudSpec("dumbbell", FINE_POINTS), SYNTH_SEED)
    cfg = workloads.make_config(plain)
    cfg.decomposition.min_points, cfg.decomposition.volume_ratio = FINE_SPLIT
    yield f"synth:dumbbell-{FINE_POINTS}-fine", run_pipeline(cloud, cfg)

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


def digests(skeletons=False):
    """(label, digest) for every cloud, planned in a temporary directory; of
    each document's skeleton if `skeletons`."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="doc-digests-") as tmp:
        os.chdir(tmp)
        try:
            for label, doc in documents():
                yield label, digest(skeleton(doc) if skeletons else doc)
        finally:
            os.chdir(cwd)


def against(src, skeletons=False):
    """Compare this interpreter's digests with those of the package in `src`,
    planned by this script in a subprocess with PYTHONPATH=src and the rest
    of the environment unchanged.  Prints each label whose digest differs (or
    that only one side has); returns 1 if any does, else 0."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, os.path.abspath(__file__)]
                         + ["--skeleton"] * skeletons, env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    theirs = dict(line.split() for line in out.splitlines())
    ours = dict(digests(skeletons))
    differ = [label for label in {**theirs, **ours} if theirs.get(label) != ours.get(label)]
    for label in differ:
        print(label, flush=True)
    print(f"{len(ours) - len(differ)} of {len(ours)} digests equal; {len(theirs)} in {src}",
          file=sys.stderr)
    return 1 if differ else 0


def main(argv=None):
    import pregrasp

    parser = argparse.ArgumentParser(description="Print the digests of the run documents.")
    parser.add_argument("--against", metavar="SRC",
                        help="compare with the pregrasp package in SRC instead: print each "
                             "label whose digest differs, exit 1 if any does")
    parser.add_argument("--skeleton", action="store_true",
                        help="digest each document's discrete content only")
    args = parser.parse_args(argv)
    print(f"pregrasp from {os.path.dirname(pregrasp.__file__)}", file=sys.stderr)
    if args.against:
        return against(args.against, args.skeleton)
    for label, value in digests(args.skeleton):
        print(label, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
