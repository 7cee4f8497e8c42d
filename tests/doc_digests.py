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

``--floats`` prints each label and its document (without ``timings_ms``) as
one JSON line.  With ``--against``, it requires equal skeletons, then checks
every float of the two trees' documents against a bound scaled to the
cloud's axis-aligned bounding-box diagonal D (see `FLOAT_KINDS`):
|a - b| <= 1e-9 D for lengths, 1e-9 D^2 for the covariance eigenvalues
``lambdas``, 1e-9 for unit vectors, rotations and qualities; every other
value must be equal.  It prints the label and JSON path of the first value
out of bound, or the largest gap of each kind, and exits 1 if any is out of
bound.

Pytest does not collect this file (it is not named ``test_*.py``).  A full run
takes about 20 s on two CPUs.
"""

import argparse
import hashlib
import math
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


# Each document float's kind, by its JSON path with list indices dropped:
# the kind's bound is FLOAT_TOL times the cloud's bounding-box diagonal to
# the kind's power.
FLOAT_TOL = 1e-9
FLOAT_POWERS = {"length": 1, "lambda": 2, "unitless": 0}
FLOAT_KINDS = {
    "tree.nodes[].box.center[]": "length",
    "tree.nodes[].box.half_extents[]": "length",
    "tree.nodes[].box.rotation[][]": "unitless",
    "classifications[].lambdas[]": "lambda",
    "pool[].position[]": "length",
    "pool[].approach[]": "unitless",
    "pool[].closing_dir[]": "unitless",
    "ranking[].contacts[].position[]": "length",
    "ranking[].contacts[].normal[]": "unitless",
    "ranking[].quality": "unitless",
}


def without_timings(doc):
    return {k: v for k, v in doc.items() if k != "timings_ms"}


def digest(doc):
    return hashlib.sha256(json.dumps(without_timings(doc), sort_keys=True).encode()).hexdigest()


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


def _leaves(a, b, path="", key=""):
    """(JSON path, the path with list indices dropped, a value, b value) of
    each leaf of two documents walked side by side; a dict or list whose keys
    or length differ is one leaf."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _leaves(a[k], b[k], f"{path}.{k}" if path else k, f"{key}.{k}" if key else k)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, f"{path}[{i}]", f"{key}[]")
    else:
        yield path, key, a, b


def float_gaps(a, b, diagonal):
    """Compare documents `a` and `b` of one cloud, whose bounding-box diagonal
    is `diagonal`: the JSON path of the first value out of bound (None if
    every value holds), and the largest gap |a - b| of each float kind."""
    largest = dict.fromkeys(FLOAT_POWERS, 0.0)
    first = None
    for path, key, x, y in _leaves(without_timings(a), without_timings(b)):
        kind = FLOAT_KINDS.get(key)
        if kind is not None and type(x) is float and type(y) is float:
            gap = abs(x - y)
            largest[kind] = max(largest[kind], gap)
            ok = gap <= FLOAT_TOL * diagonal ** FLOAT_POWERS[kind]
        else:
            ok = type(x) is type(y) and x == y
        if not ok and first is None:
            first = path
    return first, largest


def documents():
    """(label, cloud's bounding-box diagonal, run document) for every cloud,
    in a fixed order."""
    from pregrasp import load_cloud, run_pipeline, synth_shape

    def diagonal(cloud):
        return math.dist(cloud.points.min(axis=0).tolist(), cloud.points.max(axis=0).tolist())

    plain = workloads.Workload("synth", ())
    for kind in workloads.SHAPE_DIMS:
        cloud = workloads.make_cloud(workloads.CloudSpec(kind, SYNTH_POINTS), SYNTH_SEED)
        yield (f"synth:{kind}-{SYNTH_POINTS}", diagonal(cloud),
               run_pipeline(cloud, workloads.make_config(plain)))

    cloud = workloads.make_cloud(workloads.CloudSpec("dumbbell", LARGE_POINTS), SYNTH_SEED)
    yield (f"synth:dumbbell-{LARGE_POINTS}", diagonal(cloud),
           run_pipeline(cloud, workloads.make_config(plain)))

    cloud = workloads.make_cloud(workloads.CloudSpec("dumbbell", FINE_POINTS), SYNTH_SEED)
    cfg = workloads.make_config(plain)
    cfg.decomposition.min_points, cfg.decomposition.volume_ratio = FINE_SPLIT
    yield f"synth:dumbbell-{FINE_POINTS}-fine", diagonal(cloud), run_pipeline(cloud, cfg)

    for label, kind, dims, aperture in GRASP_TYPE_CLOUDS:
        cloud = synth_shape(kind, dims, SYNTH_POINTS, SYNTH_SEED)
        cfg = workloads.make_config(plain)
        cfg.gripper.max_aperture = aperture
        yield f"synth:{label}-{SYNTH_POINTS}", diagonal(cloud), run_pipeline(cloud, cfg)

    for name in ("dense-pool", "large-scan"):
        workload = workloads.WORKLOADS[name]
        for i, spec in enumerate(workload.clouds):
            cloud = workloads.make_cloud(spec, workloads.cloud_seed(WORKLOAD_SEED, i))
            label = f"{name}:{i}:{spec.kind}-{spec.n}"
            if spec.fmt is None:
                yield label, diagonal(cloud), run_pipeline(cloud, workloads.make_config(workload))
                continue
            # relative names, so the documents do not depend on the directory
            path = f"{i}-{spec.kind}.{spec.fmt}"
            workloads.write_cloud(cloud.points, path, spec.fmt)
            cloud = load_cloud(path)
            yield f"{label}.{spec.fmt}", diagonal(cloud), run_pipeline(
                cloud, workloads.make_config(workload, path, path + ".json"))


def planned():
    """`documents`, planned in a temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="doc-digests-") as tmp:
        os.chdir(tmp)
        try:
            yield from documents()
        finally:
            os.chdir(cwd)


def digests(skeletons=False):
    """(label, digest) for every cloud; of each document's skeleton if
    `skeletons`."""
    for label, _, doc in planned():
        yield label, digest(skeleton(doc) if skeletons else doc)


def _other(src, *flags):
    """This script's output with `flags`, run in a subprocess with
    PYTHONPATH=src and the rest of the environment unchanged."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, os.path.abspath(__file__), *flags], env=env,
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def against(src, skeletons=False):
    """Compare this interpreter's digests with those of the package in `src`.
    Prints each label whose digest differs (or that only one side has);
    returns 1 if any does, else 0."""
    theirs = dict(line.split() for line in _other(src, *["--skeleton"] * skeletons).splitlines())
    ours = dict(digests(skeletons))
    differ = [label for label in {**theirs, **ours} if theirs.get(label) != ours.get(label)]
    for label in differ:
        print(label, flush=True)
    print(f"{len(ours) - len(differ)} of {len(ours)} digests equal; {len(theirs)} in {src}",
          file=sys.stderr)
    return 1 if differ else 0


def check_floats(ours, theirs):
    """Compare {label: (diagonal, document)} `ours` with {label: document}
    `theirs`.  Prints each label that only one side has ("missing"), whose
    skeletons differ ("skeleton") or with a value out of bound (the JSON path
    of the first), and the largest float gap of each kind; returns 1 if any
    label is printed, else 0."""
    largest = dict.fromkeys(FLOAT_POWERS, 0.0)
    bad = 0
    for label in {**theirs, **ours}:
        if label not in ours or label not in theirs:
            first = "missing"
        elif skeleton(ours[label][1]) != skeleton(theirs[label]):
            first = "skeleton"
        else:
            diagonal, doc = ours[label]
            first, gaps = float_gaps(doc, theirs[label], diagonal)
            largest = {kind: max(largest[kind], gaps[kind]) for kind in largest}
        if first is not None:
            bad += 1
            print(label, first, flush=True)
    print(f"{len(ours) - bad} of {len(ours)} documents within bound; largest gaps: "
          + ", ".join(f"{kind} {gap:.2g}" for kind, gap in largest.items()), file=sys.stderr)
    return 1 if bad else 0


def against_floats(src):
    """`check_floats` of this interpreter's documents against those of the
    package in `src`."""
    theirs = {}
    for line in _other(src, "--floats").splitlines():
        label, text = line.split(" ", 1)
        theirs[label] = json.loads(text)
    return check_floats({label: (diagonal, doc) for label, diagonal, doc in planned()}, theirs)


def main(argv=None):
    import pregrasp

    parser = argparse.ArgumentParser(description="Print the digests of the run documents.")
    parser.add_argument("--against", metavar="SRC",
                        help="compare with the pregrasp package in SRC instead: print each "
                             "label whose digest differs, exit 1 if any does")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--skeleton", action="store_true",
                      help="digest each document's discrete content only")
    mode.add_argument("--floats", action="store_true",
                      help="print each document as one JSON line; with --against, require "
                           "equal skeletons and every float within its bound")
    args = parser.parse_args(argv)
    print(f"pregrasp from {os.path.dirname(pregrasp.__file__)}", file=sys.stderr)
    if args.against:
        return against_floats(args.against) if args.floats else against(args.against,
                                                                         args.skeleton)
    if args.floats:
        for label, _, doc in planned():
            print(label, json.dumps(without_timings(doc), sort_keys=True), flush=True)
        return 0
    for label, value in digests(args.skeleton):
        print(label, value, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
