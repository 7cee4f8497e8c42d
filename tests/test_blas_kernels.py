"""The split search's partitions, and everything planned after the box fit
up to the wrench rows, are the same bytes under every BLAS kernel.

A small cloud's tree, shape classes and face masks are planned once, under
the default OpenBLAS kernel.  From those boxes, a subprocess per kernel
(``OPENBLAS_CORETYPE`` unset, Prescott, Haswell) builds the pre-grasp pool,
its finger rays, the contact normals and the wrench rows, and prints a
digest of each.  Likewise, from the points and boxes of a 20k-point
dumbbell's searched nodes, it digests the box-frame coordinate rows that the
split screen cuts into slabs and the partitions that evaluate_split makes at
every candidate plane.  The box fit and the quality scan still call BLAS, so
the tree, the boxes of the sides and the qualities are not compared.

Run as a script, this file is that subprocess: ``tree PATH`` pickles the
planned tree to PATH, ``build PATH`` prints the digests of what it builds
from it; ``nodes PATH`` pickles the searched nodes, ``split PATH`` prints
the digests of their frame rows and partitions.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

KERNELS = (None, "Prescott", "Haswell")


def plan_tree(path):
    """Pickle a small dumbbell, its tree, classes and masks, and the config."""
    from pregrasp import RunConfig, decompose, synth_shape
    from pregrasp.facemask import compute_face_states
    from pregrasp.pipeline import _classify_all

    cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 3000, seed=1)
    cfg = RunConfig()
    cfg.sampling.angular_step, cfg.sampling.axial_step = 15.0, 0.01
    tree = decompose(cloud, cfg.decomposition)
    plan = (cloud, cfg, tree, _classify_all(cloud, tree, cfg.thresholds),
            compute_face_states(tree, cfg.gripper.finger_length))
    Path(path).write_bytes(pickle.dumps(plan))


def build(path):
    """{stage: sha256 of its bytes} for the pool, finger rays, contacts and
    wrench rows built from the pickled tree."""
    from pregrasp.graspeval import CONE_EDGES, ContactIndex, _contacts, finger_rays, wrench_set
    from pregrasp.sampler import generate_pool

    cloud, cfg, tree, classes, masks = pickle.loads(Path(path).read_bytes())
    pool = generate_pool(tree, classes, masks, cfg.gripper, cfg.sampling)
    rays = finger_rays(pool, cfg.gripper)
    index = ContactIndex(cloud, cfg.gripper.tube_radius)
    hits = index.first_hits(rays[:, 0], rays[:, 1])
    contacts = _contacts(index, hits[hits >= 0], rays[hits >= 0, 1])
    wrenches = wrench_set(contacts[:, None, 0], contacts[:, None, 1], cfg.gripper.friction_mu,
                          CONE_EDGES, cloud.centroid)
    stages = {"pool": pool, "rays": rays, "contacts": contacts, "wrenches": wrenches}
    return {name: [a.shape, hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()]
            for name, a in stages.items()}


def plan_nodes(path):
    """Pickle the points and box of each searched node of a 20k dumbbell."""
    from pregrasp import DecompParams, decompose, synth_shape

    cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 20000, seed=4)
    params = DecompParams()
    tree = decompose(cloud, params)
    nodes = [(cloud.points[n.point_indices], n.box) for n in tree.nodes
             if len(n.point_indices) >= params.min_points]
    Path(path).write_bytes(pickle.dumps(nodes))


def split(path):
    """{"frames": sha256, "partitions": sha256, "planes": count}: the
    box-frame coordinate rows that the screen of each pickled node cuts, and
    the points below each candidate plane, as evaluate_split takes them."""
    from pregrasp import decomposition
    from pregrasp.errors import EmptySide

    nodes = pickle.loads(Path(path).read_bytes())
    frames, partitions, planes = hashlib.sha256(), hashlib.sha256(), 0
    real = decomposition._slab_summaries

    def spy(X, frame, axis, offsets):
        if axis == 0:
            frames.update(np.ascontiguousarray(frame).tobytes())
        return real(X, frame, axis, offsets)

    decomposition._slab_summaries = spy
    decomposition.fit_obb = lambda points: None       # only the partitions are compared
    for pts, box in nodes:
        decomposition._screen(pts, box)
        for axis in range(3):
            for offset in decomposition.candidate_offsets(box.half_extents[axis]):
                try:
                    below = decomposition.evaluate_split(pts, box, axis, float(offset))[0]
                except EmptySide:
                    continue
                partitions.update(below.tobytes())
                planes += 1
    return {"frames": frames.hexdigest(), "partitions": partitions.hexdigest(),
            "planes": planes}


def run(kernel, *args):
    """This file run as a script under `kernel` (None: the default)."""
    import pregrasp

    env = dict(os.environ, PYTHONPATH=str(Path(pregrasp.__file__).parents[1]))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run([sys.executable, __file__, *args], env=env, stdout=subprocess.PIPE,
                          text=True, check=True).stdout


def test_sampling_rays_contacts_and_wrenches_match_across_kernels(tmp_path):
    path = tmp_path / "tree.pickle"
    run(None, "tree", str(path))
    built = {kernel: json.loads(run(kernel, "build", str(path))) for kernel in KERNELS}
    assert built[None]["pool"][0][0] > 100 and built[None]["contacts"][0][0] > 100
    for kernel in KERNELS[1:]:
        assert built[kernel] == built[None], kernel


def test_split_frames_and_partitions_match_across_kernels(tmp_path):
    path = tmp_path / "nodes.pickle"
    run(None, "nodes", str(path))
    built = {kernel: json.loads(run(kernel, "split", str(path))) for kernel in KERNELS}
    assert built[None]["planes"] > 200
    for kernel in KERNELS[1:]:
        assert built[kernel] == built[None], kernel


if __name__ == "__main__":
    stage, path = sys.argv[1:]
    stages = {"tree": plan_tree, "nodes": plan_nodes}
    if stage in stages:
        stages[stage](path)
    else:
        print(json.dumps({"build": build, "split": split}[stage](path)))
