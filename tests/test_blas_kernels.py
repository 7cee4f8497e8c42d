"""Everything planned after the box fit, up to the wrench rows, is the same
bytes under every BLAS kernel.

A small cloud's tree, shape classes and face masks are planned once, under
the default OpenBLAS kernel.  From those boxes, a subprocess per kernel
(``OPENBLAS_CORETYPE`` unset, Prescott, Haswell) builds the pre-grasp pool,
its finger rays, the contact normals and the wrench rows, and prints a
digest of each.  The box fit and the quality scan still call BLAS, so the
tree and the qualities are not compared.

Run as a script, this file is that subprocess: ``tree PATH`` pickles the
planned tree to PATH, ``build PATH`` prints the digests of what it builds
from it.
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


if __name__ == "__main__":
    stage, path = sys.argv[1:]
    if stage == "tree":
        plan_tree(path)
    else:
        print(json.dumps(build(path)))
