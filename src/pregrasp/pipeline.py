"""End-to-end pipeline: cloud -> box tree -> classes -> masks -> pool -> ranking.

Every stage runner recomputes from the raw cloud up to its stage and returns a
JSON-ready run document.  Documents of earlier stages are strict prefixes of
later ones (same keys, same values), which keeps partial runs comparable and
the full run reproducible byte-for-byte apart from the timing block.
"""

import logging
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Optional

from .classifier import GRASP_PRESHAPE, ClassifierThresholds, GraspType, classify, pca
from .decomposition import DecompParams, decompose
from .errors import check_params
from .facemask import MASK_COLUMNS, FaceId, compute_face_states, subfaces
from .graspeval import rank_pool
from .sampler import GripperConfig, SamplingParams, generate_pool

logger = logging.getLogger(__name__)

STAGES = ("decompose", "classify", "mask", "sample", "rank")


@dataclass
class RunConfig:
    input: str = ""
    format: Optional[str] = None
    out: str = "run.json"
    decomposition: DecompParams = field(default_factory=DecompParams)
    thresholds: ClassifierThresholds = field(default_factory=ClassifierThresholds)
    gripper: GripperConfig = field(default_factory=GripperConfig)
    sampling: SamplingParams = field(default_factory=SamplingParams)


# ---------------------------------------------------------------------------
# stage computations
# ---------------------------------------------------------------------------

def _tree_section(tree):
    nodes = [{"id": n.id, "parent": n.parent, "children": list(n.children),
              "point_count": int(len(n.point_indices)), "box": n.box.as_dict()}
             for n in tree.nodes]
    return {"nodes": nodes, "leaf_ids": tree.leaf_ids()}

def _classify_all(cloud, tree, thresholds):
    """(category, grasp_type, eigenvalues) per node, indexed by node id."""
    out = []
    for n in tree.nodes:
        lam = pca(cloud.points[n.point_indices])
        cat, grasp = classify(lam, 2.0 * n.box.half_extents, thresholds)
        out.append((cat, grasp, lam))
    return out

def _classification_section(classes):
    return [{
        "node_id": i,
        "lambdas": [float(v) for v in lams],
        "category": cat.value,
        "grasp_type": grasp.value,
    } for i, (cat, grasp, lams) in enumerate(classes)]

def _mask_section(tree, masks):
    return [{
        "node_id": n.id,
        "matrix": masks[n.id][MASK_COLUMNS].tolist(),
        "free_subface_counts": {gt.value: int(subfaces(masks[n.id], gt, n.box)["free"].sum())
                                for gt in GraspType},
    } for n in tree.nodes]

def _pool_section(pool):
    # per grasp-type code: (name, spread angle, fingertip mode)
    types = [(t.value, float(GRASP_PRESHAPE[t][0]), bool(GRASP_PRESHAPE[t][1]))
             for t in GraspType]
    faces = [f.name for f in FaceId]
    return [{
        "position": position,
        "approach": approach,
        "closing_dir": closing,
        "grasp_type": types[code][0],
        "spread_angle": types[code][1],
        "fingertip_mode": types[code][2],
        "source_node": node,
        "source_face": faces[face],
        "source_cell": cell,
    } for position, approach, closing, code, node, face, cell in zip(
        *(pool[name].tolist() for name in pool.dtype.names))]

def _ranking_section(candidates):
    return [{
        "pool_index": c.pool_index,
        "contact_count": len(c.contacts),
        "contacts": [{
            "position": position,
            "normal": normal,
        } for position, normal in c.contacts.tolist()],
        "quality": float(c.quality),
    } for c in candidates]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_pipeline(cloud, cfg, upto="rank"):
    """Run stages decompose..upto on a cloud and assemble the run document.
    A bad run parameter raises ConfigError, naming `section.field`, first."""
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}")
    for section, params in vars(cfg).items():
        if is_dataclass(params):
            check_params(params, lambda field: f"{section}.{field}")
    last = STAGES.index(upto)
    doc = {"config": asdict(cfg), "cloud": {
        "source": cloud.source_name,
        "point_count": int(len(cloud.points)),
    }}
    timings = {}

    t0 = time.perf_counter()
    tree = decompose(cloud, cfg.decomposition)
    timings["decompose"] = (time.perf_counter() - t0) * 1e3
    doc["tree"] = _tree_section(tree)

    classes = masks = pool = None
    if last >= 1:
        t0 = time.perf_counter()
        classes = _classify_all(cloud, tree, cfg.thresholds)
        timings["classify"] = (time.perf_counter() - t0) * 1e3
        doc["classifications"] = _classification_section(classes)
    if last >= 2:
        t0 = time.perf_counter()
        masks = compute_face_states(tree, cfg.gripper.finger_length)
        timings["mask"] = (time.perf_counter() - t0) * 1e3
        doc["masks"] = _mask_section(tree, masks)
    if last >= 3:
        t0 = time.perf_counter()
        pool = generate_pool(tree, [(c, g) for c, g, _ in classes], masks,
                             cfg.gripper, cfg.sampling)
        timings["sample"] = (time.perf_counter() - t0) * 1e3
        doc["pool"] = _pool_section(pool)
    if last >= 4:
        t0 = time.perf_counter()
        ranking = rank_pool(pool, cloud, cfg.gripper)
        timings["rank"] = (time.perf_counter() - t0) * 1e3
        doc["ranking"] = _ranking_section(ranking)
        doc["best_index"] = ranking[0].pool_index if ranking else None

    doc["timings_ms"] = {k: round(v, 3) for k, v in timings.items()}
    logger.info("pipeline through %s: %d nodes%s", upto, len(tree.nodes),
                f", pool {len(pool)}" if pool is not None else "")
    return doc
