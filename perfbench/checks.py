"""Output checks applied to every planned cloud.

A first (warm-up) plan of each cloud gets the structural checks below, using
the decomposition tree captured from the planner's own `decompose` call.  Each
later plan of the same cloud must give the same document once `timings_ms` is
removed, so it passes the same checks.  Quality values are never compared with
fixed numbers: only their ordering, range and finiteness are checked.
"""

import hashlib
import json
import math

import numpy as np

# A point counts as inside a box if it is within 1 nm of it (float rounding of
# the box's own projection).
BOX_TOL = 1e-9


def without_timings(doc):
    return {k: v for k, v in doc.items() if k != "timings_ms"}


def digest(doc):
    """Short content hash of a document, timings excluded (for information)."""
    text = json.dumps(without_timings(doc), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def point_set(points):
    return set(map(tuple, np.asarray(points).tolist()))


def check_tree(doc, tree, points):
    """Every node's box holds its points; children partition the parent."""
    from pregrasp import OrientedBox

    problems = []
    nodes = doc["tree"]["nodes"]
    if len(nodes) != len(tree.nodes):
        return [f"document has {len(nodes)} nodes, decompose returned {len(tree.nodes)}"]
    if not np.array_equal(np.sort(tree.nodes[0].point_indices), np.arange(len(points))):
        problems.append("root node does not hold every cloud point")
    for entry, node in zip(nodes, tree.nodes):
        idx = node.point_indices
        if entry["point_count"] != len(idx):
            problems.append(f"node {node.id}: point_count {entry['point_count']} != {len(idx)}")
        if not OrientedBox.from_dict(entry["box"]).contains(points[idx], tol=BOX_TOL):
            problems.append(f"node {node.id}: box does not contain its points")
        if node.children:
            merged = np.sort(np.concatenate([tree.nodes[c].point_indices for c in node.children]))
            if not np.array_equal(merged, np.sort(idx)):
                problems.append(f"node {node.id}: children do not partition its points")
    return problems


def check_ranking(doc, cloud_points):
    """Ranking is a sorted permutation of the pool; contacts are cloud points.

    `cloud_points` is the `point_set` of the planned cloud.
    """
    problems = []
    ranking = doc["ranking"]
    if sorted(c["pool_index"] for c in ranking) != list(range(len(doc["pool"]))):
        problems.append("ranking is not a permutation of the pool")
    qualities = [c["quality"] for c in ranking]
    if not all(math.isfinite(q) and q >= 0.0 for q in qualities):
        problems.append("a quality is negative or not finite")
    if any(a < b for a, b in zip(qualities, qualities[1:])):
        problems.append("qualities are not in non-increasing order")
    for c in ranking:
        if any(tuple(ct["position"]) not in cloud_points for ct in c["contacts"]):
            problems.append(f"pool[{c['pool_index']}]: a contact is not a cloud point")
            break
    expected_best = ranking[0]["pool_index"] if ranking else None
    if doc["best_index"] != expected_best:
        problems.append(f"best_index {doc['best_index']} != ranking[0] {expected_best}")
    return problems
