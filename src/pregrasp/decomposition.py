"""Fit-and-split box decomposition of a point cloud.

A cloud is recursively partitioned into a binary tree of oriented boxes:

1. fit an approximate minimum-volume bounding box (PCA axes, then a
   coordinate-descent sweep of small rotations about each box axis),
2. screen a fixed grid of axis-parallel candidate planes through the box:
   the points are sorted once per axis into slabs between the planes (each
   slab a contiguous run of the sorted points, projected direction-major on
   the screening directions), and each side of each plane is scored with a
   box fit from its exact moments (PCA) and an extreme-point coreset (the
   sweep), both summed from its slabs,
3. refit the best-screened planes on all of their points and take the
   smallest summed child volume (ties: lowest axis, then smallest offset);
   accept it when that sum drops below ``volume_ratio`` of the parent volume
   and both children keep more than ``min_points / 2`` points,
4. recurse while a node holds at least ``min_points`` points.

Node ids are assigned breadth-first from 0.
"""

import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import DegenerateInput, EmptySide
from .geom import eigh_descending, rotation_about_axis

logger = logging.getLogger(__name__)

# Half-extent floor: keeps boxes of planar/collinear clouds usable downstream.
EXTENT_FLOOR = 1e-4

# Adjacent eigenvalues within this ratio are treated as a tied (degenerate)
# pair; the in-plane orientation is then resolved by a min-area rectangle
# search instead of trusting the arbitrary eigenvector basis.
_TIED_EIGENVALUE_RATIO = 1.25


# ===========================================================================
# Types
# ===========================================================================

@dataclass
class OrientedBox:
    """Box given by center, rotation (columns are the u/v/w axes) and
    half-extents sorted in descending order (u is the longest axis)."""

    center: np.ndarray
    rotation: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        self.half_extents = np.asarray(self.half_extents, dtype=float).reshape(3)

    @property
    def volume(self):
        return float(8.0 * np.prod(self.half_extents))

    def axis(self, i):
        return self.rotation[:, i]

    def to_local(self, points):
        return (np.asarray(points, dtype=float) - self.center) @ self.rotation

    def contains(self, points, tol=0.0):
        local = np.abs(self.to_local(points))
        return bool(np.all(local <= self.half_extents + tol))

    def corners(self):
        """The 8 corners, sign order (---, --+, -+-, ..., +++)."""
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        return self.center + (signs * self.half_extents) @ self.rotation.T

    def as_dict(self):
        return {
            "center": self.center.tolist(),
            "rotation": self.rotation.tolist(),
            "half_extents": self.half_extents.tolist(),
        }

    @staticmethod
    def from_dict(d):
        return OrientedBox(np.array(d["center"]), np.array(d["rotation"]),
                           np.array(d["half_extents"]))


@dataclass
class SplitPlane:
    """Axis-parallel plane: normal = box axis `axis`, passing through
    center + offset * axis (offset in meters along that axis)."""

    axis: int
    offset: float


@dataclass
class SplitEval:
    """Outcome of cutting a node's points with one candidate plane."""

    plane: SplitPlane
    idx_a: np.ndarray        # indices (into the evaluated points) below the plane
    idx_b: np.ndarray        # indices on the non-negative side
    box_a: "OrientedBox"
    box_b: "OrientedBox"
    volume_sum: float


@dataclass
class DecompParams:
    volume_ratio: float = 0.9
    min_points: int = 500
    planes_per_axis: int = 16
    mvbb_refine_steps: int = 3


@dataclass
class DecompNode:
    id: int
    box: OrientedBox
    point_indices: np.ndarray
    parent: Optional[int] = None
    children: Tuple[int, ...] = ()

    @property
    def is_leaf(self):
        return len(self.children) == 0


@dataclass
class DecompTree:
    nodes: List[DecompNode] = field(default_factory=list)

    def node(self, nid):
        return self.nodes[nid]

    def leaf_ids(self):
        return [n.id for n in self.nodes if n.is_leaf]

    def ancestors_of(self, nid):
        out = []
        p = self.nodes[nid].parent
        while p is not None:
            out.append(p)
            p = self.nodes[p].parent
        return out

    def descendants_of(self, nid):
        out = []
        stack = list(self.nodes[nid].children)
        while stack:
            c = stack.pop()
            out.append(c)
            stack.extend(self.nodes[c].children)
        return out


# ===========================================================================
# Minimum-volume box fitting
# ===========================================================================

def _basis_rotation(axis, angle):
    e = np.zeros(3)
    e[axis] = 1.0
    return rotation_about_axis(e, angle)


def _clamped_volume(extents):
    return float(np.prod(np.maximum(extents, 2.0 * EXTENT_FLOOR)))


def _rot2_basis(cos, sin):
    """Stacked 2D rotation rows: first half u = (cos, sin), second half
    v = (-sin, cos), shaped (2k, 2) for a single gemm against (2, n)."""
    k = len(cos)
    basis = np.empty((2 * k, 2))
    basis[:k, 0] = cos
    basis[:k, 1] = sin
    basis[k:, 0] = -sin
    basis[k:, 1] = cos
    return basis


def _min_area_angle(p2, step_deg=3.0):
    """In-plane angle in [0, 90) minimizing the 2D bounding-rectangle area."""
    angles = np.radians(np.arange(0.0, 90.0, step_deg))
    k = len(angles)
    uv = _rot2_basis(np.cos(angles), np.sin(angles)) @ p2.T     # (2k, n)
    spans = np.maximum(uv.max(axis=1) - uv.min(axis=1), 2 * EXTENT_FLOOR)
    return float(angles[int(np.argmin(spans[:k] * spans[k:]))])


def _pca_axes(cov, X):
    """Principal axes of covariance `cov` (columns, descending eigenvalue),
    with near-tied eigenvalue pairs re-oriented by a min-area rectangle search
    over the centred points `X`.

    PCA leaves the basis of a (near-)degenerate eigenspace arbitrary — for a
    square cross-section the returned pair can sit at any in-plane angle, far
    outside the reach of the local refinement sweep, so the tie is resolved
    geometrically here.
    """
    lam, axes = eigh_descending(cov)
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if lam[j] <= 0.0 or lam[i] > _TIED_EIGENVALUE_RATIO * lam[j]:
            continue
        p2 = X @ axes[:, (i, j)]
        theta = _min_area_angle(p2)
        c, s = np.cos(theta), np.sin(theta)
        a_new = c * axes[:, i] + s * axes[:, j]
        b_new = -s * axes[:, i] + c * axes[:, j]
        axes[:, i], axes[:, j] = a_new, b_new
    return axes


def _sweep(X, R, refine_steps):
    """Coordinate-descent sweep of small rotations about each axis of `R`,
    minimizing the volume of the centred points `X` along the axes; the
    +/-10 degree range is halved each round.

    Returns the refined axes and the floor-clamped volume of X's extents
    along them.
    """
    P = X @ R
    ext = P.max(axis=0) - P.min(axis=0)
    best_vol = _clamped_volume(ext)
    for rnd in range(refine_steps):
        half_range = np.radians(10.0) / (2.0 ** rnd)
        angles = np.linspace(-half_range, half_range, 9)
        m = len(angles)
        basis = _rot2_basis(np.cos(angles), np.sin(angles))
        for axis in range(3):
            # rotating about a box axis only mixes the other two projected
            # columns, so the sweep needs no full re-projection
            j, k = (axis + 1) % 3, (axis + 2) % 3
            uv = basis @ P[:, (j, k)].T                  # (2m, n)
            hi, lo = uv.max(axis=1), uv.min(axis=1)
            exts = np.empty((m, 3))
            exts[:, axis] = ext[axis]
            exts[:, j] = hi[:m] - lo[:m]
            exts[:, k] = hi[m:] - lo[m:]
            vols = np.maximum(exts, 2.0 * EXTENT_FLOOR).prod(axis=1)
            kb = int(np.argmin(vols))
            if vols[kb] < best_vol:
                best_vol = float(vols[kb])
                R = R @ _basis_rotation(axis, float(angles[kb]))
                P[:, j], P[:, k] = uv[kb], uv[m + kb]
                ext = exts[kb]
    return R, best_vol


def fit_obb(points, refine_steps=3):
    """Approximate minimum-volume bounding box of a point set.

    Args:
        points: (n, 3) array-like, n >= 1 (callers normally pass >= 4).
        refine_steps: rounds of the rotation sweep; the +/-10 degree range is
            halved each round.

    Returns:
        OrientedBox containing every input point; half-extents sorted
        descending and floored at EXTENT_FLOOR; rotation right-handed with the
        two dominant axes sign-fixed (largest-magnitude component positive).

    Raises:
        DegenerateInput: all points coincide.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise DegenerateInput("no points")
    mean = pts.mean(axis=0)
    X = pts - mean
    if float(np.abs(X).max(initial=0.0)) < 1e-12:
        raise DegenerateInput("all points coincide")

    R, _ = _sweep(X, _pca_axes(X.T @ X / len(X), X), refine_steps)

    # canonical form: extents descending, dominant axes sign-fixed, det = +1
    proj = X @ R
    ext = proj.max(axis=0) - proj.min(axis=0)
    R = R[:, np.argsort(-ext, kind="stable")]
    for c in (0, 1):
        col = R[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            R[:, c] = -col
    R[:, 2] = np.cross(R[:, 0], R[:, 1])
    proj = X @ R
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    center = mean + R @ ((lo + hi) / 2.0)
    half = np.maximum((hi - lo) / 2.0, EXTENT_FLOOR)
    return OrientedBox(center, R, half)


# ===========================================================================
# Split search
# ===========================================================================

def evaluate_split(points, parent_box, plane, refine_steps=3):
    """Cut `points` with `plane` (in the parent box frame) and fit both sides.

    Points are partitioned by signed distance to the plane; ties go to the
    non-negative side.

    Raises:
        EmptySide: one side received no points.
        DegenerateInput: one side's points all coincide.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    d = (pts - parent_box.center) @ parent_box.axis(plane.axis) - plane.offset
    idx_a = np.flatnonzero(d < 0.0)
    idx_b = np.flatnonzero(d >= 0.0)
    if len(idx_a) == 0 or len(idx_b) == 0:
        raise EmptySide(f"plane axis={plane.axis} offset={plane.offset:.6g} "
                        f"left {len(idx_a)}/{len(idx_b)} points")
    box_a = fit_obb(pts[idx_a], refine_steps)
    box_b = fit_obb(pts[idx_b], refine_steps)
    return SplitEval(plane, idx_a, idx_b, box_a, box_b, box_a.volume + box_b.volume)


def candidate_offsets(half_extent, planes_per_axis):
    """Uniformly spaced plane offsets in the open interval (-h, +h)."""
    k = np.arange(1, planes_per_axis + 1, dtype=float)
    return -half_extent + k * (2.0 * half_extent) / (planes_per_axis + 1)


def _screen_directions():
    """The primitive integer vectors with max-norm <= 2, one per antipodal
    pair (first non-zero component positive), normalized: 49 directions."""
    v = np.array(list(itertools.product(range(-2, 3), repeat=3)))
    v = v[np.gcd.reduce(np.abs(v), axis=1) == 1]
    first = v[np.arange(len(v)), np.argmax(v != 0, axis=1)]
    v = v[first > 0].astype(float)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Candidate sides are screened on their extreme points along these directions
# of the parent box frame: an extreme-point coreset in the sense of Barequet &
# Har-Peled (J. Algorithms 2001) and Agarwal, Har-Peled & Varadarajan (J. ACM
# 2004).
SCREEN_DIRECTIONS = _screen_directions()

# Best-screened planes that are refit on all of their points.  The screen
# ranks only approximately: on 126 test clouds at the default parameters
# (120 random unions of boxes, six 5k-point synthetic shapes), 3 finalists
# always held the full-point search's winner; 2 missed it on 1 cloud, 1 on 6.
SCREEN_FINALISTS = 3

# A side whose extreme points span less than this along every screening
# direction is treated as coincident and skipped.  fit_obb rejects a side
# whose points all lie within 1e-12 of their mean on each coordinate, so such
# a side spans less than 2 * sqrt(3) * 1e-12 along any unit direction.
_COINCIDENT_SPAN = 4e-12


def _project(XT, dirs):
    """(m, n) projections of the n points given as the coordinate rows of
    `XT` (3, n) on the m rows of `dirs`, element by element, so a point's
    projection does not depend on its batch.  Direction-major, so every pass
    over the result runs along the points.  Accumulated in place to hold
    fewer (m, n) temporaries."""
    out = dirs[:, :1] * XT[0]
    out += dirs[:, 1:2] * XT[1]
    out += dirs[:, 2:3] * XT[2]
    return out


@dataclass
class _Slabs:
    """Summaries of a node's points cut into slabs along one axis."""

    bounds: np.ndarray       # (s + 1,) slab j holds sorted ranks bounds[j]:bounds[j + 1]
    s1: np.ndarray           # (s, 3) sum of the centred points per slab
    s2: np.ndarray           # (s, 3, 3) sum of their outer products
    hi: np.ndarray           # (s, m) max projection per direction (-inf if empty)
    hi_idx: np.ndarray       # (s, m) index of a point attaining it
    lo: np.ndarray           # (s, m) min projection per direction (+inf if empty)
    lo_idx: np.ndarray


def _slab_summaries(X, coord, offsets, dirs):
    """Cut the centred points `X` at the sorted `offsets` of `coord` and
    summarize each of the len(offsets) + 1 slabs.

    A point lies below an offset iff coord < offset, which is exactly when
    coord - offset < 0 (a float difference is zero only for equal operands),
    so the slabs reproduce evaluate_split's partitions.

    The points are gathered once in slab order, so each slab is a contiguous
    run of rows, and copied once as coordinate rows for `_project`, so each
    slab's projections take contiguous slices and come out direction-major.
    Ties go to the first point in slab order.
    """
    order = np.argsort(coord, kind="stable")
    bounds = np.concatenate(([0], np.searchsorted(coord[order], offsets), [len(coord)]))
    n_slabs, m = len(bounds) - 1, len(dirs)
    slabs = _Slabs(bounds, np.zeros((n_slabs, 3)), np.zeros((n_slabs, 3, 3)),
                   np.full((n_slabs, m), -np.inf), np.zeros((n_slabs, m), dtype=int),
                   np.full((n_slabs, m), np.inf), np.zeros((n_slabs, m), dtype=int))
    Xo = X[order]
    XT = Xo.T.copy()
    rows = np.arange(m)
    for j in range(n_slabs):
        a, b = bounds[j], bounds[j + 1]
        if a == b:
            continue
        Xs = Xo[a:b]
        slabs.s1[j] = Xs.sum(axis=0)
        slabs.s2[j] = Xs.T @ Xs
        proj = _project(XT[:, a:b], dirs)
        top, bot = proj.argmax(axis=1), proj.argmin(axis=1)
        slabs.hi[j], slabs.hi_idx[j] = proj[rows, top], order[a + top]
        slabs.lo[j], slabs.lo_idx[j] = proj[rows, bot], order[a + bot]
    return slabs


def _side_summary(slabs, first, stop):
    """Point count, moment sums, per-direction extreme values (max, min) and
    extreme-point coreset indices of slabs first..stop-1 (non-empty).  The
    coreset holds one max and one min point per direction; a point extreme
    in several directions repeats, which leaves its box fit unchanged."""
    cols = np.arange(slabs.hi.shape[1])
    top = first + slabs.hi[first:stop].argmax(axis=0)
    bot = first + slabs.lo[first:stop].argmin(axis=0)
    coreset = np.concatenate([slabs.hi_idx[top, cols], slabs.lo_idx[bot, cols]])
    return (int(slabs.bounds[stop] - slabs.bounds[first]),
            slabs.s1[first:stop].sum(axis=0), slabs.s2[first:stop].sum(axis=0),
            slabs.hi[top, cols], slabs.lo[bot, cols], coreset)


def _screen_volume(X, side, refine_steps):
    """Approximate box volume of one side: PCA from its exact moments, then
    the rotation sweep over its coreset.  None for a coincident side."""
    count, s1, s2, hi, lo, coreset = side
    if float((hi - lo).max()) < _COINCIDENT_SPAN:
        return None
    mean = s1 / count
    C = X[coreset] - mean
    _, vol = _sweep(C, _pca_axes(s2 / count - np.outer(mean, mean), C), refine_steps)
    return vol


def _screen(pts, box, params):
    """Screened summed volume of each candidate plane, as [(volume, axis,
    offset)] in (axis, offset) order.  Planes that leave an empty or
    coincident side, or repeat the partition of a smaller offset, are left
    out."""
    X = pts - pts.mean(axis=0)
    dirs = SCREEN_DIRECTIONS @ box.rotation.T
    n = len(pts)
    scored = []
    for axis in range(3):
        offsets = candidate_offsets(box.half_extents[axis], params.planes_per_axis)
        # the expression evaluate_split partitions by, for bit-equal sides
        coord = (pts - box.center) @ box.axis(axis)
        slabs = _slab_summaries(X, coord, offsets, dirs)
        n_slabs = len(offsets) + 1
        for k, offset in enumerate(offsets, start=1):
            below = slabs.bounds[k]
            # an empty side, or the same partition as the previous offset
            # (which ties bit for bit and wins the tie)
            if below == slabs.bounds[k - 1] or below == n:
                continue
            vol_a = _screen_volume(X, _side_summary(slabs, 0, k), params.mvbb_refine_steps)
            vol_b = _screen_volume(X, _side_summary(slabs, k, n_slabs), params.mvbb_refine_steps)
            if vol_a is not None and vol_b is not None:
                scored.append((vol_a + vol_b, axis, float(offset)))
    return scored


def _best_split_eval(node, cloud, params):
    """Minimum summed-child-volume candidate among the screening finalists,
    or None if it fails the acceptance test (volume ratio + per-child point
    minimum)."""
    pts = cloud.points[node.point_indices]
    scored = _screen(pts, node.box, params)
    # refit in (axis, offset) order, so the strict < below keeps the first
    # of tied full-point volumes
    finalists = sorted(sorted(scored, key=lambda c: c[0])[:SCREEN_FINALISTS],
                       key=lambda c: c[1:])
    best = None
    for _, axis, offset in finalists:
        ev = evaluate_split(pts, node.box, SplitPlane(axis, offset), params.mvbb_refine_steps)
        if best is None or ev.volume_sum < best.volume_sum:
            best = ev
    if best is None:
        return None
    if best.volume_sum > params.volume_ratio * node.box.volume:
        return None
    # strictly more than min_points/2 per child; the boundary count is rejected
    if min(len(best.idx_a), len(best.idx_b)) <= params.min_points / 2.0:
        return None
    return best


def best_split(node, cloud, params=None):
    """The accepted split plane for `node`, or None when the node stays whole.

    Candidates: `planes_per_axis` offsets per box axis.  Every candidate is
    screened with box fits on each side's exact moments and extreme-point
    coreset; the SCREEN_FINALISTS best are refit on all of their points, and
    the smallest full-point summed volume wins, ties resolving to the lowest
    axis index, then the smallest offset.
    """
    params = params or DecompParams()
    ev = _best_split_eval(node, cloud, params)
    return None if ev is None else ev.plane


def decompose(cloud, params=None):
    """Build the box-decomposition tree of a cloud.

    Recursion stops at nodes holding fewer than `min_points` points or whose
    best candidate split is rejected.  Deterministic for identical input.
    """
    params = params or DecompParams()
    root_box = fit_obb(cloud.points, params.mvbb_refine_steps)
    tree = DecompTree([DecompNode(0, root_box, np.arange(len(cloud.points)))])
    queue = deque([0])
    while queue:
        nid = queue.popleft()
        node = tree.nodes[nid]
        if len(node.point_indices) < params.min_points:
            continue
        ev = _best_split_eval(node, cloud, params)
        if ev is None:
            continue
        ida, idb = len(tree.nodes), len(tree.nodes) + 1
        tree.nodes.append(DecompNode(ida, ev.box_a, node.point_indices[ev.idx_a], nid))
        tree.nodes.append(DecompNode(idb, ev.box_b, node.point_indices[ev.idx_b], nid))
        node.children = (ida, idb)
        queue.extend((ida, idb))
        logger.debug("split node %d (%d pts) -> %d (%d pts) + %d (%d pts), ratio %.3f",
                     nid, len(node.point_indices), ida, len(ev.idx_a), idb, len(ev.idx_b),
                     ev.volume_sum / node.box.volume)
    logger.info("decomposition: %d nodes, %d leaves", len(tree.nodes), len(tree.leaf_ids()))
    return tree
