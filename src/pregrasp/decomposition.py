"""Fit-and-split box decomposition of a point cloud.

A cloud is recursively partitioned into a binary tree of oriented boxes:

1. fit an approximate minimum-volume bounding box (PCA axes, then a
   coordinate-descent sweep of small rotations about each box axis),
2. screen a fixed grid of axis-parallel candidate planes through the box:
   the points are sorted once per axis into slabs between the planes (each
   slab a contiguous run of the sorted points, projected direction-major on
   the screening directions), and the sides of all planes of an axis are
   summarized by scans over its slabs into exact moments and extreme-point
   coresets of 2 x 49 points.
   All sides on all three axes are then scored as one stack: one batch of
   covariances and eigen-decompositions (PCA), the min-area search on the
   sides with tied eigenvalues, and one rotation sweep over the coresets,
3. refit the best-screened planes on all of their points and take the
   smallest summed child volume (ties: lowest axis, then smallest offset);
   accept it when that sum drops below ``volume_ratio`` of the parent volume
   and both children keep more than ``min_points / 2`` points,
4. recurse while a node holds at least ``min_points`` points.

Node ids are assigned breadth-first from 0.

Memory is bounded by the cloud's size: the tied-pair search (60 rows per
set), the sweep (18) and the slab projections (49) reduce their per-point
products in blocks of ``_BLOCK_BYTES``, with running extremes.  Those
products only choose grid angles and sweep steps; the box comes from table
rotations and the whole ``X @ R``, so a block's own gemm rounding could
only matter where two choices tie to within a few ulps.
"""

import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from .errors import DegenerateInput, EmptySide
from .geom import cross, eigh_descending, rotations_about_axes

logger = logging.getLogger(__name__)

# Half-extent floor: keeps boxes of planar/collinear clouds usable downstream.
EXTENT_FLOOR = 1e-4

# Adjacent eigenvalues within this ratio are treated as a tied (degenerate)
# pair; the in-plane orientation is then resolved by a min-area rectangle
# search instead of trusting the arbitrary eigenvector basis.
_TIED_EIGENVALUE_RATIO = 1.25

# Rounds of the box fit's rotation sweep; its +/-10 degree range halves each round.
_REFINE_STEPS = 3


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
class DecompParams:
    volume_ratio: float = 0.9
    min_points: int = 500
    planes_per_axis: int = 16
    BOUNDS: ClassVar[dict] = {"volume_ratio": "in (0, 1]", "min_points": ">= 4",
                              "planes_per_axis": ">= 1"}


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


# ===========================================================================
# Minimum-volume box fitting
# ===========================================================================

def _rot2_basis(cos, sin):
    """Stacked 2D rotation rows: first half u = (cos, sin), second half
    v = (-sin, cos), shaped (2k, 2) for a single gemm against (2, n)."""
    return np.concatenate([np.stack([cos, sin], axis=1), np.stack([-sin, cos], axis=1)])


# The min-area search's angles, a 3 degree grid in [0, 90): their stacked 2D
# rotation rows, and each one's scalar (cos, sin), to turn a tied pair by.
_MIN_AREA_ANGLES = np.radians(np.arange(0.0, 90.0, 3.0))
_MIN_AREA_BASIS = _rot2_basis(np.cos(_MIN_AREA_ANGLES), np.sin(_MIN_AREA_ANGLES))
_MIN_AREA_TURNS = np.array([(np.cos(a), np.sin(a)) for a in _MIN_AREA_ANGLES.tolist()])

# Bytes of one block of the per-point products (see the module docstring).
_BLOCK_BYTES = 2 << 20

# Per round of the rotation sweep: the stacked 2D rotation rows of its 9
# angles, and per box axis the (9, 3, 3) rotations about it by those angles.
_SWEEP_STEPS = [(_rot2_basis(np.cos(a), np.sin(a)),
                 np.ascontiguousarray(rotations_about_axes(np.repeat(np.eye(3), 9, axis=0),
                                                           np.tile(a, 3)).reshape(3, 9, 3, 3)))
                for a in (np.linspace(-h, h, 9)
                          for h in np.radians(10.0) / 2.0 ** np.arange(_REFINE_STEPS))]


def _extremes(basis, p2):
    """(g, r) max and min over the points of basis @ p2[s].T for each set of
    the (g, n, 2) stack `p2`, reduced over runs of points that fit in
    `_BLOCK_BYTES`, and that (g, r, n) product if it is one run (else None)."""
    r, (g, n, _) = len(basis), p2.shape
    step = max(1, _BLOCK_BYTES // (8 * r * g))
    uv = basis @ p2[:, :step].transpose(0, 2, 1)
    hi, lo = uv.max(axis=2), uv.min(axis=2)
    for a in range(step, n, step):
        uv = basis @ p2[:, a:a + step].transpose(0, 2, 1)
        hi, lo = np.maximum(hi, uv.max(axis=2)), np.minimum(lo, uv.min(axis=2))
    return hi, lo, (uv if step >= n else None)


def _min_area_turns(p2):
    """(cos, sin) of the grid angle that minimizes the bounding-rectangle area
    of each 2D point set of the (t, n, 2) stack `p2`, as (t, 2) rows."""
    k = len(_MIN_AREA_TURNS)
    hi, lo, _ = _extremes(_MIN_AREA_BASIS, p2)                     # (t, 2k) each
    spans = np.maximum(hi - lo, 2 * EXTENT_FLOOR)
    return _MIN_AREA_TURNS[np.argmin(spans[:, :k] * spans[:, k:], axis=1)]


def _pca_axes(cov, X):
    """Principal axes of each covariance of the (g, 3, 3) stack `cov`
    (columns, descending eigenvalue), with near-tied eigenvalue pairs
    re-oriented by a min-area rectangle search over the matching centred
    points of the (g, n, 3) stack `X`.

    PCA leaves the basis of a (near-)degenerate eigenspace arbitrary — for a
    square cross-section the returned pair can sit at any in-plane angle, far
    outside the reach of the local refinement sweep, so the tie is resolved
    geometrically here.  The tied sets are searched in blocks of `_BLOCK_BYTES`.
    """
    lam, axes = eigh_descending(cov)
    step = max(1, _BLOCK_BYTES // (8 * len(_MIN_AREA_BASIS) * X.shape[1]))
    for i, j in ((0, 1), (1, 2), (0, 1)):
        untied = (lam[:, j] <= 0.0) | (lam[:, i] > _TIED_EIGENVALUE_RATIO * lam[:, j])
        tied = np.flatnonzero(~untied)
        for start in range(0, len(tied), step):
            blk = tied[start:start + step]
            Xb = X if len(blk) == len(X) else X[blk]       # fit_obb's stack: no copy
            c, s = _min_area_turns(Xb @ axes[blk][:, :, (i, j)]).T[:, :, None]
            a_old, b_old = axes[blk, :, i], axes[blk, :, j]
            axes[blk, :, i] = c * a_old + s * b_old
            axes[blk, :, j] = -s * a_old + c * b_old
    return axes


def _extents(cols):
    """max - min along the last axis, reduced on a contiguous copy: the
    strided last axis of a transposed (..., n, 3) array would run 3-long
    inner loops.  Max and min are exact, so the order cannot change them."""
    cols = np.ascontiguousarray(cols)
    return cols.max(axis=-1) - cols.min(axis=-1)


def _sweep(X, R):
    """Coordinate-descent sweep of small rotations about each axis, in
    `_REFINE_STEPS` rounds, minimizing the volume of each centred point set
    of the (g, n, 3) stack `X` along its axes in the (g, 3, 3) stack `R`.

    Returns the refined (g, 3, 3) axes and the (g,) floor-clamped volumes of
    the sets' extents along them.  Swept in blocks of sets that fit in
    `_BLOCK_BYTES`; in a larger set a step rotates its two columns on its own.
    """
    step = max(1, _BLOCK_BYTES // (8 * len(_SWEEP_STEPS[0][0]) * X.shape[1]))
    if step < len(X):
        parts = [_sweep(X[a:a + step], R[a:a + step]) for a in range(0, len(X), step)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    R = R.copy()
    P = X @ R
    ext = _extents(P.transpose(0, 2, 1))
    best_vol = np.maximum(ext, 2.0 * EXTENT_FLOOR).prod(axis=1)
    for basis, turns in _SWEEP_STEPS:
        m = turns.shape[1]
        for axis in range(3):
            # rotating about a box axis only mixes the other two projected
            # columns, so the sweep needs no full re-projection
            j, k = (axis + 1) % 3, (axis + 2) % 3
            pjk = P[:, :, (j, k)]
            hi, lo, uv = _extremes(basis, pjk)                  # (g, 2m) each
            exts = np.empty((len(X), m, 3))
            exts[:, :, axis] = ext[:, axis:axis + 1]
            exts[:, :, j] = hi[:, :m] - lo[:, :m]
            exts[:, :, k] = hi[:, m:] - lo[:, m:]
            vols = np.maximum(exts, 2.0 * EXTENT_FLOOR).prod(axis=2)
            g = np.flatnonzero(vols.min(axis=1) < best_vol)
            kb = np.argmin(vols[g], axis=1)
            best_vol[g] = vols[g, kb]
            R[g] = R[g] @ turns[axis, kb]
            if uv is None:
                pjk = pjk if len(g) == len(X) else pjk[g]     # no copy when every set won
                uv = basis[np.stack([kb, m + kb], axis=1)] @ pjk.transpose(0, 2, 1)
                P[g, :, j], P[g, :, k] = uv[:, 0], uv[:, 1]
            else:
                P[g, :, j], P[g, :, k] = uv[g, kb], uv[g, m + kb]
            ext[g] = exts[g, kb]
            del uv, pjk     # before the next step's product
    return R, best_vol


def fit_obb(points):
    """Approximate minimum-volume bounding box of a point set.

    Args:
        points: (n, 3) array-like, n >= 1 (callers normally pass >= 4).

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

    R = _sweep(X[None], _pca_axes((X.T @ X / len(X))[None], X[None]))[0][0]

    # canonical form: extents descending, dominant axes sign-fixed, det = +1
    ext = _extents((X @ R).T)
    R = R[:, np.argsort(-ext, kind="stable")]
    for c in (0, 1):
        col = R[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            R[:, c] = -col
    R[:, 2] = cross(R[:, 0], R[:, 1])
    cols = np.ascontiguousarray((X @ R).T)
    lo, hi = cols.min(axis=1), cols.max(axis=1)
    center = mean + R @ ((lo + hi) / 2.0)
    half = np.maximum((hi - lo) / 2.0, EXTENT_FLOOR)
    return OrientedBox(center, R, half)


# ===========================================================================
# Split search
# ===========================================================================

def evaluate_split(points, parent_box, axis, offset):
    """Cut `points` with the plane normal to box axis `axis` through
    center + offset * that axis, and fit both sides.

    Returns (idx_a, idx_b, box_a, box_b): the indices of the points below the
    plane and on its non-negative side (ties go there), and each side's box.

    Raises:
        EmptySide: one side received no points.
        DegenerateInput: one side's points all coincide.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    d = (pts - parent_box.center) @ parent_box.axis(axis) - offset
    idx_a = np.flatnonzero(d < 0.0)
    idx_b = np.flatnonzero(d >= 0.0)
    if len(idx_a) == 0 or len(idx_b) == 0:
        raise EmptySide(f"plane axis={axis} offset={offset:.6g} "
                        f"left {len(idx_a)}/{len(idx_b)} points")
    return idx_a, idx_b, fit_obb(pts.take(idx_a, axis=0)), fit_obb(pts.take(idx_b, axis=0))


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


def _slab_order(coord):
    """np.argsort(coord, kind="stable") and coord in that order, from numpy's
    faster default sort unless two sorted values tie (or are NaN or ±0)."""
    order = np.argsort(coord)
    ranked = coord.take(order)
    if not (ranked[1:] > ranked[:-1]).all():
        order = np.argsort(coord, kind="stable")
        ranked = coord.take(order)
    return order, ranked


def _slab_summaries(X, coord, offsets, dirs):
    """Cut the centred points `X` at the sorted `offsets` of `coord` and
    summarize each of the len(offsets) + 1 slabs.

    A point lies below an offset iff coord < offset, which is exactly when
    coord - offset < 0 (a float difference is zero only for equal operands),
    so the slabs reproduce evaluate_split's partitions.

    The points are gathered once in slab order, so each slab is a contiguous
    run of rows, and copied once as coordinate rows for `_project`, so each
    slab's projections (in runs of points that fit `_BLOCK_BYTES`) take
    contiguous slices and come out direction-major.  Ties go to the first
    point in slab order."""
    order, ranked = _slab_order(coord)
    bounds = np.concatenate(([0], np.searchsorted(ranked, offsets), [len(coord)]))
    n_slabs, m = len(bounds) - 1, len(dirs)
    slabs = _Slabs(bounds, np.zeros((n_slabs, 3)), np.zeros((n_slabs, 3, 3)),
                   np.full((n_slabs, m), -np.inf), np.zeros((n_slabs, m), dtype=int),
                   np.full((n_slabs, m), np.inf), np.zeros((n_slabs, m), dtype=int))
    Xo = X.take(order, axis=0)
    XT = Xo.T.copy()
    rows, step = np.arange(m), max(1, _BLOCK_BYTES // (8 * m))
    for j in range(n_slabs):
        a, b = bounds[j], bounds[j + 1]
        if a == b:
            continue
        Xs = Xo[a:b]
        slabs.s1[j] = Xs.sum(axis=0)
        slabs.s2[j] = Xs.T @ Xs
        for c in range(a, b, step):
            proj = _project(XT[:, c:min(b, c + step)], dirs)
            top, bot = proj.argmax(axis=1), proj.argmin(axis=1)
            hi, lo = proj[rows, top], proj[rows, bot]
            up, down = (hi > slabs.hi[j], lo < slabs.lo[j]) if c > a else (slice(None),) * 2
            slabs.hi[j, up], slabs.hi_idx[j, up] = hi[up], order[c + top[up]]
            slabs.lo[j, down], slabs.lo_idx[j, down] = lo[down], order[c + bot[down]]
            del proj        # before the next run's projection
    return slabs


def _leaders(v, rises):
    """Per row i and column of `v`, the last row j <= i that `rises(v[j],
    max(v[:j]))` (row 0 always does): the row of the running maximum down
    the rows that the tie rule `rises` picks."""
    best = np.maximum.accumulate(v, axis=0)
    rise = np.ones(v.shape, dtype=bool)
    rise[1:] = rises(v[1:], best[:-1])
    return np.maximum.accumulate(np.where(rise, np.arange(len(v))[:, None], 0), axis=0)


def _side_summaries(slabs):
    """Both sides, slabs 0..k-1 and k..s-1, of each inner slab bound k as
    (s - 1, 2, ...) arrays: count, moment sums (s1, s2 flat), extremes (max,
    min) and coreset indices (max, then min point per direction; repeats
    leave a box fit unchanged), with the bits of summing each side alone:
    +0.0, then its slabs in order, and extremes from the lowest tied slab."""
    s = len(slabs.bounds) - 1
    moments = np.concatenate((slabs.s1, slabs.s2.reshape(s, 9)), axis=1) + 0.0
    above = moments.copy()
    for j in range(1, s):     # a reversed cumsum would group these the other way
        above[:s - j] += moments[j:]
    picks = []
    for v, idx in ((slabs.hi, slabs.hi_idx), (-slabs.lo, slabs.lo_idx)):
        # scanned up the slabs for the above sides: the last tie is the lowest
        at = np.stack((_leaders(v, np.greater)[:-1],
                       s - 1 - _leaders(v[::-1], np.greater_equal)[-2::-1]), axis=1)
        picks += [np.take_along_axis(a[:, None], at, axis=0) for a in (v, idx)]
    hi, top, neg_lo, bot = picks
    count = np.stack((slabs.bounds[1:-1], slabs.bounds[-1] - slabs.bounds[1:-1]), axis=1)
    return (count, np.stack((np.cumsum(moments, axis=0)[:-1], above[1:]), axis=1),
            hi, -neg_lo, np.concatenate((top, bot), axis=2))


def _screen(pts, box, params):
    """Screened summed volume of each candidate plane, as [(volume, axis,
    offset)] in (axis, offset) order.  Planes that leave an empty or
    coincident side, or repeat the partition of a smaller offset, are left
    out.  Every side's coreset has 2 * len(SCREEN_DIRECTIONS) rows, so all
    sides are fitted (PCA from their moments, then the sweep) as one stack."""
    X = pts - pts.mean(axis=0)
    dirs = SCREEN_DIRECTIONS @ box.rotation.T
    planes, sides = [], []
    for axis in range(3):
        offsets = candidate_offsets(box.half_extents[axis], params.planes_per_axis)
        # the expression evaluate_split partitions by, for bit-equal sides
        coord = (pts - box.center) @ box.axis(axis)
        slabs = _slab_summaries(X, coord, offsets, dirs)
        count, moments, hi, lo, coreset = _side_summaries(slabs)
        # drop a plane with an empty or coincident side, or with the partition
        # of the previous offset (which ties bit for bit and wins the tie)
        keep = ((count[:, 0] > slabs.bounds[:-2]) & (count[:, 1] > 0)
                & ~((hi - lo).max(axis=2) < _COINCIDENT_SPAN).any(axis=1))
        planes += [(axis, float(offset)) for offset in offsets[keep]]
        sides.append((count[keep], moments[keep], coreset[keep]))
    if not planes:
        return []
    count, moments, coreset = (np.concatenate(f).reshape(-1, *f[0].shape[2:]) for f in zip(*sides))
    s1, s2 = moments[:, :3], moments[:, 3:].reshape(-1, 3, 3)
    mean = s1 / count[:, None]
    C = X.take(coreset, axis=0) - mean[:, None, :]
    cov = s2 / count[:, None, None] - mean[:, :, None] * mean[:, None, :]
    _, vols = _sweep(C, _pca_axes(cov, C))
    return [(float(a + b), *plane) for (a, b), plane in zip(vols.reshape(-1, 2), planes)]


def _best_split_eval(node, cloud, params):
    """The finalist with the smallest summed child volume as (axis, offset,
    idx_a, idx_b, box_a, box_b), or None if it fails the acceptance test
    (volume ratio + per-child point minimum)."""
    pts = cloud.points.take(node.point_indices, axis=0)
    scored = _screen(pts, node.box, params)
    # refit in (axis, offset) order, so the strict < below keeps the first
    # of tied full-point volumes
    finalists = sorted(sorted(scored, key=lambda c: c[0])[:SCREEN_FINALISTS],
                       key=lambda c: c[1:])
    best = best_volume = None
    for _, axis, offset in finalists:
        split = evaluate_split(pts, node.box, axis, offset)
        volume = split[2].volume + split[3].volume
        if best is None or volume < best_volume:
            best, best_volume = (axis, offset) + split, volume
    if best is None or best_volume > params.volume_ratio * node.box.volume:
        return None
    # strictly more than min_points/2 per child; the boundary count is rejected
    if min(len(best[2]), len(best[3])) <= params.min_points / 2.0:
        return None
    return best


def decompose(cloud, params=None):
    """Build the box-decomposition tree of a cloud.

    Recursion stops at nodes holding fewer than `min_points` points or whose
    best candidate split is rejected.  Deterministic for identical input.
    """
    params = params or DecompParams()
    root_box = fit_obb(cloud.points)
    tree = DecompTree([DecompNode(0, root_box, np.arange(len(cloud.points)))])
    queue = deque([0])
    while queue:
        nid = queue.popleft()
        node = tree.nodes[nid]
        if len(node.point_indices) < params.min_points:
            continue
        best = _best_split_eval(node, cloud, params)
        if best is None:
            continue
        _, _, idx_a, idx_b, box_a, box_b = best
        ida, idb = len(tree.nodes), len(tree.nodes) + 1
        tree.nodes.append(DecompNode(ida, box_a, node.point_indices[idx_a], nid))
        tree.nodes.append(DecompNode(idb, box_b, node.point_indices[idx_b], nid))
        node.children = (ida, idb)
        queue.extend((ida, idb))
        logger.debug("split node %d (%d pts) -> %d (%d pts) + %d (%d pts), ratio %.3f",
                     nid, len(node.point_indices), ida, len(idx_a), idb, len(idx_b),
                     (box_a.volume + box_b.volume) / node.box.volume)
    logger.info("decomposition: %d nodes, %d leaves", len(tree.nodes), len(tree.leaf_ids()))
    return tree
