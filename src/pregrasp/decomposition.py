"""Fit-and-split box decomposition of a point cloud.

A cloud is recursively partitioned into a binary tree of oriented boxes:

1. fit an approximate minimum-volume bounding box (PCA axes, then a
   coordinate-descent sweep of small rotations about each box axis),
2. screen a fixed grid of axis-parallel candidate planes through the box:
   the points are sorted once per axis into slabs between the planes (each
   slab a contiguous run of their sorted centred and box-frame coordinate
   rows, the latter projected on the 49 integer screening vectors by one
   (49, 3) @ (3, cols) product per block), and the sides of all planes of
   an axis are summarized, each by masked reductions over its slabs, into
   exact moments and extreme-point coresets of 2 x 49 points.
   All sides on all three axes are then scored as one stack: one batch of
   covariances and eigen-decompositions (PCA), the min-area search on the
   sides with tied eigenvalues, and one rotation sweep over the coresets,
3. refit the best-screened planes on all of their points and take the
   smallest summed child volume (ties: lowest axis, then smallest offset);
   accept it when that sum drops below ``volume_ratio`` of the parent volume
   and both children keep more than ``min_points / 2`` points,
4. recurse while a node holds at least ``min_points`` points.

Node ids are assigned breadth-first from 0.

Every point set of a box fit is kept as contiguous (3, n) coordinate rows,
from centring to the final extents: a node's points as a (1, 3, n) stack,
the screen's sides as (g, 3, 98) coresets, through the same functions.  So
the centring, each sweep step's two projected rows, read and written back,
and the extents all run along contiguous memory.  The split search's
box-frame coordinates, which the screen's slabs and evaluate_split's
partition both cut, are the fixed-order sums (a0 r0 + a1 r1) + a2 r2 that
`geom.dot3` takes, so a point's side of a plane depends on no BLAS kernel.

Memory is bounded by the cloud's size: the tied-pair search (60 rows per
set), the sweep (18) and the slab projections (49) reduce their per-point
products in blocks of ``_BLOCK_BYTES``, with running extremes.  Those
products only choose grid angles and sweep steps; the box comes from table
rotations and the whole ``R.T @ X``, so a block's own gemm rounding could
only matter where two choices tie to within a few ulps.

A set too large for one block (the fit of a node, not the screen's
coresets) decides each tied-pair angle and sweep step on a coreset of its
extreme points (Barequet & Har-Peled, J. Algorithms 2001), a bool mask that
its fit's searches share.  A search adds the points extreme along each of
its projected rows.  A step picks its winning row on the coreset, then
checks it on all points with the 2-row product ``basis[[k, m + k]]`` that
the sweep's update takes anyway: the check passes when that product's max
and min equal the coreset's bit for bit.  The choice is then the all-point
choice, first-index ties included: a subset's max is at most the max and
fl() is monotone, so no row's coreset volume (or area) exceeds its
all-point one, while the winner's are equal.  A step whose coreset finds
no volume below the current one has none on all points either.  A failed
check adds the all-point extremes and decides the step again; after
``_CHECK_FAILS`` failed checks that one step runs on all points, as above,
and the fit's next search tries the coreset again.
"""

import itertools
import logging
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from .errors import DegenerateInput, EmptySide
from .geom import centred_rows, covariance, cross, eigh_descending, rotations_about_axes

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
    half-extents sorted in descending order (u is the longest axis), with the
    `classifier.pca` eigenvalues of the points `fit_obb` fitted (else None)."""

    center: np.ndarray
    rotation: np.ndarray
    half_extents: np.ndarray
    eigenvalues: Optional[np.ndarray] = None

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
    BOUNDS: ClassVar[dict] = {"volume_ratio": "in (0, 1]", "min_points": ">= 4"}


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

# Failed coreset checks after which a grid step runs on all points (see the
# module docstring).
_CHECK_FAILS = 2

# Per round of the rotation sweep: the stacked 2D rotation rows of its 9
# angles, and per box axis the (9, 3, 3) rotations about it by those angles.
_SWEEP_STEPS = [(_rot2_basis(np.cos(a), np.sin(a)),
                 rotations_about_axes(np.repeat(np.eye(3), 9, axis=0),
                                      np.tile(a, 3)).reshape(3, 9, 3, 3))
                for a in (np.linspace(-h, h, 9)
                          for h in np.radians(10.0) / 2.0 ** np.arange(_REFINE_STEPS))]


def _extremes(basis, p2):
    """(g, r) max and min over the points of basis @ p2[s] for each set of
    the (g, 2, n) stack of coordinate rows `p2`, reduced over runs of points
    that fit in `_BLOCK_BYTES`, and that (g, r, n) product if it is one run
    (else None)."""
    r, (g, _, n) = len(basis), p2.shape
    step = max(1, _BLOCK_BYTES // (8 * r * g))
    uv = basis @ p2[:, :, :step]
    hi, lo = uv.max(axis=2), uv.min(axis=2)
    for a in range(step, n, step):
        uv = basis @ p2[:, :, a:a + step]
        hi, lo = np.maximum(hi, uv.max(axis=2)), np.minimum(lo, uv.min(axis=2))
    return hi, lo, (uv if step >= n else None)


class _Coreset:
    """Extreme points of one point set, as a bool mask over its points, shared
    by the grid searches of its box fit: a search whose product does not fit
    in one block decides each step on them and checks the winner on all
    points; a failed check adds the all-point extremes, and the step runs on
    all points after `_CHECK_FAILS` of them (see the module docstring)."""

    def __init__(self, n):
        self.mask = np.zeros(n, dtype=bool)

    def take(self, basis, rows):
        """This coreset for a search of the grid `basis` whose product with
        the (c, n) projected coordinate rows `rows` does not fit in one
        block, with their extremes along each row added; else None."""
        if 8 * len(basis) * rows.shape[1] <= _BLOCK_BYTES:
            return None
        self._add(np.concatenate((rows.argmax(axis=1), rows.argmin(axis=1))))
        return self

    def _add(self, at):
        self.mask[at] = True
        self.idx = np.flatnonzero(self.mask)

    def search(self, basis, p2, choose):
        """`_grid_search` of the one (2, n) set `p2`, decided on the coreset:
        the choice and its winner's rows of basis @ p2 (None if no row wins),
        or None after `_CHECK_FAILS` failed checks, each of which adds the
        all-point extremes but the last."""
        m, rows, fails = len(basis) // 2, None, 0
        while True:
            uv_core = basis @ p2[:, self.idx]
            hi, lo = uv_core.max(axis=1)[None], uv_core.min(axis=1)[None]
            choice = choose(hi, lo)
            if len(choice[0]) == 0:
                return choice, None
            if rows != [choice[1][0], m + choice[1][0]]:
                rows = [choice[1][0], m + choice[1][0]]
                uv = basis[rows] @ p2
                at = np.concatenate((uv.argmax(axis=1), uv.argmin(axis=1)))
            if (uv[[0, 1, 0, 1], at] == np.concatenate((hi[0, rows], lo[0, rows]))).all():
                return choice, (uv[:1], uv[1:])
            fails += 1
            if fails == _CHECK_FAILS:
                return None
            self._add(at)


def _grid_search(basis, p2, choose, core=None):
    """A step of a grid search over each set of the (g, 2, n) stack of
    coordinate rows `p2`.

    `choose(hi, lo)` takes the (g, 2m) max and min over each set's points of
    the rows of basis @ p2[s] and returns (the sets a row wins, each one's
    winning row k < m, ...).  Returns that choice and the winners' rows k and
    m + k of the product, two (len(sets), n) arrays, or None where they were
    not taken.  With a `core` (one set) the step is decided on its coreset,
    and on all points once `_CHECK_FAILS` checks have failed there."""
    found = None if core is None else core.search(basis, p2[0], choose)
    if found is not None:
        return found
    hi, lo, uv = _extremes(basis, p2)
    choice = choose(hi, lo)
    if uv is not None:
        won, kb = choice[:2]
        uv = uv[won, kb], uv[won, len(basis) // 2 + kb]
    return choice, uv


def _min_area_choice(hi, lo):
    """Every set's grid row of least bounding-rectangle area, from the (t, 2k)
    extremes of the min-area grid, as `_grid_search` takes a choice."""
    k = hi.shape[1] // 2
    spans = np.maximum(hi - lo, 2 * EXTENT_FLOOR)
    return np.arange(len(hi)), np.argmin(spans[:, :k] * spans[:, k:], axis=1)


def _min_area_turns(p2, core=None):
    """(cos, sin) of the grid angle that minimizes the bounding-rectangle area
    of each 2D point set of the (t, 2, n) stack of coordinate rows `p2`, as
    (t, 2) rows; on the coreset `core` of a one-set stack whose product does
    not fit a block, each step on all points once its checks fail."""
    core = core and core.take(_MIN_AREA_BASIS, p2[0])
    (_, kb), _ = _grid_search(_MIN_AREA_BASIS, p2, _min_area_choice, core)
    return _MIN_AREA_TURNS[kb]


def _pca_axes(lam, axes, X, core=None):
    """The principal axes `axes` of each set of a stack, as `eigh_descending`
    returns them with their eigenvalues `lam`, (g, 3) and (g, 3, 3), with
    near-tied eigenvalue pairs re-oriented in place by a min-area rectangle
    search over the matching centred coordinate rows of the (g, 3, n) stack
    `X` (on the coreset `core` if g is 1).

    PCA leaves the basis of a (near-)degenerate eigenspace arbitrary — for a
    square cross-section the returned pair can sit at any in-plane angle, far
    outside the reach of the local refinement sweep, so the tie is resolved
    geometrically here.  The tied sets are searched in blocks of `_BLOCK_BYTES`.
    """
    step = max(1, _BLOCK_BYTES // (8 * len(_MIN_AREA_BASIS) * X.shape[2]))
    for i, j in ((0, 1), (1, 2), (0, 1)):
        untied = (lam[:, j] <= 0.0) | (lam[:, i] > _TIED_EIGENVALUE_RATIO * lam[:, j])
        tied = np.flatnonzero(~untied)
        for start in range(0, len(tied), step):
            blk = tied[start:start + step]
            Xb = X if len(blk) == len(X) else X[blk]       # fit_obb's stack: no copy
            pair = axes[blk][:, :, (i, j)].transpose(0, 2, 1) @ Xb
            c, s = _min_area_turns(pair, core).T[:, :, None]
            a_old, b_old = axes[blk, :, i], axes[blk, :, j]
            axes[blk, :, i] = c * a_old + s * b_old
            axes[blk, :, j] = -s * a_old + c * b_old
    return axes


def _sweep_choice(hi, lo, ext, axis, best_vol):
    """A sweep step's choice from the (g, 2m) extremes of its grid rows about
    box axis `axis`, as `_grid_search` takes one: the sets whose least grid
    volume drops below `best_vol`, the first row of each that attains it,
    that volume and those extents (`ext` gives the unrotated axis's)."""
    m = hi.shape[1] // 2
    j, k = (axis + 1) % 3, (axis + 2) % 3
    exts = np.empty((len(hi), m, 3))
    exts[:, :, axis] = ext[:, axis:axis + 1]
    exts[:, :, j] = hi[:, :m] - lo[:, :m]
    exts[:, :, k] = hi[:, m:] - lo[:, m:]
    vols = np.maximum(exts, 2.0 * EXTENT_FLOOR).prod(axis=2)
    g = np.flatnonzero(vols.min(axis=1) < best_vol)
    kb = np.argmin(vols[g], axis=1)
    return g, kb, vols[g, kb], exts[g, kb]


def _sweep(X, R, core=None):
    """Coordinate-descent sweep of small rotations about each axis, in
    `_REFINE_STEPS` rounds, minimizing the volume of each centred point set
    of the (g, 3, n) stack of coordinate rows `X` along its axes in the
    (g, 3, 3) stack `R`.

    Returns the refined (g, 3, 3) axes and the (g,) floor-clamped volumes of
    the sets' extents along them.  The stack is swept whole: one set of a box
    fit (on the coreset `core` if given), or the screen's 6 * SCREEN_PLANES
    sides, whose 98-row coresets fit one `_BLOCK_BYTES` block of grid products.
    """
    R = R.copy()
    P = R.transpose(0, 2, 1) @ X
    ext = P.max(axis=2) - P.min(axis=2)
    best_vol = np.maximum(ext, 2.0 * EXTENT_FLOOR).prod(axis=1)
    core = core and core.take(_SWEEP_STEPS[0][0], P[0])
    for basis, turns in _SWEEP_STEPS:
        m = turns.shape[1]
        for axis in range(3):
            # rotating about a box axis only mixes the other two projected
            # rows, so the sweep needs no full re-projection; rows (2, 0) are
            # the one pair that is not a slice
            j, k = (axis + 1) % 3, (axis + 2) % 3
            pjk = P[:, j:k + 1] if j < k else P[:, (j, k)]
            (g, kb, vol, e), uv = _grid_search(
                basis, pjk, lambda hi, lo: _sweep_choice(hi, lo, ext, axis, best_vol), core)
            best_vol[g], ext[g] = vol, e
            R[g] = R[g] @ turns[axis, kb]
            if uv is None:
                pjk = pjk if len(g) == len(X) else pjk[g]     # no copy when every set won
                uv = basis[np.stack([kb, m + kb], axis=1)] @ pjk
                uv = uv[:, 0], uv[:, 1]
            P[g, j], P[g, k] = uv
            del uv, pjk     # before the next step's product
    return R, best_vol


def fit_obb(points):
    """Approximate minimum-volume bounding box of a point set.

    Args:
        points: (n, 3) array-like, n >= 1 (callers normally pass >= 4).

    Returns:
        OrientedBox containing every input point; half-extents sorted
        descending and floored at EXTENT_FLOOR; rotation right-handed with the
        two dominant axes sign-fixed (largest-magnitude component positive);
        eigenvalues with the bytes that `classifier.pca` gives the points.

    Raises:
        DegenerateInput: a point is not finite, all points coincide, or their
            sum or covariance overflows.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise DegenerateInput("no points")
    mean, X = centred_rows(pts)

    core = _Coreset(X.shape[1])
    lam, axes = eigh_descending(covariance(X)[None])
    R = _sweep(X[None], _pca_axes(lam, axes, X[None], core), core)[0][0]

    # canonical form: extents descending, dominant axes sign-fixed, det = +1
    P = R.T @ X
    R = R[:, np.argsort(-(P.max(axis=1) - P.min(axis=1)), kind="stable")]
    for c in (0, 1):
        col = R[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            R[:, c] = -col
    R[:, 2] = cross(R[:, 0], R[:, 1])
    P = R.T @ X
    lo, hi = P.min(axis=1), P.max(axis=1)
    center = mean + R @ ((lo + hi) / 2.0)
    half = np.maximum((hi - lo) / 2.0, EXTENT_FLOOR)
    return OrientedBox(center, R, half, lam[0])


# ===========================================================================
# Split search
# ===========================================================================

def _box_coordinates(pts, box, axes):
    """(len(axes), n) rows: the coordinates of the (n, 3) points `pts` along
    each box axis a of the list `axes`, as the fixed-order sum
    (a0 r0 + a1 r1) + a2 r2 over the coordinate rows r of pts - box.center,
    the sum `geom.dot3` takes.  Elementwise arithmetic, so a point's side of
    a split plane depends on neither the BLAS kernel nor the other points."""
    r = np.subtract(pts.T, box.center[:, None], order="C")
    a = box.rotation[:, axes, None]
    return (a[0] * r[0] + a[1] * r[1]) + a[2] * r[2]


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
    d = _box_coordinates(pts, parent_box, [axis])[0] - offset
    idx_a = np.flatnonzero(d < 0.0)
    idx_b = np.flatnonzero(d >= 0.0)
    if len(idx_a) == 0 or len(idx_b) == 0:
        raise EmptySide(f"plane axis={axis} offset={offset:.6g} "
                        f"left {len(idx_a)}/{len(idx_b)} points")
    return idx_a, idx_b, fit_obb(pts.take(idx_a, axis=0)), fit_obb(pts.take(idx_b, axis=0))


def candidate_offsets(half_extent):
    """SCREEN_PLANES uniformly spaced plane offsets in the open interval (-h, +h)."""
    k = np.arange(1, SCREEN_PLANES + 1, dtype=float)
    return -half_extent + k * (2.0 * half_extent) / (SCREEN_PLANES + 1)


def _screen_directions():
    """The primitive integer vectors with max-norm <= 2, one per antipodal
    pair (first non-zero component positive): 49 vectors, as floats."""
    v = np.array(list(itertools.product(range(-2, 3), repeat=3)))
    v = v[np.gcd.reduce(np.abs(v), axis=1) == 1]
    first = v[np.arange(len(v)), np.argmax(v != 0, axis=1)]
    return v[first > 0].astype(float)


# Candidate sides are screened on their extreme points along these integer
# vectors of the parent box frame: an extreme-point coreset in the sense of
# Barequet & Har-Peled (J. Algorithms 2001) and Agarwal, Har-Peled &
# Varadarajan (J. ACM 2004).
SCREEN_DIRECTIONS = _screen_directions()

# Candidate planes per box axis, evenly spaced inside the box.
SCREEN_PLANES = 16

# Best-screened planes that are refit on all of their points.  The screen
# ranks only approximately: on 126 test clouds at the default parameters
# (120 random unions of boxes, six 5k-point synthetic shapes), 3 finalists
# always held the full-point search's winner; 2 missed it on 1 cloud, 1 on 6.
SCREEN_FINALISTS = 3

# A side whose extreme points span less than this along every screening
# vector, divided by the vector's length, is treated as coincident and
# skipped.  fit_obb rejects a side whose points all lie within 1e-12 of their
# mean on each world coordinate, so within sqrt(3) * 1e-12 of it.  The box
# frame is a rotation of the world frame, so such a side spans less than
# 2 * sqrt(3) * 1e-12 along any unit direction of it too.  Rounding the
# box-frame coordinates costs a few ulps of a point's distance from the box
# center: below the 0.5e-12 left over for points within 100 m of it.
_COINCIDENT_SPAN = 4e-12


@dataclass
class _Slabs:
    """Summaries of a node's points cut into slabs along one axis."""

    bounds: np.ndarray       # (s + 1,) slab j holds sorted ranks bounds[j]:bounds[j + 1]
    s1: np.ndarray           # (s, 3) sum of the centred points per slab
    s2: np.ndarray           # (s, 3, 3) sum of their outer products
    hi: np.ndarray           # (s, m) max projection per screening vector (-inf if empty)
    hi_idx: np.ndarray       # (s, m) index of a point attaining it
    lo: np.ndarray           # (s, m) min projection per vector (+inf if empty)
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


def _slab_summaries(X, frame, axis, offsets):
    """Cut the centred points, the (3, n) coordinate rows `X`, at the sorted
    `offsets` of their box-frame coordinate row `frame[axis]` and summarize
    each of the len(offsets) + 1 slabs.

    A point lies below an offset iff coord < offset, which is exactly when
    coord - offset < 0 (a float difference is zero only for equal operands),
    so the slabs reproduce evaluate_split's partitions.

    The rows of `X` and `frame` are gathered once in slab order, so each
    slab is a contiguous run of both.  Its moment sums are each row's
    sequential sum, from a cumulative sum (`np.sum` along a row would sum
    pairwise), and its outer products one (3, s) @ (s, 3) product.  Its
    projections on SCREEN_DIRECTIONS are one (49, 3) @ (3, cols) product per
    run of points that fits `_BLOCK_BYTES`, direction-major.  Each v_i * L_i
    is exact (v_i is 0, +-1 or +-2), so an FMA rounds like a
    multiply-then-add, and a kernel that sums k in order gives the
    fixed-order (v0 L0 + v1 L1) + v2 L2 but for the sign of an exact zero,
    which `+ 0.0` on the extremes clears.  Ties go to the first point in
    slab order."""
    order, ranked = _slab_order(frame[axis])
    bounds = np.concatenate(([0], np.searchsorted(ranked, offsets), [len(ranked)]))
    n_slabs, m = len(bounds) - 1, len(SCREEN_DIRECTIONS)
    slabs = _Slabs(bounds, np.zeros((n_slabs, 3)), np.zeros((n_slabs, 3, 3)),
                   np.full((n_slabs, m), -np.inf), np.zeros((n_slabs, m), dtype=int),
                   np.full((n_slabs, m), np.inf), np.zeros((n_slabs, m), dtype=int))
    Xo, L = X.take(order, axis=1), frame.take(order, axis=1)
    rows, step = np.arange(m), max(1, _BLOCK_BYTES // (8 * m))
    for j in range(n_slabs):
        a, b = bounds[j], bounds[j + 1]
        if a == b:
            continue
        Xs = Xo[:, a:b]
        # + 0.0: a sum from the first term keeps an all -0.0 run's sign, which
        # a sum from the identity clears
        slabs.s1[j] = np.cumsum(Xs, axis=1)[:, -1] + 0.0
        slabs.s2[j] = Xs @ Xs.T
        for c in range(a, b, step):
            proj = SCREEN_DIRECTIONS @ L[:, c:min(b, c + step)]
            top, bot = proj.argmax(axis=1), proj.argmin(axis=1)
            hi, lo = proj[rows, top] + 0.0, proj[rows, bot] + 0.0
            up, down = hi > slabs.hi[j], lo < slabs.lo[j]
            slabs.hi[j, up], slabs.hi_idx[j, up] = hi[up], order[c + top[up]]
            slabs.lo[j, down], slabs.lo_idx[j, down] = lo[down], order[c + bot[down]]
            del proj        # before the next run's projection
    return slabs


def _side_summaries(slabs):
    """Both sides, slabs 0..k-1 and k..s-1, of each inner slab bound k as
    (s - 1, 2, ...) arrays: count, moment sums (s1, s2 flat), extremes (max,
    min) and coreset indices (max, then min point per direction; repeats
    leave a box fit unchanged), with the bits of summing each side alone:
    +0.0, then its slabs in order, and extremes from the lowest tied slab.
    Each is a reduction over a (s - 1, 2, s, ...) table with the slabs off
    the side masked: the last entry of a (sequential) cumulative sum with
    them +0.0, and a max or min (argmax or argmin: the first tie) with them
    -inf or +inf."""
    s = len(slabs.bounds) - 1
    below = np.arange(s) < np.arange(1, s)[:, None]
    side = np.stack((below, ~below), axis=1)[..., None]
    moments = np.concatenate((slabs.s1, slabs.s2.reshape(s, 9)), axis=1)
    hi, lo = np.where(side, slabs.hi, -np.inf), np.where(side, slabs.lo, np.inf)
    cols = np.arange(hi.shape[3])
    coreset = (slabs.hi_idx[hi.argmax(axis=2), cols], slabs.lo_idx[lo.argmin(axis=2), cols])
    count = np.stack((slabs.bounds[1:-1], slabs.bounds[-1] - slabs.bounds[1:-1]), axis=1)
    return (count, np.cumsum(np.where(side, moments, 0.0), axis=2)[:, :, -1],
            hi.max(axis=2), lo.min(axis=2), np.concatenate(coreset, axis=2))


def _screen(pts, box):
    """Screened summed volume of each candidate plane, as [(volume, axis,
    offset)] in (axis, offset) order.  Planes that leave an empty or
    coincident side, or repeat the partition of a smaller offset, are left
    out.  Every side's coreset has 2 * len(SCREEN_DIRECTIONS) rows, so all
    sides are fitted (PCA from their moments, then the sweep) as one stack."""
    X = centred_rows(pts)[1]
    # the coordinates evaluate_split partitions by, for bit-equal sides
    frame = _box_coordinates(pts, box, [0, 1, 2])
    norms = np.linalg.norm(SCREEN_DIRECTIONS, axis=1)
    planes, sides = [], []
    for axis in range(3):
        offsets = candidate_offsets(box.half_extents[axis])
        slabs = _slab_summaries(X, frame, axis, offsets)
        count, moments, hi, lo, coreset = _side_summaries(slabs)
        # drop a plane with an empty or coincident side, or with the partition
        # of the previous offset (which ties bit for bit and wins the tie)
        keep = ((count[:, 0] > slabs.bounds[:-2]) & (count[:, 1] > 0)
                & ~(((hi - lo) / norms).max(axis=2) < _COINCIDENT_SPAN).any(axis=1))
        planes += [(axis, float(offset)) for offset in offsets[keep]]
        sides.append((count[keep], moments[keep], coreset[keep]))
    if not planes:
        return []
    count, moments, coreset = (np.concatenate(f).reshape(-1, *f[0].shape[2:]) for f in zip(*sides))
    s1, s2 = moments[:, :3], moments[:, 3:].reshape(-1, 3, 3)
    mean = s1 / count[:, None]
    C = np.subtract(X.take(coreset, axis=1).transpose(1, 0, 2), mean[:, :, None], order="C")
    cov = s2 / count[:, None, None] - mean[:, :, None] * mean[:, None, :]
    _, vols = _sweep(C, _pca_axes(*eigh_descending(cov), C))
    return [(float(a + b), *plane) for (a, b), plane in zip(vols.reshape(-1, 2), planes)]


def _best_split_eval(node, cloud, params):
    """The finalist with the smallest summed child volume as (axis, offset,
    idx_a, idx_b, box_a, box_b), or None if it fails the acceptance test
    (volume ratio + per-child point minimum)."""
    pts = cloud.points.take(node.point_indices, axis=0)
    fits = []
    for _, axis, offset in sorted(_screen(pts, node.box))[:SCREEN_FINALISTS]:
        split = evaluate_split(pts, node.box, axis, offset)
        fits.append((split[2].volume + split[3].volume, axis, offset, split))
    if not fits:
        return None
    # the least (summed volume, axis, offset), as the screen ranked its planes
    volume, axis, offset, split = min(fits, key=lambda f: f[:3])
    if volume > params.volume_ratio * node.box.volume:
        return None
    # strictly more than min_points/2 per child; the boundary count is rejected
    if min(len(split[0]), len(split[1])) <= params.min_points / 2.0:
        return None
    return (axis, offset) + split


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
