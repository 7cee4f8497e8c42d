"""Contact estimation and wrench-space ranking of a pre-grasp pool.

Fingers are modeled as closing rays in the fingertip plane (the pre-grasp
position advanced by finger_length along the approach axis): the thumb closes
from the +closing_dir side, the paired fingers from the opposite side, spread
symmetrically about the approach axis.  Each ray's contact is the first cloud
point encountered inside a thin tube around the ray.  `rank_pool` builds a
sparse voxel index of the cloud once and works through the pool in slices:
every finger ray of a slice is searched in batched passes that visit only
the points in cells along the rays' paths and test each point with the
arithmetic of a scan of every point, pair products summed per row
(`geom.dot3`), on the cells at the ray's front first and on its other cells
only when a point there could still come first.  A grasp's contacts are a
(k, 2, 3) array of (position, normal) rows.  The contacts of a slice's
candidates build their (k, 6) arrays of friction-cone edge wrenches, rows
[force | torque], in one broadcast, and grasps are scored with the
largest-ball (epsilon) quality: the radius of the biggest origin-centered
ball inside the convex hull of those rows, estimated by support-function
sampling.
"""

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .classifier import GRASP_PRESHAPE, GraspType
from .errors import EmptyWrenchSet, NoContacts, check_params
from .geom import (aligned, cross, dot3, perpendicular_frames, rotations_about_axes,
                   row_norms, unit_rows)

logger = logging.getLogger(__name__)

# Bounds on the work in flight: pre-grasps ranked per slice of the pool, and
# rows built per pass of the contact search (ray samples, then (ray, cell)
# pairs from the samples' block lists, then ray-point pairs).  A ray that
# alone exceeds the row bound is searched in a pass of its own, which the
# every-point fallback bounds by the cloud size.
_POOL_SLICE = 128
_CHUNK_ROWS = 8192

# Bytes of the support products that `epsilon_quality` builds at a time (a
# pool slice's at once would be 25 MB at the defaults); one wrench set's may
# exceed it.
_QUALITY_BYTES = 1 << 20


@dataclass
class GraspCandidate:
    pool_index: int
    contacts: np.ndarray    # (k, 2, 3): position, unit normal toward the interior
    quality: float          # 0 whenever fewer than 2 contacts


@dataclass
class EvalParams:
    cone_edges: int = 8
    quality_dirs: int = 1024
    tube_radius: float = 0.005
    BOUNDS: ClassVar[dict] = {"cone_edges": ">= 3", "quality_dirs": "in (0, 14896]",
                              "tube_radius": "> 0"}


# ===========================================================================
# Finger rays and contacts
# ===========================================================================

# Per grasp-type code of a pool row: the spread of the paired fingers about
# the approach axis (radians), and whether a thumb closes too.
_SPREAD = np.radians([GRASP_PRESHAPE[t][0] for t in GraspType])
_THUMB = np.array([t != GraspType.TWO_FINGERTIP for t in GraspType])


def finger_rays(pool, gripper):
    """Closing rays of the fingers of a pre-grasp pool (`sampler.POOL_DTYPE`
    rows), as an (n_rays, 2, 3) array of (origin, direction) rows, pre-grasp
    by pre-grasp.

    Thumb: from the +closing_dir side at half aperture, closing along
    -closing_dir (omitted for TwoFingertip).  The two paired fingers start on
    the -closing_dir side and are rotated about the approach axis by +/- the
    grasp type's preshape spread angle.  All origins lie in the fingertip
    plane.  The rotations of all pre-grasps are built as one stack, and
    every product is taken on operands aligned like fresh arrays, so every
    ray has the bits it gets when its pre-grasp's rays are built alone.
    """
    approach, c, code = pool["approach"], pool["closing_dir"], pool["grasp_type"]
    tip = pool["position"] + approach * gripper.finger_length
    half_ap = gripper.max_aperture / 2.0
    rays = np.empty((len(pool), 3, 2, 3))
    rays[:, 0] = np.stack((tip + c * half_ap, -c), axis=1)
    # a zero spread's rotation would be the identity, whose product can only
    # change the sign of a zero component
    rays[:, 1:] = np.stack((tip - c * half_ap, c), axis=1)[:, None]
    spread = _SPREAD[code]
    turned = np.flatnonzero(spread != 0.0)
    back, closing = aligned(-c[turned] * half_ap)[:, :, None], aligned(c[turned])[:, :, None]
    for finger, s in ((1, spread[turned]), (2, -spread[turned])):
        rot = rotations_about_axes(approach[turned], s)
        rays[turned, finger, 0] = tip[turned] + (rot @ back)[:, :, 0]
        rays[turned, finger, 1] = (rot @ closing)[:, :, 0]
    fingers = np.ones((len(pool), 3), dtype=bool)
    fingers[:, 0] = _THUMB[code]
    return rays[fingers]


def _run_heads(s):
    """Mask of the first element of each run of equal values in a 1-D array."""
    head = np.ones(len(s), dtype=bool)
    head[1:] = s[1:] != s[:-1]
    return head


def _ranges(starts, stops):
    """Concatenation of np.arange(a, b) over the pairs of starts and stops."""
    lengths = stops - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _batches(costs, budget):
    """(start, stop) runs of consecutive items: a run holds the items whose
    summed cost before them falls in one window of `budget`, so it costs
    less than `budget` plus its last item."""
    window = (np.cumsum(costs) - costs) // budget
    heads = np.flatnonzero(_run_heads(window))
    return zip(heads.tolist(), np.append(heads[1:], len(costs)).tolist())


def _row_keys(cells):
    """One sortable key per row of an (n, 3) int64 array: the row's 24 bytes.

    Only equality and a consistent order matter, and a byte key cannot
    overflow however far apart the cells lie.
    """
    return np.ascontiguousarray(cells).view("V24").ravel()


# A cell (side 2 r, half-diagonal sqrt(3) r) can hold a point within r of a
# line only if its center lies within (1 + sqrt(3)) r = 2.73 r of the line;
# 2.83 r leaves 0.1 r for rounding.  Squared, in units of the cell side.
_CELL_REACH = (2.83 / 2.0) ** 2

# The 27 cell offsets of a cell's 3x3x3 block.
_BLOCK = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)

# A ray's search first decides it on its cells whose center t lies within
# _FRONT cell sides of its nearest cell's.
_FRONT = 2

# A point p of a cell with center c has (p - o).d >= (c - o).d - |p - c| |d|.
# `_tube_rows` takes t_p and `_tube_cells` t_c as 3-term dot products of
# fl(p - o) and fl(c - o) with d.  A 3-term dot product summed in any order,
# with or without FMA, is off by at most gamma_3 sum |a_i b_i|, with
# gamma_3 = 3u / (1 - 3u) and u = 2^-53 (Higham, Accuracy and Stability of
# Numerical Algorithms, 2002, sec. 3.1).  So each t is off from the exact
# value by at most (u + gamma_3 (1 + u)) |x| |d| <= 4.01 u |x| for x = p - o
# or c - o.  Let M be the largest coordinate magnitude of the padded cloud box
# (M >= 2 r, as the padding is 2 r a side) and S = M plus the ray origin's
# largest coordinate magnitude.  Then |c - o| <= sqrt(3) S and
# |p - c| <= 1.74 r <= 0.87 M, so the two products err by at most
# 4.01 u (2 |c - o| + |p - c|) <= 17.4 u S.  p's cell is
# floor(fl(fl(p - lo) / 2 r)) and its center fl(lo + fl((k + 1/2) 2 r)), so on
# each axis |p - c| <= r + 4.1 u M + 3.5 u M, and |p - c| |d| <= sqrt(3) r
# (1 + 1e-12) + 14 u M for a unit d (|d|^2 within 1e-12 of 1).  sqrt(3) rounded
# up to 1.7321 covers the first term with room for its own rounding, so
# t_p >= t_c - 1.7321 r - 32 u S.  The bound as computed,
# fl(fl(t_c - 1.7321 r) - 64 u S), lies at most 5.3 u S above its exact value,
# so below every such t_p: a ray whose best t lies below the bound of its
# nearest unsearched cell can gain no point of those cells, not even a tie
# that a lower point index would win.
_HALF_DIAGONAL = 1.7321
_RETIRE_SLACK = 64 * 2.0 ** -53


class ContactIndex:
    """Sparse voxel index of a cloud for ray-tube contact search, built once
    per cloud and tube radius.

    Cells are cubes of side 2 * tube_r anchored at the cloud's minimum
    corner.  Points are kept ordered by cell (ascending point index within a
    cell).  Only occupied cells are stored, together with every cell of their
    3x3x3 blocks, each of which lists the occupied cells around it.  Cells are
    keyed by their integer coordinates' bytes, so a far outlier adds a few
    cells, not a grid reaching out to it, and no key can overflow.
    """

    def __init__(self, cloud, tube_r):
        if not tube_r > 0.0:
            raise ValueError(f"tube_r must be > 0, got {tube_r}")
        pts = cloud.points
        self.points, self.centroid, self.tube_r = pts, cloud.centroid, tube_r
        self.cell = 2.0 * tube_r
        # reduced along contiguous rows: an (n, 3) array's axis-0 reduction
        # runs 3-long inner loops
        cols = np.ascontiguousarray(pts.T)
        self.lo = cols.min(axis=1)
        self._box_lo, self._box_hi = self.lo - self.cell, cols.max(axis=1) + self.cell
        del cols
        self._scale = np.abs(np.concatenate((self._box_lo, self._box_hi))).max()
        cells = self._cells(pts)
        keys = _row_keys(cells)
        self.order = np.argsort(keys, kind="stable")
        first = np.flatnonzero(_run_heads(keys[self.order]))
        self._bounds = np.append(first, len(pts))
        occupied = cells[self.order[first]]
        self._centers = self.lo + (occupied + 0.5) * self.cell
        near = (occupied[:, None, :] + _BLOCK).reshape(-1, 3)
        keys = _row_keys(near)
        by_key = np.argsort(keys, kind="stable")
        first = np.flatnonzero(_run_heads(keys[by_key]))
        self._near_keys = keys[by_key[first]]
        self._near_bounds = np.append(first, len(near))
        self._near_cells = by_key // len(_BLOCK)

    def _cells(self, p):
        return np.floor((p - self.lo) / self.cell).astype(np.int64)

    def _spans(self, origins, directions):
        """Start t and sample count of each ray's stretch inside the cloud box
        padded by one cell, from t = 0 on: samples tube_r apart from the
        start to past the end.  The count is 0 when the ray misses the box
        and -1 when its blocks would hold more cells than the cloud has
        points, where every occupied cell is taken instead."""
        flat = directions == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (self._box_lo - origins) / directions
            b = (self._box_hi - origins) / directions
        t_in = np.maximum(np.where(flat, -np.inf, np.minimum(a, b)).max(axis=1), 0.0)
        t_out = np.where(flat, np.inf, np.maximum(a, b)).min(axis=1)
        inside = ~flat | ((self._box_lo <= origins) & (origins <= self._box_hi))
        hit = inside.all(axis=1) & (t_in <= t_out)
        with np.errstate(invalid="ignore"):
            n = (t_out - t_in) // self.tube_r + 2
        every = hit & ~(n * len(_BLOCK) < len(self.points))
        count = np.where(hit & ~every, n, 0).astype(np.int64)
        count[every] = -1
        return t_in, count

    def _block_lists(self, origins, directions, t_in, count, rays):
        """(ray, lo, hi) of each distinct cell that a sample of a ray of
        `rays` (ascending, count > 0) falls in and whose 3x3x3 block holds
        occupied cells, `self._near_cells[lo:hi]`; sorted by ray."""
        ns = count[rays]
        ray = np.repeat(rays, ns)
        step = np.arange(len(ray)) - np.repeat(np.cumsum(ns) - ns, ns)
        samples = (origins.take(ray, axis=0)
                   + (t_in[ray] + self.tube_r * step)[:, None] * directions.take(ray, axis=0))
        keys = _row_keys(self._cells(samples))
        head = _run_heads(keys) | _run_heads(ray)
        keys, ray = keys[head], ray[head]
        i = np.minimum(np.searchsorted(self._near_keys, keys), len(self._near_keys) - 1)
        found = self._near_keys[i] == keys
        i, ray = i[found], ray[found]
        return ray, self._near_bounds[i], self._near_bounds[i + 1]

    def _tube_cells(self, origins, directions, ray, lo, hi, every):
        """(ray, cell, t of the cell's center) of the occupied cells whose
        centers lie within 2.83 * tube_r of each ray's line, sorted by ray,
        then by cell: the cells of the block lists (ray, lo, hi), and every
        occupied cell for the rays `every`."""
        n_occ = len(self._centers)
        pair = np.sort(np.concatenate((
            np.repeat(ray, hi - lo) * n_occ + self._near_cells[_ranges(lo, hi)],
            (every[:, None] * n_occ + np.arange(n_occ)).ravel())))
        # a sort and its run heads: numpy 2.3+ np.unique hashes integers before
        # sorting them, several times slower on these pairs
        ray, cell = np.divmod(pair[_run_heads(pair)], n_occ)
        rel = self._centers.take(cell, axis=0) - origins.take(ray, axis=0)
        t = dot3(rel, directions.take(ray, axis=0))
        near = dot3(rel, rel) - t * t <= _CELL_REACH * self.cell ** 2
        return ray[near], cell[near], t[near]

    def _tube_rows(self, origins, directions, ray, cell):
        """(ray, point, t) of the ray-point rows of the (ray, cell) pairs
        (sorted by ray) that lie in their ray's tube, t = rel.d >= 0 and
        rel.rel - t * t <= tube_r ** 2, each dot product summed as pair
        products (`geom.dot3`), as a scan of every point sums them; sorted by
        ray.  A row's bits depend only on its point and ray."""
        lo, hi = self._bounds[cell], self._bounds[cell + 1]
        pt = self.order[_ranges(lo, hi)]
        ray = np.repeat(ray, hi - lo)
        rel = self.points.take(pt, axis=0) - origins.take(ray, axis=0)
        t = dot3(rel, directions.take(ray, axis=0))
        keep = (t >= 0.0) & (dot3(rel, rel) - t * t <= self.tube_r * self.tube_r)
        return ray[keep], pt[keep], t[keep]

    def _search_pairs(self, origins, directions, ray, cell, best_t, hits):
        """Merge into `best_t` and `hits` each ray's least t among the
        `_tube_rows` of the (ray, cell) pairs (sorted by ray), and among
        equal t its lowest point, here and against the ray's earlier best;
        in passes of about `_CHUNK_ROWS` ray-point rows."""
        if len(ray) == 0:
            return
        heads = np.flatnonzero(_run_heads(ray))
        ends = np.append(heads[1:], len(ray))
        size = self._bounds[cell + 1] - self._bounds[cell]
        for c, e in _batches(np.add.reduceat(size, heads), _CHUNK_ROWS):
            sel = slice(heads[c], ends[e - 1])
            r, pt, t = self._tube_rows(origins, directions, ray[sel], cell[sel])
            if len(r) == 0:
                continue
            first = np.flatnonzero(_run_heads(r))
            best = np.minimum.reduceat(t, first)
            tied = t == np.repeat(best, np.diff(np.append(first, len(r))))
            pick = np.minimum.reduceat(np.where(tied, pt, len(self.points)), first)
            rays = r[first]
            won = (best < best_t[rays]) | ((best == best_t[rays]) & (pick < hits[rays]))
            best_t[rays[won]], hits[rays[won]] = best[won], pick[won]

    def _search_in_order(self, origins, directions, ray, cell, tc, best_t, hits):
        """Decide the rays of the (ray, cell) pairs (sorted by ray; tc the
        cells' center t) front first: on the cells within `_FRONT` cell
        sides of each ray's nearest, then, for the rays whose best t could
        still be beaten or tied, on the rest (see _RETIRE_SLACK)."""
        heads = np.flatnonzero(_run_heads(ray))
        length = np.diff(np.append(heads, len(ray)))
        front = tc <= np.repeat(np.minimum.reduceat(tc, heads) + _FRONT * self.cell, length)
        self._search_pairs(origins, directions, ray[front], cell[front], best_t, hits)
        rays = ray[heads]
        scale = np.abs(origins.take(rays, axis=0)).max(axis=1) + self._scale
        bound = (np.minimum.reduceat(np.where(front, np.inf, tc), heads)
                 - _HALF_DIAGONAL * self.tube_r - _RETIRE_SLACK * scale)
        rest = ~front & np.repeat(~(best_t[rays] < bound), length)
        self._search_pairs(origins, directions, ray[rest], cell[rest], best_t, hits)

    def first_hits(self, origins, directions):
        """Index of the first point along each ray origin + t * direction
        (unit direction, t >= 0) within tube_r of it, or -1, for (n, 3)
        arrays of origins and directions.

        Candidates come from ray samples spaced tube_r apart over each ray's
        stretch in the padded cloud box.  A point within tube_r of the ray
        lies within 1.5 * tube_r of a sample on every axis, and the 3x3x3
        block around a sample's cell reaches at least 2 * tube_r beyond it,
        so the blocks hold every such point.  A ray that would need more
        block cells than the cloud has points takes every occupied cell.
        Cells far from a ray's line are screened off, and each point of the
        rest is tested with the arithmetic of a scan of every point (see
        `_tube_rows`).  A ray is decided on its cells near the front first;
        it stops there when no point of its other cells can come before (or
        tie with) that contact, and is decided on them too otherwise.  The
        parts' contacts merge by (t, point index), so each ray gets the
        scan's contact.  Each pass builds about `_CHUNK_ROWS` rows: ray
        samples, then (ray, cell) pairs, then ray-point pairs.
        """
        origins = np.asarray(origins, dtype=float).reshape(-1, 3)
        directions = np.asarray(directions, dtype=float).reshape(-1, 3)
        hits = np.full(len(origins), -1, dtype=np.int64)
        best_t = np.full(len(origins), np.inf)
        t_in, count = self._spans(origins, directions)
        for a, b in _batches(np.maximum(count, 0), _CHUNK_ROWS):
            part = np.arange(a, b)
            ray, lo, hi = self._block_lists(origins, directions, t_in, count,
                                            part[count[a:b] > 0])
            every = count[a:b] < 0
            cost = np.where(every, len(self._centers),
                            np.bincount(ray - a, hi - lo, minlength=b - a)).astype(np.int64)
            bounds = np.searchsorted(ray, np.append(part, b))
            for c, e in _batches(cost, _CHUNK_ROWS):
                sel = slice(bounds[c], bounds[e])
                pairs = self._tube_cells(origins, directions, ray[sel], lo[sel], hi[sel],
                                         part[c:e][every[c:e]])
                if len(pairs[0]):
                    self._search_in_order(origins, directions, *pairs, best_t, hits)
        return hits


def _search(index, origins, directions):
    """First hit of each ray (-1: none) from one `first_hits` call, in which
    a ray bit-equal to the ray before it is not searched again but takes its
    hit."""
    bits = np.concatenate((origins, directions), axis=1).view(np.int64)
    new = np.ones(len(bits), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    return index.first_hits(origins[new], directions[new])[np.cumsum(new) - 1]


def _contacts(index, hits, directions):
    """(n, 2, 3) (position, inward normal) rows of the contacts at points
    `hits` of rays along `directions`: normals point from the contact toward
    the cloud centroid, or against the ray when the contact is the
    centroid."""
    positions = index.points.take(hits, axis=0)
    return np.stack((positions, unit_rows(index.centroid - positions, fallback=-directions)),
                    axis=1)


def estimate_contacts(pg, cloud, gripper, tube_r=EvalParams.tube_radius, index=None, found=None):
    """Contacts of the one-row pool `pg`, as a (k, 2, 3) array of (position,
    normal) rows: the first cloud point along each closing ray within
    perpendicular distance tube_r.  Normals point from the contact toward
    the cloud centroid (the object interior).  Rays that touch nothing
    contribute no contact; a ray equal to the previous one repeats its
    contact without a second search.

    `index` is a `ContactIndex` of `cloud` for `tube_r` (rank_pool builds one
    per cloud); one is built here when it is None.  `found` is the
    pre-grasp's contacts, one row per ray that touched, from the search
    `rank_pool` makes for a slice of the pool; given them, the rays are
    neither built nor searched here.

    Raises:
        NoContacts: no finger ray touched the cloud.
        ValueError: `index` was built for other points or another tube_r.
    """
    if index is None:
        index = ContactIndex(cloud, tube_r)
    elif index.points is not cloud.points or index.tube_r != tube_r:
        raise ValueError("contact index built for another cloud or tube radius")
    if found is None:
        rays = finger_rays(pg, gripper)
        origins, directions = rays[:, 0], rays[:, 1]
        hits = _search(index, origins, directions)
        found = _contacts(index, hits[hits >= 0], directions[hits >= 0])
    if len(found) == 0:
        raise NoContacts(f"no finger touched the cloud from {pg['position'][0].tolist()}")
    return found


# ===========================================================================
# Wrenches and quality
# ===========================================================================

def wrench_set(positions, normals, mu, m_edges, centroid):
    """Friction-cone edge wrenches of g grasps of k contacts each, in one
    broadcast: (g, k, 3) contact positions and normals in, (g, k * m_edges,
    6) wrenches out.

    Rows are [force | torque], contact-major, then cone edge k at angle
    2 pi k / m_edges about the normal.  Unit forces at half-angle atan(mu)
    around each contact normal; torques (p - centroid) x f scaled by rho = the
    grasp's largest contact distance from the centroid (1 when every contact
    sits on it).  mu = 0 degenerates every edge to the normal itself.  No
    contacts give no rows.
    """
    g, k = positions.shape[:2]
    arms = (positions - np.asarray(centroid, dtype=float)).reshape(-1, 3)
    rho = row_norms(arms).reshape(g, k).max(axis=1, initial=0.0)
    rho[rho == 0.0] = 1.0
    normals = unit_rows(normals.reshape(-1, 3))
    n, e1, e2 = (a[:, None, :] for a in (normals, *perpendicular_frames(normals)))  # (g k, 1, 3)
    cos_a, sin_a = np.cos(np.arctan(mu)), np.sin(np.arctan(mu))
    theta = 2.0 * np.pi * np.arange(m_edges) / m_edges
    cos_t, sin_t = np.cos(theta)[:, None], np.sin(theta)[:, None]   # (m, 1)
    forces = cos_a * n + sin_a * (cos_t * e1 + sin_t * e2)           # (g k, m, 3)
    torques = cross(arms[:, None, :], forces) / np.repeat(rho, k)[:, None, None]
    return np.concatenate((forces, torques), axis=2).reshape(g, k * m_edges, 6)


def _primitive_shell(s):
    """Primitive integer 6-vectors with max-norm exactly s, in grid order."""
    rng = np.arange(-s, s + 1)
    grid = np.stack(np.meshgrid(*([rng] * 6), indexing="ij"), axis=-1).reshape(-1, 6)
    on_shell = grid[np.abs(grid).max(axis=1) == s]
    return on_shell[np.gcd.reduce(np.abs(on_shell), axis=1) == 1]


@lru_cache(maxsize=1)
def _lattice_directions():
    """Quasi-uniform unit 6-vectors: normalized primitive lattice vectors of
    the first two max-norm shells (728 + 14168 = 14896 directions).  The set
    contains every +/-1 diagonal, so polytopes with diagonal-facing minima
    (e.g. the cross-polytope) are supported exactly."""
    m = np.concatenate([_primitive_shell(1), _primitive_shell(2)]).astype(float)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


# The certificate screens every 16th direction.  A computed 6-term product
# d.w is off by at most gamma_6 sum |w_i| <= 6.01 u sum |w_i| in any order,
# with or without FMA (|d_i| <= 1, u = 2^-53, no underflow; Higham 2002, sec.
# 3.1), so two computations of it differ by less than 16 u sum |w_i|.
_CERTIFICATE_STRIDE = 16
_SUPPORT_SLACK = 16 * 2.0 ** -53


def _supports(stack, dirs, floor):
    """Least support over `dirs` of each set of the (g, k, 6) stack, and
    whether one is <= its set's `floor`, from (sets, k, len(dirs)) products
    of about _QUALITY_BYTES reduced over k along contiguous memory."""
    least, low = np.empty(len(stack)), np.empty(len(stack), dtype=bool)
    step = max(1, _QUALITY_BYTES // (8 * stack.shape[1] * len(dirs)))
    for a in range(0, len(stack), step):
        h = (stack[a:a + step] @ dirs.T).max(axis=1)
        least[a:a + step] = h.min(axis=1)
        low[a:a + step] = (h <= floor[a:a + step, None]).any(axis=1)
    return least, low


def epsilon_quality(wrenches, n_dirs=EvalParams.quality_dirs):
    """Largest-ball grasp quality of a (k, 6) wrench array (rows as
    `wrench_set` builds them), from support-function sampling; of a (g, k, 6)
    stack of such arrays, the (g,) qualities.

    Evaluates the support h(d) = max_w d.w of the wrench hull over the first
    n_dirs of the 14896 quasi-uniform unit directions of
    `_lattice_directions`; returns min h, or 0 when some direction has
    negative or zero support (origin outside the hull or on its boundary).
    A larger n_dirs reuses the smaller run's directions, so estimates never
    increase under refinement.

    A certificate over every 16th direction first scores 0 the sets with a
    support below minus their rounding slack (the scan would find it <= 0
    too); the scan grades the rest, each set's products independent of the
    sets beside it, so every quality has the scan's bits.

    Raises:
        EmptyWrenchSet: wrenches has no rows.
        ValueError: n_dirs is outside 1..14896.
    """
    wrenches = np.asarray(wrenches, dtype=float)
    if wrenches.shape[-2] == 0:
        raise EmptyWrenchSet("no wrenches to evaluate")
    lattice = _lattice_directions()
    if not 1 <= n_dirs <= len(lattice):
        raise ValueError(f"n_dirs must be in 1..{len(lattice)}, got {n_dirs}")
    stack = wrenches.reshape(-1, *wrenches.shape[-2:])
    slack = _SUPPORT_SLACK * np.abs(stack).sum(axis=2).max(axis=1)
    screened = np.ascontiguousarray(lattice[:n_dirs:_CERTIFICATE_STRIDE])
    unsettled = np.flatnonzero(~_supports(stack, screened, -slack)[1])
    # the full scan; max is exact, so only the sign of a zero support could
    # depend on the order, and a zero support returns +0.0
    least, low = _supports(stack[unsettled], lattice[:n_dirs], np.zeros(len(unsettled)))
    quality = np.zeros(len(stack))
    quality[unsettled] = np.where(low, 0.0, least)
    return float(quality[0]) if wrenches.ndim == 2 else quality


def _rank_slice(part, first, cloud, index, gripper, params):
    """Graded candidates of the pre-grasps `part`, pool[first:...]: one
    search of all their rays, one wrench broadcast and one quality call per
    contact count."""
    rays = finger_rays(part, gripper)
    n_rays = 2 + _THUMB[part["grasp_type"]]
    directions = rays[:, 1]
    hits = _search(index, rays[:, 0], directions)
    touched = hits >= 0
    contacts = _contacts(index, hits[touched], directions[touched])
    counts = np.add.reduceat(touched.astype(np.int64), np.cumsum(n_rays) - n_rays)
    starts = np.cumsum(counts) - counts
    quality = np.zeros(len(part))
    for k in np.unique(counts[counts >= 2]).tolist():
        which = np.flatnonzero(counts == k)
        batch = contacts[starts[which][:, None] + np.arange(k)]
        wrenches = wrench_set(batch[:, :, 0], batch[:, :, 1], gripper.friction_mu,
                              params.cone_edges, index.centroid)
        quality[which] = epsilon_quality(wrenches, params.quality_dirs)
    graded = []
    for i, (s, k, q) in enumerate(zip(starts.tolist(), counts.tolist(), quality.tolist())):
        found = contacts[s:s + k]
        try:
            found = estimate_contacts(part[i:i + 1], cloud, gripper, params.tube_radius,
                                      index=index, found=found)
        except NoContacts:
            pass
        graded.append(GraspCandidate(first + i, found, q))
    return graded


def rank_pool(pool, cloud, gripper, params=None):
    """Evaluate and sort a pre-grasp pool (a `sampler.POOL_DTYPE` array).

    Candidates with fewer than 2 contacts score 0.  Sort is stable by
    (quality desc, contact count desc, pool order asc), so re-ranking a
    permuted pool yields the same quality sequence.  The pool is graded in
    slices of `_POOL_SLICE` pre-grasps.

    Raises:
        ConfigError (a ValueError): a field of `params` is out of its bound.
    """
    params = params or EvalParams()
    check_params(params, "EvalParams.{}".format)
    index = ContactIndex(cloud, params.tube_radius)
    candidates = []
    for first in range(0, len(pool), _POOL_SLICE):
        candidates += _rank_slice(pool[first:first + _POOL_SLICE], first, cloud, index,
                                  gripper, params)
    candidates.sort(key=lambda c: (-c.quality, -len(c.contacts), c.pool_index))
    if candidates:
        top = candidates[0]
        logger.info("ranked %d candidates; best: pool[%d] quality %.4f (%d contacts)",
                    len(candidates), top.pool_index, top.quality, len(top.contacts))
    return candidates
