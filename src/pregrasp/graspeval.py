"""Contact estimation and wrench-space ranking of a pre-grasp pool.

Fingers are modeled as closing rays in the fingertip plane (the pre-grasp
position advanced by finger_length along the approach axis): the thumb closes
from the +closing_dir side, the paired fingers from the opposite side, spread
symmetrically about the approach axis.  Each ray's contact is the first cloud
point encountered inside a thin tube around the ray.  `rank_pool` builds a
sparse voxel index of the cloud once and works through the pool in wide
slices: every finger ray of a slice is searched in batched passes that visit
only the points in cells along the rays' paths, and test each point with
the arithmetic of a scan of every point, its coordinate rows summed in
`geom.dot3`'s order.  A ray's path is expanded in windows of 4, 8, 16, ...
samples, and the ray stops once no later sample could add a point before its
contact: the search's one early exit.  A grasp's contacts are a (k, 2, 3)
array of (position, normal) rows.  The contacts of a slice's candidates
build their (k, 6) arrays of friction-cone edge wrenches, rows
[force | torque], in one broadcast, and grasps are scored with the
largest-ball (epsilon) quality: the radius of the biggest origin-centered
ball inside the convex hull of those rows, estimated by support-function
sampling.
"""

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classifier import GRASP_PRESHAPE, GraspType
from .errors import DegenerateInput, EmptyWrenchSet, NoContacts, check_params
from .geom import cross, dot3, perpendicular_frames, rotations_about_axes, row_norms, unit_rows

logger = logging.getLogger(__name__)

# Bounds on the work in flight: pre-grasps ranked per slice of the pool, and
# rows per pass of the contact search.  A pass takes about `_CHUNK_ROWS` ray
# samples, whose block lists give at most 27 (ray, cell) pairs each, and
# builds their ray-point rows about `_CHUNK_ROWS` at a time.  A ray that alone
# exceeds the row bound is searched in a pass of its own, which the
# every-point fallback bounds by the cloud size.  Wide slices spread numpy's
# per-call cost over many rays.  At 16384 rows, the search of a pool slice's
# rays peaks at 1.2-1.4 MB on 10k-point surface clouds, and at 9.4 MB on a
# solid cube of 10k points, where every sample's block is full.
_POOL_SLICE = 4096
_CHUNK_ROWS = 16384

# Bytes of the support products that `epsilon_quality` builds at a time (a
# pool slice's at once would be 805 MB at the defaults); one wrench set's may
# exceed it.
_QUALITY_BYTES = 1 << 20

# Edges of each contact's linearized friction cone, and the number of
# lattice directions the quality is estimated over (see `epsilon_quality`).
CONE_EDGES = 8
QUALITY_DIRS = 1024


@dataclass
class GraspCandidate:
    pool_index: int
    contacts: np.ndarray    # (k, 2, 3): position, unit normal toward the interior
    quality: float          # 0 whenever fewer than 2 contacts


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
    plane.  The rotations of all pre-grasps are built as one stack and
    applied with per-column products summed in a fixed order (`geom.dot3`),
    so every ray has the bits it gets when its pre-grasp's rays are built
    alone, on any BLAS kernel.
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
    back, closing = (-c[turned] * half_ap)[:, None, :], c[turned][:, None, :]
    for finger, s in ((1, spread[turned]), (2, -spread[turned])):
        rot = rotations_about_axes(approach[turned], s)
        rays[turned, finger, 0] = tip[turned] + dot3(rot, back)
        rays[turned, finger, 1] = dot3(rot, closing)
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
    overflow however far apart the cells lie.  The coordinates themselves
    stay within a few cells of [0, 2^62): `ContactIndex` refuses a point
    2^62 or more cells from its cloud's minimum corner.
    """
    return np.ascontiguousarray(cells).view("V24").ravel()


# A cell (side 2 r, half-diagonal sqrt(3) r) can hold a point within r of a
# line only if its center lies within (1 + sqrt(3)) r = 2.73 r of the line;
# 2.83 r leaves 0.1 r for rounding.  Squared, in units of the cell side.
_CELL_REACH = (2.83 / 2.0) ** 2

# The 27 cell offsets of a cell's 3x3x3 block.
_BLOCK = np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)

# Samples in a ray's first search window; each later window holds twice as
# many as the one before.
_FIRST_WINDOW = 4

# A ray's retire bound after a window.  `_tube_rows` takes a point's t_p as a
# 3-term dot product of fl(p - o) with the ray's unit direction d.  A 3-term
# dot product summed in any order, with or without FMA, is off by at most
# gamma_3 sum |a_i b_i|, with gamma_3 = 3u / (1 - 3u) and u = 2^-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1).  So t_p is
# off from the exact (p - o).d by at most (u + gamma_3 (1 + u)) |p - o| |d|
# <= 4.01 u |p - o|.  Let M be the largest coordinate magnitude of the padded
# cloud box (M >= 2 r, as the padding is 2 r a side) and S = M plus the ray
# origin's largest coordinate magnitude, so |p - o| <= sqrt(3) S and t_p errs
# by at most 7 u S.  Sample j of a ray sits at t_j = fl(t_in + fl(r j)), and a
# tube point lies in the block of its nearest sample (see `first_hits`).  So
# once samples 0..K-1 of a ray with more than K samples are expanded, a point
# in none of their blocks is nearer to a later sample than to sample K - 1,
# and its exact t is at least (t_{K-1} + t_K) / 2.  As
# t_in + r K <= t_out + r <= sqrt(3) S + S / 2 (r <= M / 2), each t_j with
# j <= K is within 2.01 u 2.24 S <= 5 u S of t_in + r j, so that t is at least
# t_in + r (K - 1/2) - 5 u S, and its computed t_p at least
# t_in + r (K - 1/2) - 12 u S.  The bound as computed,
# fl(fl(t_in + fl(r (K - 1/2))) - 64 u S), lies at most 5 u S + 2.3 u S (its
# own roundings) above t_in + r (K - 1/2) - 64 u S, so below every such t_p:
# a ray whose best t lies below it can gain no point beyond its window, not
# even a tie that a lower point index would win.
_RETIRE_SLACK = 64 * 2.0 ** -53


def _projections(rows, at, origins, directions, ray, size=None):
    """t = rel.d and rel.rel for the offsets rel = p - o of the points at
    columns `at` of the (3, n) coordinate rows `rows` from the origins of
    the rays `ray` (each repeated `size` times, when given), both summed one
    coordinate at a time in `geom.dot3`'s order."""
    for a in range(3):
        o, d = origins[a].take(ray), directions[a].take(ray)
        if size is not None:
            o, d = np.repeat(o, size), np.repeat(d, size)
        rel = rows[a].take(at) - o
        if a == 0:
            t, rr = rel * d, rel * rel
        else:
            t += rel * d
            rr += rel * rel
    return t, rr


class ContactIndex:
    """Sparse voxel index of a cloud for ray-tube contact search, built once
    per cloud and tube radius.

    Cells are cubes of side 2 * tube_r anchored at the cloud's minimum
    corner.  Points are kept ordered by cell coordinates (x, then y, then
    z; ascending point index within a cell), as three contiguous coordinate
    rows.  Only occupied cells are stored, together with every cell of their
    3x3x3 blocks, each of which lists the occupied cells around it.  Cells
    are keyed by their integer coordinates' bytes, so a far outlier adds a
    few cells, not a grid reaching out to it.  A point 2^62 or more cells
    from the minimum corner along an axis raises DegenerateInput, so no
    int64 coordinate overflows.

    `_spans` takes a ray batch's origins and directions as (n, 3) arrays,
    the other search helpers as (3, n) coordinate rows.
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
        self.lo, hi = cols.min(axis=1), cols.max(axis=1)
        with np.errstate(over="ignore"):
            far = (hi - self.lo).max()
            if not far / self.cell < 2.0 ** 62:
                raise DegenerateInput(f"a point lies {far:.6g} from the cloud's minimum corner "
                                      f"along an axis: 2^62 or more contact cells of side "
                                      f"{self.cell:.6g}")
        self._box_lo, self._box_hi = self.lo - self.cell, hi + self.cell
        del cols
        self._scale = np.abs(np.concatenate((self._box_lo, self._box_hi))).max()
        cells = self._cells(pts)
        keys = _row_keys(cells)
        self.order = np.lexsort(cells.T[::-1])
        self._rows = np.ascontiguousarray(pts.take(self.order, axis=0).T)
        first = np.flatnonzero(_run_heads(keys[self.order]))
        self._bounds = np.append(first, len(pts))
        occupied = cells[self.order[first]]
        self._centers = np.ascontiguousarray((self.lo + (occupied + 0.5) * self.cell).T)
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

    def _block_lists(self, origins, directions, t_in, rays, first, stops):
        """(ray, cell) pairs of the occupied cells in the 3x3x3 block of each
        distinct cell that samples first..stops[i] - 1 of ray rays[i]
        (ascending) fall in: at most 27 pairs a sample, repeated where blocks
        overlap."""
        ns = stops - first
        ray = np.repeat(rays, ns)
        t = t_in[ray] + self.tube_r * (np.arange(len(ray)) - np.repeat(np.cumsum(ns) - ns, ns)
                                       + first)
        samples = origins.take(ray, axis=1) + t * directions.take(ray, axis=1)
        keys = _row_keys(self._cells(samples.T))
        head = _run_heads(keys) | _run_heads(ray)
        keys, ray = keys[head], ray[head]
        i = np.minimum(np.searchsorted(self._near_keys, keys), len(self._near_keys) - 1)
        found = self._near_keys[i] == keys
        lo, hi = self._near_bounds[i[found]], self._near_bounds[i[found] + 1]
        return np.repeat(ray[found], hi - lo), self._near_cells[_ranges(lo, hi)]

    def _tube_cells(self, origins, directions, ray, cell):
        """The distinct pairs among the (ray, cell) pairs whose occupied
        cell's center lies within 2.83 * tube_r of the ray's line, sorted by
        ray, then by cell."""
        n_occ = self._centers.shape[1]
        pair = np.sort(ray * n_occ + cell)
        # a sort and its run heads: numpy 2.3+ np.unique hashes integers before
        # sorting them, several times slower on these pairs
        ray, cell = np.divmod(pair[_run_heads(pair)], n_occ)
        t, rr = _projections(self._centers, cell, origins, directions, ray)
        near = rr - t * t <= _CELL_REACH * self.cell ** 2
        return ray[near], cell[near]

    def _tube_rows(self, origins, directions, ray, cell):
        """(ray, point, t) of the ray-point rows of the (ray, cell) pairs
        (sorted by ray) that lie in their ray's tube, t = rel.d >= 0 and
        rel.rel - t * t <= tube_r ** 2; sorted by ray.  The points are
        gathered by their place in cell order from the coordinate rows, and
        both dot products are summed one coordinate at a time in
        `geom.dot3`'s order, as a scan of every point sums them: a row's bits
        depend only on its point and ray."""
        lo, hi = self._bounds[cell], self._bounds[cell + 1]
        at, size = _ranges(lo, hi), hi - lo
        t, rr = _projections(self._rows, at, origins, directions, ray, size)
        keep = np.flatnonzero((t >= 0.0) & (rr - t * t <= self.tube_r * self.tube_r))
        return np.repeat(ray, size)[keep], self.order[at[keep]], t[keep]

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

    def first_hits(self, origins, directions):
        """Index of the first point along each ray origin + t * direction
        (unit direction, t >= 0) within tube_r of it, or -1, for (n, 3)
        arrays of origins and directions.

        Candidates come from ray samples spaced tube_r apart over each ray's
        stretch in the padded cloud box.  A point within tube_r of the ray
        lies within 1.5 * tube_r of its nearest sample on every axis, and
        the 3x3x3 block around a sample's cell reaches at least 2 * tube_r
        beyond it, so the blocks hold every such point.  The samples are
        expanded in windows: the first `_FIRST_WINDOW`, then each window
        twice as many as the one before.  A ray retires after a window once its
        contact lies before every point that a later sample's blocks could
        add (see _RETIRE_SLACK); the median contact lies a few samples past
        the ray's entry.  A ray that would need more block cells than the
        cloud has points takes every occupied cell at once.  Cells far from
        a ray's line are screened off, and each point of the rest is tested
        with the arithmetic of a scan of every point (see `_tube_rows`).
        The contacts of all windows and passes merge by (t, point index), so
        each ray gets the scan's contact.  Each pass takes about
        `_CHUNK_ROWS` ray samples, builds at most 27 (ray, cell) pairs per
        sample, and builds ray-point rows about `_CHUNK_ROWS` at a time.
        """
        origins = np.asarray(origins, dtype=float).reshape(-1, 3)
        directions = np.asarray(directions, dtype=float).reshape(-1, 3)
        hits = np.full(len(origins), -1, dtype=np.int64)
        best_t = np.full(len(origins), np.inf)
        scale = np.abs(origins).max(axis=1) + self._scale
        t_in, count = self._spans(origins, directions)
        origins, directions = np.ascontiguousarray(origins.T), np.ascontiguousarray(directions.T)
        n_occ, every = self._centers.shape[1], np.flatnonzero(count < 0)
        for a, b in _batches(np.full(len(every), n_occ), _CHUNK_ROWS):
            cells = self._tube_cells(origins, directions, np.repeat(every[a:b], n_occ),
                                     np.tile(np.arange(n_occ), b - a))
            self._search_pairs(origins, directions, *cells, best_t, hits)
        rays, first, size = np.flatnonzero(count > 0), 0, _FIRST_WINDOW
        while len(rays):
            stop = first + size
            stops = np.minimum(count[rays], stop)
            for a, b in _batches(stops - first, _CHUNK_ROWS):
                pairs = self._block_lists(origins, directions, t_in, rays[a:b], first, stops[a:b])
                cells = self._tube_cells(origins, directions, *pairs)
                self._search_pairs(origins, directions, *cells, best_t, hits)
            bound = t_in[rays] + self.tube_r * (stop - 0.5) - _RETIRE_SLACK * scale[rays]
            rays = rays[(count[rays] > stop) & ~(best_t[rays] < bound)]
            first, size = stop, 2 * size
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


def estimate_contacts(pg, cloud, gripper, index=None, found=None):
    """Contacts of the one-row pool `pg`, as a (k, 2, 3) array of (position,
    normal) rows: the first cloud point along each closing ray within
    perpendicular distance `gripper.tube_radius`.  Normals point from the
    contact toward the cloud centroid (the object interior).  Rays that touch
    nothing contribute no contact; a ray equal to the previous one repeats
    its contact without a second search.

    `index` is a `ContactIndex` of `cloud` for that radius (rank_pool builds
    one per cloud); one is built here when it is None.  `found` is the
    pre-grasp's contacts, one row per ray that touched, from the search
    `rank_pool` makes for a slice of the pool; given them, the rays are
    neither built nor searched here.

    Raises:
        NoContacts: no finger ray touched the cloud.
        ValueError: `index` was built for other points or another tube radius.
    """
    if index is None:
        index = ContactIndex(cloud, gripper.tube_radius)
    elif index.points is not cloud.points or index.tube_r != gripper.tube_radius:
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


def _supports(stack, dirs, sets, certify):
    """Least support over `dirs` of each set `sets` of the (g, k, 6) stack,
    and whether one is <= its floor: minus the set's rounding slack (see
    _SUPPORT_SLACK) when `certify`, else 0.  The sets are gathered, their
    slack taken and their (sets, k, len(dirs)) products built about
    _QUALITY_BYTES at a time, reduced over k along contiguous memory."""
    least, low = np.empty(len(sets)), np.empty(len(sets), dtype=bool)
    step = max(1, _QUALITY_BYTES // (8 * stack.shape[1] * len(dirs)))
    for a in range(0, len(sets), step):
        part = stack[sets[a:a + step]]
        floor = (-_SUPPORT_SLACK * np.abs(part).sum(axis=2).max(axis=1) if certify
                 else np.zeros(len(part)))
        h = (part @ dirs.T).max(axis=1)
        least[a:a + step] = h.min(axis=1)
        low[a:a + step] = (h <= floor[:, None]).any(axis=1)
    return least, low


def epsilon_quality(wrenches, n_dirs=QUALITY_DIRS):
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
    screened = np.ascontiguousarray(lattice[:n_dirs:_CERTIFICATE_STRIDE])
    unsettled = np.flatnonzero(~_supports(stack, screened, np.arange(len(stack)), True)[1])
    # the full scan; max is exact, so only the sign of a zero support could
    # depend on the order, and a zero support returns +0.0
    least, low = _supports(stack, lattice[:n_dirs], unsettled, False)
    quality = np.zeros(len(stack))
    quality[unsettled] = np.where(low, 0.0, least)
    return float(quality[0]) if wrenches.ndim == 2 else quality


def _rank_slice(part, first, cloud, index, gripper):
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
    # the counts present, by a bincount: np.unique imports numpy.ma on numpy 2
    for k in (np.flatnonzero(np.bincount(counts)[2:]) + 2).tolist():
        which = np.flatnonzero(counts == k)
        batch = contacts[starts[which][:, None] + np.arange(k)]
        wrenches = wrench_set(batch[:, :, 0], batch[:, :, 1], gripper.friction_mu,
                              CONE_EDGES, index.centroid)
        quality[which] = epsilon_quality(wrenches, QUALITY_DIRS)
    graded = []
    for i, (s, k, q) in enumerate(zip(starts.tolist(), counts.tolist(), quality.tolist())):
        found = contacts[s:s + k]
        try:
            found = estimate_contacts(part[i:i + 1], cloud, gripper, index=index, found=found)
        except NoContacts:
            pass
        graded.append(GraspCandidate(first + i, found, q))
    return graded


def rank_pool(pool, cloud, gripper):
    """Evaluate and sort a pre-grasp pool (a `sampler.POOL_DTYPE` array).

    Candidates with fewer than 2 contacts score 0.  Sort is stable by
    (quality desc, contact count desc, pool order asc), so re-ranking a
    permuted pool yields the same quality sequence.  The pool is graded in
    slices of `_POOL_SLICE` pre-grasps.

    Raises:
        ConfigError (a ValueError): a field of `gripper` is out of its bound.
    """
    check_params(gripper, "GripperConfig.{}".format)
    index = ContactIndex(cloud, gripper.tube_radius)
    candidates = []
    for first in range(0, len(pool), _POOL_SLICE):
        candidates += _rank_slice(pool[first:first + _POOL_SLICE], first, cloud, index,
                                  gripper)
    candidates.sort(key=lambda c: (-c.quality, -len(c.contacts), c.pool_index))
    if candidates:
        top = candidates[0]
        logger.info("ranked %d candidates; best: pool[%d] quality %.4f (%d contacts)",
                    len(candidates), top.pool_index, top.quality, len(top.contacts))
    return candidates
