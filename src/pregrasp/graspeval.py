"""Contact estimation and wrench-space ranking of a pre-grasp pool.

Fingers are modeled as closing rays in the fingertip plane (the pre-grasp
position advanced by finger_length along the approach axis): the thumb closes
from the +closing_dir side, the paired fingers from the opposite side, spread
symmetrically about the approach axis.  Each ray's contact is the first cloud
point encountered inside a thin tube around the ray, found through a sparse
voxel index that `rank_pool` builds once per cloud, so a ray visits only the
points in cells along its path.  Contacts build one
(k, 6) array of friction-cone edge wrenches, rows [force | torque], and grasps
are scored with the largest-ball (epsilon) quality: the radius of the biggest
origin-centered ball inside the convex hull of those rows, estimated by
support-function sampling.
"""

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .classifier import GRASP_PRESHAPE, GraspType
from .errors import EmptyWrenchSet, NoContacts
from .geom import perpendicular_frames, rotation_about_axis, row_norms, unit, unit_rows

logger = logging.getLogger(__name__)

_EPSILON_CHUNK = 65536


@dataclass
class ContactPoint:
    position: np.ndarray
    normal: np.ndarray      # unit, toward the object interior


@dataclass
class GraspCandidate:
    pool_index: int
    contacts: List[ContactPoint]
    quality: float          # 0 whenever fewer than 2 contacts


@dataclass
class EvalParams:
    cone_edges: int = 8
    quality_dirs: int = 1024
    tube_radius: float = 0.005
    seed: int = 0


# ===========================================================================
# Finger rays and contacts
# ===========================================================================

def finger_rays(pg, gripper):
    """Closing rays (origin, direction) of the fingers for one pre-grasp.

    Thumb: from the +closing_dir side at half aperture, closing along
    -closing_dir (omitted for TwoFingertip).  The two paired fingers start on
    the -closing_dir side and are rotated about the approach axis by +/- the
    grasp type's preshape spread angle.  All origins lie in the fingertip
    plane.
    """
    tip = pg.position + pg.approach * gripper.finger_length
    half_ap = gripper.max_aperture / 2.0
    c = pg.closing_dir
    rays = []
    grasp_type = GraspType(pg.grasp_type)
    if grasp_type != GraspType.TWO_FINGERTIP:
        rays.append((tip + c * half_ap, -c))
    spread = np.radians(GRASP_PRESHAPE[grasp_type][0])
    for s in (spread, -spread):
        rot = rotation_about_axis(pg.approach, s)
        rays.append((tip + rot @ (-c * half_ap), rot @ c))
    return rays


def _run_heads(s):
    """Mask of the first element of each run of equal values in a 1-D array."""
    head = np.ones(len(s), dtype=bool)
    head[1:] = s[1:] != s[:-1]
    return head


def _ranges(starts, stops):
    """Concatenation of np.arange(a, b) over the pairs of starts and stops."""
    lengths = stops - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


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
        self.lo = pts.min(axis=0)
        self._box = list(zip((self.lo - self.cell).tolist(),
                             (pts.max(axis=0) + self.cell).tolist()))
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

    def _clip(self, origin, direction):
        """[t_in, t_out] of the ray inside the cloud box padded by one cell,
        from t = 0 on, or None when it misses."""
        t_in, t_out = 0.0, math.inf
        for o, d, (lo, hi) in zip(origin.tolist(), direction.tolist(), self._box):
            if d == 0.0:
                if not lo <= o <= hi:
                    return None
            else:
                a, b = (lo - o) / d, (hi - o) / d
                t_in, t_out = max(t_in, min(a, b)), min(t_out, max(a, b))
        return (t_in, t_out) if t_in <= t_out else None

    def _tube_points(self, origin, direction, samples):
        """Ascending indices of the points of the occupied cells in the 3x3x3
        blocks around `samples` (in order along the ray) whose centers lie
        within 2.83 * tube_r of the ray's line."""
        keys = _row_keys(self._cells(samples))
        keys = keys[_run_heads(keys)]
        i = np.minimum(np.searchsorted(self._near_keys, keys), len(self._near_keys) - 1)
        i = i[self._near_keys[i] == keys]
        occupied = np.sort(self._near_cells[_ranges(self._near_bounds[i], self._near_bounds[i + 1])])
        occupied = occupied[_run_heads(occupied)]
        rel = self._centers.take(occupied, axis=0) - origin
        t = rel @ direction
        occupied = occupied[np.einsum("ij,ij->i", rel, rel) - t * t <= _CELL_REACH * self.cell ** 2]
        return np.sort(self.order[_ranges(self._bounds[occupied], self._bounds[occupied + 1])])

    def first_hit(self, origin, direction):
        """Index of the first point along the ray origin + t * direction
        (unit direction, t >= 0) within tube_r of it, or None.

        Candidates come from ray samples spaced tube_r apart over the ray's
        stretch in the padded cloud box.  A point within tube_r of the ray
        lies within 1.5 * tube_r of a sample on every axis, and the 3x3x3
        block around a sample's cell reaches at least 2 * tube_r beyond it, so
        the blocks hold every such point.  A ray that would need more block
        cells than the cloud has points takes every point.  The contact is
        decided on the candidates, in ascending point order, with the
        arithmetic of a scan of every point (per-row products, so the bits
        agree): ties on t go to the lowest point index.
        """
        span = self._clip(origin, direction)
        if span is None:
            return None
        n_pts, r = len(self.points), self.tube_r
        n = (span[1] - span[0]) // r + 2
        if n * len(_BLOCK) >= n_pts:
            cand = np.arange(n_pts)
        else:
            samples = origin + (span[0] + r * np.arange(int(n)))[:, None] * direction
            cand = self._tube_points(origin, direction, samples)
        if len(cand) == 1 and n_pts > 1:
            cand = np.repeat(cand, 2)    # a 1-row product would take numpy's dot path
        rel = self.points.take(cand, axis=0) - origin
        t = rel @ direction
        perp2 = np.einsum("ij,ij->i", rel, rel) - t * t
        ok = (t >= 0.0) & (perp2 <= r * r)
        if not ok.any():
            return None
        return int(cand[np.argmin(np.where(ok, t, np.inf))])


def estimate_contacts(pg, cloud, gripper, tube_r=0.005, index=None):
    """First cloud point along each closing ray within perpendicular distance
    tube_r.  Normals point from the contact toward the cloud centroid (the
    object interior).  Rays that touch nothing contribute no contact; a ray
    equal to the previous one repeats its contact without a second search.

    `index` is a `ContactIndex` of `cloud` for `tube_r` (rank_pool builds one
    per cloud); one is built here when it is None.

    Raises:
        NoContacts: no finger ray touched the cloud.
        ValueError: `index` was built for other points or another tube_r.
    """
    if index is None:
        index = ContactIndex(cloud, tube_r)
    elif index.points is not cloud.points or index.tube_r != tube_r:
        raise ValueError("contact index built for another cloud or tube radius")
    contacts = []
    last_ray = None
    for origin, direction in finger_rays(pg, gripper):
        ray = (origin.tobytes(), direction.tobytes())
        if ray != last_ray:
            hit, last_ray = index.first_hit(origin, direction), ray
        if hit is None:
            continue
        p = index.points[hit]
        contacts.append(ContactPoint(p.copy(), unit(index.centroid - p, fallback=-direction)))
    if not contacts:
        raise NoContacts(f"no finger touched the cloud from {pg.position}")
    return contacts


# ===========================================================================
# Wrenches and quality
# ===========================================================================

def wrench_set(contacts, mu, m_edges, centroid):
    """Friction-cone edge wrenches as a (len(contacts) * m_edges, 6) array.

    Rows are [force | torque], contact-major, then cone edge k at angle
    2 pi k / m_edges about the normal.  Unit forces at half-angle atan(mu)
    around each contact normal; torques (p - centroid) x f scaled by rho = the
    largest contact distance from the centroid (1 when every contact sits on
    it).  mu = 0 degenerates every edge to the normal itself.  No contacts
    give a (0, 6) array.
    """
    centroid = np.asarray(centroid, dtype=float)
    if not contacts:
        return np.empty((0, 6))
    arms = np.array([c.position - centroid for c in contacts])
    rho = float(row_norms(arms).max()) or 1.0
    normals = unit_rows([c.normal for c in contacts])
    n, e1, e2 = (a[:, None, :] for a in (normals, *perpendicular_frames(normals)))  # (c, 1, 3)
    cos_a, sin_a = np.cos(np.arctan(mu)), np.sin(np.arctan(mu))
    theta = 2.0 * np.pi * np.arange(m_edges) / m_edges
    cos_t, sin_t = np.cos(theta)[:, None], np.sin(theta)[:, None]   # (m, 1)
    forces = cos_a * n + sin_a * (cos_t * e1 + sin_t * e2)           # (c, m, 3)
    torques = np.cross(arms[:, None, :], forces) / rho
    return np.concatenate((forces, torques), axis=2).reshape(-1, 6)


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


def epsilon_quality(wrenches, n_dirs=1024, seed=0):
    """Largest-ball grasp quality of a (k, 6) wrench array (rows as
    `wrench_set` builds them), from support-function sampling.

    Evaluates the support h(d) = max_w d.w of the wrench hull over n_dirs
    deterministic quasi-uniform unit directions in 6-D; returns min h, or 0 as
    soon as some direction has negative support (origin outside the hull).
    Directions enumerate the normalized primitive-lattice shells first and
    continue with a uniform stream seeded by `seed` (built only once the
    lattice is used up), forming a prefix sequence: a larger n_dirs reuses the
    smaller run's directions, so estimates never increase under refinement.

    Raises:
        EmptyWrenchSet: wrenches has no rows.
    """
    if len(wrenches) == 0:
        raise EmptyWrenchSet("no wrenches to evaluate")
    lattice = _lattice_directions()
    best = np.inf
    taken = 0
    rng = None
    while taken < n_dirs:
        k = min(_EPSILON_CHUNK, n_dirs - taken)
        if taken < len(lattice):
            d = lattice[taken:min(taken + k, len(lattice))]
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            d = rng.standard_normal((k, 6))
            norms = np.linalg.norm(d, axis=1, keepdims=True)
            norms[norms < 1e-12] = 1.0
            d = d / norms
        taken += len(d)
        h = (d @ wrenches.T).max(axis=1)
        if (h < 0.0).any():
            return 0.0
        best = min(best, float(h.min()))
    return best


def rank_pool(pool, cloud, gripper, params=None):
    """Evaluate and sort a pre-grasp pool.

    Candidates with fewer than 2 contacts score 0.  Sort is stable by
    (quality desc, contact count desc, pool order asc), so re-ranking a
    permuted pool yields the same quality sequence.
    """
    params = params or EvalParams()
    index = ContactIndex(cloud, params.tube_radius)
    centroid = index.centroid
    candidates = []
    for idx, pg in enumerate(pool):
        try:
            contacts = estimate_contacts(pg, cloud, gripper, params.tube_radius, index=index)
        except NoContacts:
            contacts = []
        if len(contacts) >= 2:
            ws = wrench_set(contacts, gripper.friction_mu, params.cone_edges, centroid)
            quality = epsilon_quality(ws, params.quality_dirs, params.seed)
        else:
            quality = 0.0
        candidates.append(GraspCandidate(idx, contacts, quality))
    candidates.sort(key=lambda c: (-c.quality, -len(c.contacts), c.pool_index))
    if candidates:
        top = candidates[0]
        logger.info("ranked %d candidates; best: pool[%d] quality %.4f (%d contacts)",
                    len(candidates), top.pool_index, top.quality, len(top.contacts))
    return candidates
