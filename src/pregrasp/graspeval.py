"""Contact estimation and wrench-space ranking of a pre-grasp pool.

Fingers are modeled as closing rays in the fingertip plane (the pre-grasp
position advanced by finger_length along the approach axis): the thumb closes
from the +closing_dir side, the paired fingers from the opposite side, spread
symmetrically about the approach axis.  Each ray's contact is the first cloud
point encountered inside a thin tube around the ray.  Contacts build one
(k, 6) array of friction-cone edge wrenches, rows [force | torque], and grasps
are scored with the largest-ball (epsilon) quality: the radius of the biggest
origin-centered ball inside the convex hull of those rows, estimated by
support-function sampling.
"""

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import List

import numpy as np

from .classifier import GRASP_PRESHAPE, GraspType
from .errors import EmptyWrenchSet, NoContacts
from .geom import perpendicular_frame, rotation_about_axis, unit

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


def estimate_contacts(pg, cloud, gripper, tube_r=0.005):
    """First cloud point along each closing ray within perpendicular distance
    tube_r.  Normals point from the contact toward the cloud centroid (the
    object interior).  Rays that touch nothing contribute no contact.

    Raises:
        NoContacts: no finger ray touched the cloud.
    """
    pts = cloud.points
    centroid = cloud.centroid
    contacts = []
    for origin, direction in finger_rays(pg, gripper):
        rel = pts - origin
        t = rel @ direction
        perp2 = np.einsum("ij,ij->i", rel, rel) - t * t
        ok = (t >= 0.0) & (perp2 <= tube_r * tube_r)
        if not ok.any():
            continue
        i = int(np.argmin(np.where(ok, t, np.inf)))
        p = pts[i]
        contacts.append(ContactPoint(p.copy(), unit(centroid - p, fallback=-direction)))
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
    rho = max(float(np.linalg.norm(arm)) for arm in arms) or 1.0
    normals = [unit(c.normal) for c in contacts]
    frames = np.array([(n, *perpendicular_frame(n)) for n in normals])
    n, e1, e2 = frames.transpose(1, 0, 2)[:, :, None, :]            # each (c, 1, 3)
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
    centroid = cloud.centroid
    candidates = []
    for idx, pg in enumerate(pool):
        try:
            contacts = estimate_contacts(pg, cloud, gripper, params.tube_radius)
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
