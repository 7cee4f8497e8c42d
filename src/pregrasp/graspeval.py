"""Contact estimation and wrench-space ranking of a pre-grasp pool.

Fingers are modeled as closing rays in the fingertip plane (the pre-grasp
position advanced by finger_length along the approach axis): the thumb closes
from the +closing_dir side, the paired fingers from the opposite side, spread
symmetrically about the approach axis.  Each ray's contact is the first cloud
point encountered inside a thin tube around the ray.  Contacts build
friction-cone wrenches and grasps are scored with the largest-ball (epsilon)
quality: the radius of the biggest origin-centered ball inside the convex hull
of the contact wrenches, estimated by support-function sampling.
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
class Wrench:
    force: np.ndarray
    torque: np.ndarray


@dataclass
class GraspCandidate:
    pool_index: int
    pre_grasp: object
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
    """Friction-cone edge wrenches, m_edges per contact.

    Unit forces at half-angle atan(mu) around each contact normal; torques
    (p - centroid) x f scaled by rho = the largest contact distance from the
    centroid.  mu = 0 degenerates every edge to the normal itself.
    """
    centroid = np.asarray(centroid, dtype=float)
    if not contacts:
        return []
    rho = max(float(np.linalg.norm(c.position - centroid)) for c in contacts)
    if rho <= 0.0:
        rho = 1.0
    alpha = np.arctan(mu)
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    wrenches = []
    for c in contacts:
        n = unit(c.normal)
        e1, e2 = perpendicular_frame(n)
        arm = c.position - centroid
        for k in range(m_edges):
            theta = 2.0 * np.pi * k / m_edges
            f = cos_a * n + sin_a * (np.cos(theta) * e1 + np.sin(theta) * e2)
            wrenches.append(Wrench(f, np.cross(arm, f) / rho))
    return wrenches


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
    """Largest-ball grasp quality from support-function sampling.

    Evaluates the support h(d) = max_w d.w of the wrench hull over n_dirs
    deterministic quasi-uniform unit directions in 6-D; returns min h, or 0 as
    soon as some direction has negative support (origin outside the hull).
    Directions enumerate the normalized primitive-lattice shells first and
    continue with a seeded uniform stream, forming a prefix sequence: a larger
    n_dirs reuses the smaller run's directions, so estimates never increase
    under refinement.

    Raises:
        EmptyWrenchSet: wrenches is empty.
    """
    if len(wrenches) == 0:
        raise EmptyWrenchSet("no wrenches to evaluate")
    w = np.array([np.concatenate((x.force, x.torque)) for x in wrenches])
    lattice = _lattice_directions()
    best = np.inf
    taken = 0
    rng = np.random.default_rng(seed)
    while taken < n_dirs:
        k = min(_EPSILON_CHUNK, n_dirs - taken)
        if taken < len(lattice):
            d = lattice[taken:min(taken + k, len(lattice))]
        else:
            d = rng.standard_normal((k, 6))
            norms = np.linalg.norm(d, axis=1, keepdims=True)
            norms[norms < 1e-12] = 1.0
            d = d / norms
        taken += len(d)
        h = (d @ w.T).max(axis=1)
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
        candidates.append(GraspCandidate(idx, pg, contacts, quality))
    candidates.sort(key=lambda c: (-c.quality, -len(c.contacts), c.pool_index))
    if candidates:
        top = candidates[0]
        logger.info("ranked %d candidates; best: pool[%d] quality %.4f (%d contacts)",
                    len(candidates), top.pool_index, top.quality, len(top.contacts))
    return candidates
