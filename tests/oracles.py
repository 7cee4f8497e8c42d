"""Independent reference implementations used to pin expected values in tests.

Everything in here is deliberately brute-force and self-contained (numpy only,
no imports from the package under test) so that a disagreement points at the
implementation, not at a shared helper.  The one exception is
`exhaustive_split`, the full-point split search the package's screened search
must agree with, which is built on the package's public `evaluate_split`.
"""

import numpy as np

# ---------------------------------------------------------------------------
# Rotated-box cloud fixtures
# ---------------------------------------------------------------------------

BOX_CLOUD_SEED_BASE = 20000


def rotation_from_quaternion(q):
    """Unit quaternion (w, x, y, z) -> 3x3 rotation matrix."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def box_surface_points(rng, half, n):
    """n points uniform on the surface of an axis-aligned box with half-extents `half`."""
    half = np.asarray(half, dtype=float)
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    weights = np.repeat(areas, 2)  # +x, -x, +y, -y, +z, -z
    weights = weights / weights.sum()
    faces = rng.choice(6, size=n, p=weights)
    pts = rng.uniform(-half, half, size=(n, 3))
    axis = faces // 2
    sign = 1.0 - 2.0 * (faces % 2)
    pts[np.arange(n), axis] = sign * half[axis]
    return pts


def make_rotated_box_cloud(seed):
    """Deterministic random rotated-box surface cloud (100-500 points).

    Dims are drawn with aspect ratios >= 1.4 between consecutive extents so the
    principal axes are statistically identifiable from 100 points; degenerate
    near-cube draws would make no PCA-initialized local refinement meaningful.
    Returns (points, true_volume).
    """
    rng = np.random.default_rng(BOX_CLOUD_SEED_BASE + seed)
    n = int(rng.integers(100, 501))
    du = rng.uniform(0.12, 0.30)
    dv = du / rng.uniform(1.4, 2.5)
    dw = dv / rng.uniform(1.4, 2.5)
    half = np.array([du, dv, dw]) / 2.0
    rot = rotation_from_quaternion(rng.standard_normal(4))
    offset = rng.uniform(-0.2, 0.2, size=3)
    pts = box_surface_points(rng, half, n) @ rot.T + offset
    return pts, float(8.0 * half[0] * half[1] * half[2])


def make_rotated_brick_cloud(n=2000, seed=7):
    """0.2 x 0.1 x 0.1 box rotated 45 degrees about z (square cross-section case)."""
    rng = np.random.default_rng(seed)
    half = np.array([0.1, 0.05, 0.05])
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return box_surface_points(rng, half, n) @ rot.T


# ---------------------------------------------------------------------------
# Brute-force minimum-volume box over a rotation grid
# ---------------------------------------------------------------------------

def _rotation_grid(step_deg):
    """All rotations from a step_deg lat-lon hemisphere of third-axis directions
    crossed with an in-plane angle in [0, 90).  Covers every box orientation up
    to the symmetry of the box (some orientation of any box has its third axis
    in the closed upper hemisphere, and the in-plane freedom is mod 90 deg).

    Returns an (m, 3, 3) array whose rows-of-rows are projection axis triples.
    """
    step = np.radians(step_deg)
    thetas = np.arange(0.0, np.pi / 2 + 1e-12, step)            # polar, 0..90 deg
    phis = np.arange(0.0, 2 * np.pi - 1e-12, step)              # azimuth, 0..358 deg
    psis = np.arange(0.0, np.pi / 2 - 1e-12, step)              # in-plane, 0..88 deg

    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    w = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)],
                 axis=-1).reshape(-1, 3)
    # base in-plane frame for every w
    ref = np.where(np.abs(w[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    u0 = np.cross(ref, w)
    u0 /= np.linalg.norm(u0, axis=1, keepdims=True)
    v0 = np.cross(w, u0)

    cos_p = np.cos(psis)[None, :, None]
    sin_p = np.sin(psis)[None, :, None]
    u = u0[:, None, :] * cos_p + v0[:, None, :] * sin_p
    v = np.cross(w[:, None, :], u)
    w_rep = np.broadcast_to(w[:, None, :], u.shape)
    axes = np.stack([u, v, w_rep], axis=2)  # (n_dirs, n_psi, 3, 3)
    return axes.reshape(-1, 3, 3)


def mvbb_grid_volume(points, step_deg=2.0, chunk=8192):
    """Minimum bounding-box volume over the brute-force rotation grid."""
    pts = np.asarray(points, dtype=float)
    pts = pts - pts.mean(axis=0)
    axes = _rotation_grid(step_deg)
    best = np.inf
    for start in range(0, len(axes), chunk):
        block = axes[start:start + chunk]                        # (k, 3, 3)
        proj = block.reshape(-1, 3) @ pts.T                      # (3k, n)
        ext = proj.max(axis=1) - proj.min(axis=1)
        vols = ext.reshape(-1, 3).prod(axis=1)
        best = min(best, float(vols.min()))
    return best


# ---------------------------------------------------------------------------
# Full-point split search
# ---------------------------------------------------------------------------

def exhaustive_split(points, box, planes_per_axis=16, refine_steps=3):
    """Minimum summed-volume split over every candidate plane, each side fit
    on all of its points; None when no plane leaves two fit-able sides.

    Ties resolve to the lowest axis, then the smallest offset.
    """
    from pregrasp.decomposition import SplitPlane, candidate_offsets, evaluate_split
    from pregrasp.errors import DegenerateInput, EmptySide

    best = None
    for axis in range(3):
        for offset in candidate_offsets(box.half_extents[axis], planes_per_axis):
            try:
                ev = evaluate_split(points, box, SplitPlane(axis, float(offset)), refine_steps)
            except (EmptySide, DegenerateInput):
                continue
            if best is None or ev.volume_sum < best.volume_sum:
                best = ev
    return best


# ---------------------------------------------------------------------------
# Fine-direction support-function minimum (epsilon quality reference)
# ---------------------------------------------------------------------------

_EPS_GRID_CACHE = {}


def _epsilon_grid(n_dirs):
    """First n_dirs unit 6-vectors of a brute-force integer direction grid.

    Enumerates integer vectors shell by shell (max-norm 1, 2, 3, ...), keeps
    one representative per direction (gcd = 1), sorts each shell
    lexicographically, and normalizes.  Written independently of the package's
    estimator (which mixes lattice shells with a seeded random continuation).
    """
    if n_dirs in _EPS_GRID_CACHE:
        return _EPS_GRID_CACHE[n_dirs]
    rows = []
    total = 0
    s = 0
    while total < n_dirs:
        s += 1
        axes = [np.arange(-s, s + 1, dtype=np.int16)] * 6
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 6)
        shell = grid[np.abs(grid).max(axis=1) == s]
        shell = shell[np.gcd.reduce(np.abs(shell.astype(np.int64)), axis=1) == 1]
        shell = shell[np.lexsort(shell.T[::-1])]
        rows.append(shell.astype(float))
        total += len(shell)
    d = np.concatenate(rows)[:n_dirs]
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    _EPS_GRID_CACHE[n_dirs] = d
    return d


def epsilon_support_reference(wrench_array, n_dirs=2 ** 20, chunk=2 ** 16):
    """Largest-ball radius estimate by brute-force grid support minimization.

    wrench_array: (m, 6) rows of (force, torque).
    """
    w = np.asarray(wrench_array, dtype=float)
    d = _epsilon_grid(n_dirs)
    best = np.inf
    for start in range(0, len(d), chunk):
        h = (d[start:start + chunk] @ w.T).max(axis=1)
        if (h < 0.0).any():
            return 0.0
        best = min(best, float(h.min()))
    return best


# ---------------------------------------------------------------------------
# Spherical / cylindrical / circular sampling grids (independent enumeration)
# ---------------------------------------------------------------------------

def sphere_grid_count(step_deg):
    """Number of directions in a lat-lon grid: poles once, step_deg spacing."""
    n_theta = int(np.floor(180.0 / step_deg + 1e-9)) + 1
    n_phi = int(np.floor(360.0 / step_deg + 1e-9))
    count = 0
    for k in range(n_theta):
        theta = k * step_deg
        if theta < 1e-12 or abs(theta - 180.0) < 1e-12:
            count += 1
        else:
            count += n_phi
    return count


def circle_grid_count(step_deg):
    return int(np.floor(360.0 / step_deg + 1e-9))


def cylinder_lateral_station_count(length, axial_step):
    return int(np.floor(length / axial_step + 1e-9)) + 1


# ---------------------------------------------------------------------------
# Ray-tube first-contact reference
# ---------------------------------------------------------------------------

def first_contact_reference(points, origin, direction, tube_r):
    """Index of the first cloud point along a ray within tube_r, or None."""
    pts = np.asarray(points, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    best_t, best_i = np.inf, None
    for i, p in enumerate(pts):
        rel = p - origin
        t = float(rel @ d)
        if t < 0.0:
            continue
        perp2 = float(rel @ rel) - t * t
        if perp2 <= tube_r * tube_r and t < best_t:
            best_t, best_i = t, i
    return best_i
