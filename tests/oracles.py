"""Independent reference implementations used to pin expected values in tests.

Everything in here is deliberately brute-force and self-contained (numpy only,
no imports from the package under test) so that a disagreement points at the
implementation, not at a shared helper.  Some exceptions are built on package
code because the package must agree with them exactly:

- `exhaustive_split`, the full-point split search the package's screened
  search must agree with, built on the package's public `evaluate_split`;
- `reference_samples`, the three separate per-surface samplers the package's
  single sampling loop replaced, built on the package's sub-face schemes and
  `PreGrasp`;
- `reference_wrench_set`, the per-edge friction-cone loop (with the
  per-contact `perpendicular_frame`) the package's broadcast `wrench_set`
  replaced, built on the package's `unit`;
- `reference_contacts`, the scan of every cloud point for every finger ray
  that the package's voxel-indexed contact search replaced, built on the
  package's `finger_rays`, `unit`, `ContactPoint` and `NoContacts`;
- `reference_slab_summaries`, the per-slab gather and point-major (n_s, 49)
  projection that the package's slab-local, direction-major split screen
  replaced, built on the package's `_Slabs`.
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


def reference_slab_summaries(X, coord, offsets, dirs):
    """Slab summaries of the split screen, one slab at a time: each slab's
    points gathered from `X` and projected point-major as an (n_s, m) block,
    with the extremes taken down its columns."""
    from pregrasp.decomposition import _Slabs

    order = np.argsort(coord, kind="stable")
    bounds = np.concatenate(([0], np.searchsorted(coord[order], offsets), [len(coord)]))
    n_slabs, m = len(bounds) - 1, len(dirs)
    slabs = _Slabs(bounds, np.zeros((n_slabs, 3)), np.zeros((n_slabs, 3, 3)),
                   np.full((n_slabs, m), -np.inf), np.zeros((n_slabs, m), dtype=int),
                   np.full((n_slabs, m), np.inf), np.zeros((n_slabs, m), dtype=int))
    cols = np.arange(m)
    for j in range(n_slabs):
        rows = order[bounds[j]:bounds[j + 1]]
        if len(rows) == 0:
            continue
        Xs = X[rows]
        slabs.s1[j] = Xs.sum(axis=0)
        slabs.s2[j] = Xs.T @ Xs
        proj = Xs[:, :1] * dirs[:, 0]
        proj += Xs[:, 1:2] * dirs[:, 1]
        proj += Xs[:, 2:3] * dirs[:, 2]
        top, bot = proj.argmax(axis=0), proj.argmin(axis=0)
        slabs.hi[j], slabs.hi_idx[j] = proj[top, cols], rows[top]
        slabs.lo[j], slabs.lo_idx[j] = proj[bot, cols], rows[bot]
    return slabs


# ---------------------------------------------------------------------------
# Per-edge friction-cone wrenches (reference for the broadcast wrench array)
# ---------------------------------------------------------------------------

def perpendicular_frame(n):
    """Two unit vectors completing a right-handed frame with normal n, built
    one contact at a time from the global axis least parallel to n."""
    from pregrasp.geom import unit

    n = unit(n)
    g = np.zeros(3)
    g[int(np.argmin(np.abs(n)))] = 1.0
    e1 = unit(g - (g @ n) * n)
    e2 = np.cross(n, e1)
    return e1, e2


def reference_wrench_set(contacts, mu, m_edges, centroid):
    """Friction-cone edge wrenches built one contact and one edge at a time,
    rows [force | torque] stacked as a (len(contacts) * m_edges, 6) array."""
    from pregrasp.geom import unit

    centroid = np.asarray(centroid, dtype=float)
    if not contacts:
        return np.empty((0, 6))
    rho = max(float(np.linalg.norm(c.position - centroid)) for c in contacts)
    if rho <= 0.0:
        rho = 1.0
    alpha = np.arctan(mu)
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    rows = []
    for c in contacts:
        n = unit(c.normal)
        e1, e2 = perpendicular_frame(n)
        arm = c.position - centroid
        for k in range(m_edges):
            theta = 2.0 * np.pi * k / m_edges
            f = cos_a * n + sin_a * (np.cos(theta) * e1 + np.sin(theta) * e2)
            rows.append(np.concatenate((f, np.cross(arm, f) / rho)))
    return np.array(rows)


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
# Per-surface samplers (reference for the single sampling loop)
# ---------------------------------------------------------------------------

def reference_samples(node, mask, gripper, sampling, grasp_type):
    """Pre-grasps of one node from one sampler per enclosing surface: sphere
    (Spherical / TwoFingertip), cylinder (Cylindrical) or circle
    (ThreeFingertip).  Each sampler walks its own direction grid, keys every
    kept sample by its (face, cell) and returns the buckets in key order.
    """
    from pregrasp.classifier import GraspType
    from pregrasp.facemask import FaceId, cells_containing, face_frame, subfaces
    from pregrasp.geom import unit
    from pregrasp.sampler import PreGrasp

    def angle_steps(span_deg, step_deg, inclusive):
        n = int(np.floor(span_deg / step_deg + 1e-9))
        return [k * step_deg for k in range(n + 1 if inclusive else n)]

    def first_free_cell(face_cells, face_order, p):
        for face in face_order:
            lr_axis, du_axis = face_frame(face)
            for sf in cells_containing(face_cells[int(face)], p[lr_axis], p[du_axis]):
                if sf.free:
                    return int(face), sf.cell
        return None

    def exit_faces(d_local, half):
        t = np.full(3, np.inf)
        for axis in range(3):
            if abs(d_local[axis]) > 1e-15:
                t[axis] = half[axis] / abs(d_local[axis])
        tmin = float(t.min())
        faces = [FaceId(2 * axis + (0 if d_local[axis] > 0 else 1))
                 for axis in range(3) if t[axis] <= tmin * (1.0 + 1e-9)]
        return faces, tmin

    def closing_from_axis(preferred, fallback, approach):
        c = preferred - (preferred @ approach) * approach
        if np.linalg.norm(c) < 1e-8:
            c = fallback - (fallback @ approach) * approach
        return unit(c)

    def spherical(gt):
        box = node.box
        radius = float(np.linalg.norm(box.half_extents)) + gripper.standoff
        cells = [subfaces(f, mask, gt, box) for f in FaceId]
        buckets = {}
        step = sampling.angular_step
        phis = angle_steps(360.0, step, inclusive=False)
        for theta in angle_steps(180.0, step, inclusive=True):
            polar = theta < 1e-9 or abs(theta - 180.0) < 1e-9
            for phi in ([0.0] if polar else phis):
                th, ph = np.radians(theta), np.radians(phi)
                d_local = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                    np.cos(th)])
                faces, tmin = exit_faces(d_local, box.half_extents)
                hit = first_free_cell(cells, faces, d_local * tmin)
                if hit is None:
                    continue
                d_world = box.rotation @ d_local
                approach = -d_world
                closing = closing_from_axis(box.axis(0), box.axis(1), approach)
                buckets.setdefault(hit, []).append(PreGrasp(
                    box.center + radius * d_world, approach, closing, gt, node.id, hit))
        return buckets

    def cylindrical():
        box = node.box
        gt = GraspType.CYLINDRICAL
        hu = float(box.half_extents[0])
        axis_u = box.axis(0)
        radius = float(np.hypot(box.half_extents[1], box.half_extents[2])) + gripper.standoff
        length = 2.0 * hu + 2.0 * gripper.standoff
        cells = [subfaces(f, mask, gt, box) for f in FaceId]
        buckets = {}
        for face in (FaceId.PLUS_U, FaceId.MINUS_U):
            if cells[int(face)][0].free:
                sign = 1.0 if face == FaceId.PLUS_U else -1.0
                buckets.setdefault((int(face), 0), []).append(PreGrasp(
                    box.center + sign * axis_u * (length / 2.0), -sign * axis_u,
                    box.axis(1).copy(), gt, node.id, (int(face), 0)))
        n_stations = int(np.floor(length / sampling.axial_step + 1e-9)) + 1
        stations = (np.arange(n_stations) - (n_stations - 1) / 2.0) * sampling.axial_step
        for z in stations:
            for phi in angle_steps(360.0, sampling.angular_step, inclusive=False):
                ph = np.radians(phi)
                d_local = np.array([0.0, np.cos(ph), np.sin(ph)])
                faces, tmin = exit_faces(d_local, box.half_extents)
                p = d_local * tmin
                p[0] = z
                hit = first_free_cell(cells, faces, p)
                if hit is None:
                    continue
                radial = box.rotation @ d_local
                approach = -radial
                closing = unit(np.cross(axis_u, approach))
                buckets.setdefault(hit, []).append(PreGrasp(
                    box.center + axis_u * z + radial * radius, approach, closing,
                    gt, node.id, hit))
        return buckets

    def circle():
        """A sample survives iff its nearest in-plane face (by outward-normal
        alignment) is free."""
        box = node.box
        gt = GraspType.THREE_FINGERTIP
        radius = float(np.hypot(box.half_extents[0], box.half_extents[1])) + gripper.standoff
        cells = [subfaces(f, mask, gt, box) for f in FaceId]
        in_plane = (FaceId.PLUS_U, FaceId.MINUS_U, FaceId.PLUS_V, FaceId.MINUS_V)
        buckets = {}
        for phi in angle_steps(360.0, sampling.angular_step, inclusive=False):
            ph = np.radians(phi)
            d_local = np.array([np.cos(ph), np.sin(ph), 0.0])
            align = {f: (d_local[int(f) // 2] * (1.0 if int(f) % 2 == 0 else -1.0))
                     for f in in_plane}
            best = max(align.values())
            hit = None
            for face in in_plane:
                if align[face] >= best - 1e-12 and cells[int(face)][0].free:
                    hit = (int(face), 0)
                    break
            if hit is None:
                continue
            d_world = box.rotation @ d_local
            buckets.setdefault(hit, []).append(PreGrasp(
                box.center + radius * d_world, -d_world, box.axis(2).copy(),
                gt, node.id, hit))
        return buckets

    gt = GraspType(grasp_type)
    if gt == GraspType.CYLINDRICAL:
        buckets = cylindrical()
    elif gt == GraspType.THREE_FINGERTIP:
        buckets = circle()
    else:
        buckets = spherical(gt)
    return [pg for key in sorted(buckets) for pg in buckets[key]]


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


def reference_contacts(pg, cloud, gripper, tube_r=0.005):
    """Contacts of one pre-grasp from a scan of every cloud point for every
    finger ray: the first point along each ray within tube_r, normals toward
    the cloud centroid.

    Raises:
        NoContacts: no finger ray touched the cloud.
    """
    from pregrasp.errors import NoContacts
    from pregrasp.geom import unit
    from pregrasp.graspeval import ContactPoint, finger_rays

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
