"""Independent reference implementations used to pin expected values in tests.

Everything in here is deliberately brute-force and self-contained (numpy only,
no imports from the package under test) so that a disagreement points at the
implementation, not at a shared helper.  Some exceptions are built on package
code because the package must agree with them exactly:

- `exhaustive_split`, the full-point split search the package's screened
  search must agree with, built on the package's public `evaluate_split`;
- `reference_face_states`, the per-node face test (`reference_face_slab`,
  the one-axis-at-a-time `reference_obb_overlap` and a walk of the tree)
  that the package's one-pass stacked test replaced, built on the package's
  `cross` and `PENETRATION_EPS`;
- `reference_samples`, the three separate per-surface samplers the package's
  single sampling loop replaced, built on the package's sub-face schemes and
  `POOL_DTYPE`;
- `reference_wrench_set`, the per-edge friction-cone loop (with the
  per-contact `perpendicular_frame`) the package's broadcast `wrench_set`
  replaced;
- `reference_sample_node`, the one-direction-at-a-time sampling loop that
  the package's per-node array pass replaced, built on the package's
  sub-face schemes, `cross` and `POOL_DTYPE`;
- `rotation_about_axis`, one Rodrigues matrix at a time, which the
  package's stacked `rotations_about_axes` replaced;
- `reference_finger_rays`, the one-pre-grasp-at-a-time finger rays with a
  Rodrigues matrix per paired finger, which the package's stacked build
  replaced, built on `rotation_about_axis`;
- `reference_contacts`, the scan of every cloud point for every finger ray
  that the package's voxel-indexed contact search replaced, built on
  `reference_finger_rays` and the package's `NoContacts`; its
  `reference_first_hit` sums each point's t = rel.d and rel.rel as
  per-column products, the one arithmetic of the package's tube test
  (`geom.dot3`), so the two agree bit for bit under any BLAS kernel;
- `reference_slab_summaries`, the per-slab gather and point-major (n_s, 49)
  projection that the package's slab-local, direction-major split screen
  replaced, as fixed-order sums over the integer screening vectors
  (`lattice_projections`), which the package's one BLAS product per block
  must equal bit for bit on every kernel, with each slab's moments summed
  down its (n_s, 3) points, as the package's cumulative sum along each
  coordinate row does, built on the package's `_Slabs` and
  `SCREEN_DIRECTIONS`;
- `box_frame_coordinates`, a point's coordinate along a box axis as the
  one-point fixed-order sum `dot`(point - center, axis), which the package's
  split search (its screen's slabs and `evaluate_split`'s partition) takes
  for all points at once as rows of elementwise products, so the two agree
  bit for bit under any BLAS kernel;
- `reference_side_summary`, one side's moments summed and extremes picked
  over its slabs on their own, which the package's masked reductions over
  all sides of an axis at once (`_side_summaries`) replaced;
- `reference_fit_obb`, the box fit on (n, 3) points with each per-point
  product built whole (`pca_axes`' (60, n) tied-pair search,
  `sweep_volume`'s (18, n) steps), which the package's block-by-block
  reductions over (3, n) coordinate rows replaced, built on the package's
  search constants;
- `reference_screen`, the one-side-at-a-time PCA and rotation sweep that the
  package's stacked split screen replaced, each side an (n, 3) point set,
  built on `pca_axes`, `sweep_volume`, `reference_side_summary`,
  `reference_slab_summaries`, `box_frame_coordinates` and the package's
  search constants;
- `reference_epsilon_quality`, the per-direction row maxima of one wrench
  set's (n_dirs, k) support product, which the package's stacked (g, k,
  n_dirs) products reduced along contiguous memory replaced, and the full
  scan whose bits the package's certificate pass must keep, built on the
  package's `_lattice_directions`;
- `reference_rank_pool`, the one-candidate-at-a-time ranking loop that the
  package's sliced, batched ranking replaced, built on `reference_contacts`,
  `reference_wrench_set` and the package's `epsilon_quality` and
  `GraspCandidate`.
- `reference_parse_lines`, the three per-format per-line loaders (split each
  line, check its value count, read the coordinate tokens with Python's
  float()) that the package's one `np.loadtxt` read per file and its one
  per-line read for all formats replaced, built on the package's
  `ParseError`.

`dot` sums one pair of 3-vectors' products in a fixed order, u0 v0 + u1 v1
+ u2 v2 left to right, as the package's `geom.dot3` sums each row's; `norm`
and `matvec` are built on it, and `unit` normalizes one vector at a time, as
the package's `unit_rows` does each row.  The sampling, finger-ray,
contact-normal and wrench oracles take every vector product through them, so
they agree with the package bit for bit under any BLAS kernel.
`cells_containing` tests one point against a face's cells, as the package's
sampler tests all its exit points at once.  The oracles take a pre-grasp as
one row of a `POOL_DTYPE` pool.
"""

import numpy as np

# ---------------------------------------------------------------------------
# One vector, one point, one pool row at a time
# ---------------------------------------------------------------------------

def dot(u, v):
    """u . v of two 3-vectors, as the sum u0 v0 + u1 v1 + u2 v2, left to
    right."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def norm(v):
    """Euclidean norm of a 3-vector, as sqrt(`dot`(v, v))."""
    return np.sqrt(dot(v, v))


def matvec(m, v):
    """m v of a 3x3 matrix and a 3-vector, each row's product a `dot`."""
    return np.array([dot(row, v) for row in m])


def unit(v, fallback=None):
    """Normalize v; return `fallback` (or raise) when the norm is ~0."""
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if n < 1e-12:
        if fallback is None:
            raise ValueError("cannot normalize a zero vector")
        return np.asarray(fallback, dtype=float)
    return v / n


def cells_containing(cell_list, lr, du):
    """Cells (`SUBFACE_DTYPE` rows) whose closed rect (CELL_TOL slack)
    contains the face-local point (lr, du)."""
    from pregrasp.facemask import CELL_TOL as tol

    return [sf for sf in cell_list
            if sf["rect"][0] - tol <= lr <= sf["rect"][2] + tol
            and sf["rect"][1] - tol <= du <= sf["rect"][3] + tol]


def cells_by_face(mask, grasp_type, box):
    """A box's sub-faces under a grasp type, one `SUBFACE_DTYPE` array per
    FaceId."""
    from pregrasp.facemask import FaceId, subfaces

    cells = subfaces(mask, grasp_type, box)
    return [cells[cells["face"] == int(f)] for f in FaceId]


def pool_of(samples):
    """A `POOL_DTYPE` pool of (position, approach, closing_dir, grasp type,
    node id, (face, cell)) samples."""
    from pregrasp.classifier import GraspType
    from pregrasp.sampler import POOL_DTYPE

    pool = np.zeros(len(samples), POOL_DTYPE)
    for i, (p, a, c, grasp_type, nid, (face, cell)) in enumerate(samples):
        pool[i] = (p, a, c, tuple(GraspType).index(GraspType(grasp_type)), nid, face, cell)
    return pool


def row_vectors(pg):
    """Fresh copies of a pool row's position, approach and closing_dir."""
    return pg["position"].copy(), pg["approach"].copy(), pg["closing_dir"].copy()


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

def exhaustive_split(points, box):
    """Minimum summed-volume split over every candidate plane, each side fit
    on all of its points, as (volume_sum, axis, offset, idx_a, idx_b, box_a,
    box_b); None when no plane leaves two fit-able sides.

    Ties resolve to the lowest axis, then the smallest offset.
    """
    from pregrasp.decomposition import candidate_offsets, evaluate_split
    from pregrasp.errors import DegenerateInput, EmptySide

    best = None
    for axis in range(3):
        for offset in candidate_offsets(box.half_extents[axis]):
            try:
                idx_a, idx_b, box_a, box_b = evaluate_split(points, box, axis, float(offset))
            except (EmptySide, DegenerateInput):
                continue
            volume_sum = box_a.volume + box_b.volume
            if best is None or volume_sum < best[0]:
                best = (volume_sum, axis, float(offset), idx_a, idx_b, box_a, box_b)
    return best


def lattice_projections(L):
    """Point-major (n, 49) projections of the n box-frame points `L` (n, 3)
    on the integer screening vectors v, each the fixed-order sum
    (v0 L0 + v1 L1) + v2 L2 of exact products, element by element."""
    from pregrasp.decomposition import SCREEN_DIRECTIONS as V

    return (L[:, :1] * V[:, 0] + L[:, 1:2] * V[:, 1]) + L[:, 2:3] * V[:, 2]


def box_frame_coordinates(points, box, axis):
    """The coordinate of a point (3,) along box axis `axis`, as the one-point
    fixed-order sum `dot`(point - box.center, axis vector), left to right;
    given (n, 3) points, the same sum for each point, element by element."""
    return dot((np.asarray(points, dtype=float) - box.center).T, box.axis(axis))


def reference_slab_summaries(X, frame, axis, offsets):
    """Slab summaries of the split screen, one slab at a time: each slab's
    moments from its points gathered as (n_s, 3) rows from the (3, n)
    coordinate rows `X`, summed down the rows, and its `lattice_projections`
    from its box-frame coordinates gathered from the (3, n) rows `frame` as
    an (n_s, 49) block, with the extremes taken down its columns and their
    signed zeros cleared."""
    from pregrasp.decomposition import SCREEN_DIRECTIONS, _Slabs

    coord = frame[axis]
    order = np.argsort(coord, kind="stable")
    bounds = np.concatenate(([0], np.searchsorted(coord[order], offsets), [len(coord)]))
    n_slabs, m = len(bounds) - 1, len(SCREEN_DIRECTIONS)
    slabs = _Slabs(bounds, np.zeros((n_slabs, 3)), np.zeros((n_slabs, 3, 3)),
                   np.full((n_slabs, m), -np.inf), np.zeros((n_slabs, m), dtype=int),
                   np.full((n_slabs, m), np.inf), np.zeros((n_slabs, m), dtype=int))
    cols = np.arange(m)
    for j in range(n_slabs):
        rows = order[bounds[j]:bounds[j + 1]]
        if len(rows) == 0:
            continue
        Xs = X.T[rows]
        slabs.s1[j] = Xs.sum(axis=0)
        slabs.s2[j] = Xs.T @ Xs
        proj = lattice_projections(frame.T[rows])
        top, bot = proj.argmax(axis=0), proj.argmin(axis=0)
        slabs.hi[j], slabs.hi_idx[j] = proj[top, cols] + 0.0, rows[top]
        slabs.lo[j], slabs.lo_idx[j] = proj[bot, cols] + 0.0, rows[bot]
    return slabs


def reference_side_summary(slabs, first, stop):
    """Point count, moment sums, per-direction extreme values (max, min) and
    extreme-point coreset indices of slabs first..stop-1 (non-empty) of a
    `_Slabs`, one side at a time: the moments summed down the slab rows, the
    extremes picked by argmax and argmin (the lowest slab among ties)."""
    cols = np.arange(slabs.hi.shape[1])
    top = first + slabs.hi[first:stop].argmax(axis=0)
    bot = first + slabs.lo[first:stop].argmin(axis=0)
    coreset = np.concatenate([slabs.hi_idx[top, cols], slabs.lo_idx[bot, cols]])
    return (int(slabs.bounds[stop] - slabs.bounds[first]),
            slabs.s1[first:stop].sum(axis=0), slabs.s2[first:stop].sum(axis=0),
            slabs.hi[top, cols], slabs.lo[bot, cols], coreset)


def rotation_about_axis(axis, angle_rad):
    """Rodrigues rotation matrix about an axis (normalized here), one matrix
    at a time, with K^2's entries summed as `dot` sums them."""
    a = unit(axis)
    k = np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])
    k2 = np.array([[dot(row, col) for col in k.T] for row in k])
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * k2


def rot2_basis(cos, sin):
    return np.concatenate([np.stack([cos, sin], axis=1), np.stack([-sin, cos], axis=1)])


def min_area_angle(p2):
    """The 3 degree grid angle in [0, 90) that minimizes the bounding
    rectangle of the (n, 2) points `p2`, from one (60, n) product."""
    from pregrasp.decomposition import EXTENT_FLOOR

    angles = np.radians(np.arange(0.0, 90.0, 3.0))
    k = len(angles)
    uv = rot2_basis(np.cos(angles), np.sin(angles)) @ p2.T
    spans = np.maximum(uv.max(axis=1) - uv.min(axis=1), 2.0 * EXTENT_FLOOR)
    return float(angles[int(np.argmin(spans[:k] * spans[k:]))])


def pca_axes(cov, X):
    """Principal axes of one (3, 3) covariance, each near-tied pair turned
    by `min_area_angle` on the centred points `X`: the box fit's PCA step,
    one point set and one whole product at a time."""
    from pregrasp.decomposition import _TIED_EIGENVALUE_RATIO

    evals, evecs = np.linalg.eigh(cov)
    lam, axes = np.maximum(evals[::-1], 0.0), evecs[:, ::-1].copy()
    for i, j in ((0, 1), (1, 2), (0, 1)):
        if lam[j] <= 0.0 or lam[i] > _TIED_EIGENVALUE_RATIO * lam[j]:
            continue
        theta = min_area_angle(X @ axes[:, (i, j)])
        c, s = np.cos(theta), np.sin(theta)
        a_new = c * axes[:, i] + s * axes[:, j]
        b_new = -s * axes[:, i] + c * axes[:, j]
        axes[:, i], axes[:, j] = a_new, b_new
    return axes


def sweep_volume(X, R):
    """The box fit's rotation sweep of the centred points `X` from the axes
    `R`, one point set and one whole (18, n) product per step.  Returns the
    floor-clamped volume and the refined axes."""
    from pregrasp.decomposition import _REFINE_STEPS, EXTENT_FLOOR

    floor = 2.0 * EXTENT_FLOOR
    P = X @ R
    ext = P.max(axis=0) - P.min(axis=0)
    best_vol = float(np.prod(np.maximum(ext, floor)))
    for rnd in range(_REFINE_STEPS):
        half_range = np.radians(10.0) / (2.0 ** rnd)
        angles = np.linspace(-half_range, half_range, 9)
        m = len(angles)
        basis = rot2_basis(np.cos(angles), np.sin(angles))
        for axis in range(3):
            j, k = (axis + 1) % 3, (axis + 2) % 3
            uv = basis @ P[:, (j, k)].T
            hi, lo = uv.max(axis=1), uv.min(axis=1)
            exts = np.empty((m, 3))
            exts[:, axis] = ext[axis]
            exts[:, j] = hi[:m] - lo[:m]
            exts[:, k] = hi[m:] - lo[m:]
            vols = np.maximum(exts, floor).prod(axis=1)
            kb = int(np.argmin(vols))
            if vols[kb] < best_vol:
                best_vol = float(vols[kb])
                e = np.zeros(3)
                e[axis] = 1.0
                R = R @ rotation_about_axis(e, float(angles[kb]))
                P[:, j], P[:, k] = uv[kb], uv[m + kb]
                ext = exts[kb]
    return best_vol, R


def reference_fit_obb(points):
    """The box fit as (center, rotation, half_extents), with every per-point
    product built whole: `pca_axes`, `sweep_volume`, then the package's
    canonical form (extents descending, dominant axes sign-fixed, det +1)."""
    from pregrasp.decomposition import EXTENT_FLOOR

    pts = np.asarray(points, dtype=float)
    mean = pts.mean(axis=0)
    X = pts - mean
    R = sweep_volume(X, pca_axes(X.T @ X / len(X), X))[1]
    P = X @ R
    R = R[:, np.argsort(-(P.max(axis=0) - P.min(axis=0)), kind="stable")]
    for c in (0, 1):
        col = R[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            R[:, c] = -col
    R[:, 2] = np.cross(R[:, 0], R[:, 1])
    P = X @ R
    lo, hi = P.min(axis=0), P.max(axis=0)
    return mean + R @ ((lo + hi) / 2.0), R, np.maximum((hi - lo) / 2.0, EXTENT_FLOOR)


def reference_screen(pts, box):
    """The split screen's [(volume, axis, offset)], one side at a time: each
    side's covariance from its moments, its own eigh and tied-pair search,
    then its own rotation sweep on its (98, 3) coreset, as the package's
    stacked screen did before it fitted all sides of a node as one stack,
    with each side summarized by `reference_side_summary` from
    `reference_slab_summaries` and the box-frame coordinates of
    `box_frame_coordinates`.  Built on the package's search constants."""
    from pregrasp import decomposition as d

    def side_volume(X, side):
        count, s1, s2, hi, lo, coreset = side
        if float(((hi - lo) / np.linalg.norm(d.SCREEN_DIRECTIONS, axis=1)).max()) \
                < d._COINCIDENT_SPAN:
            return None
        mean = s1 / count
        C = X[coreset] - mean
        return sweep_volume(C, pca_axes(s2 / count - np.outer(mean, mean), C))[0]

    X = pts - pts.mean(axis=0)
    frame = np.array([box_frame_coordinates(pts, box, axis) for axis in range(3)])
    scored = []
    for axis in range(3):
        offsets = d.candidate_offsets(box.half_extents[axis])
        slabs = reference_slab_summaries(X.T, frame, axis, offsets)
        for k, offset in enumerate(offsets, start=1):
            below = slabs.bounds[k]
            if below == slabs.bounds[k - 1] or below == len(pts):
                continue
            vol_a = side_volume(X, reference_side_summary(slabs, 0, k))
            vol_b = side_volume(X, reference_side_summary(slabs, k, len(offsets) + 1))
            if vol_a is not None and vol_b is not None:
                scored.append((vol_a + vol_b, axis, float(offset)))
    return scored


# ---------------------------------------------------------------------------
# Per-edge friction-cone wrenches (reference for the broadcast wrench array)
# ---------------------------------------------------------------------------

def perpendicular_frame(n):
    """Two unit vectors completing a right-handed frame with normal n, built
    one contact at a time from the global axis least parallel to n."""
    n = unit(n)
    g = np.zeros(3)
    g[int(np.argmin(np.abs(n)))] = 1.0
    e1 = unit(g - dot(g, n) * n)
    e2 = np.cross(n, e1)
    return e1, e2


def reference_wrench_set(contacts, mu, m_edges, centroid):
    """Friction-cone edge wrenches of a (k, 2, 3) array of (position, normal)
    contacts, built one contact and one edge at a time, rows [force | torque]
    stacked as a (k * m_edges, 6) array."""
    centroid = np.asarray(centroid, dtype=float)
    if len(contacts) == 0:
        return np.empty((0, 6))
    rho = max(float(norm(position - centroid)) for position, _ in contacts)
    if rho <= 0.0:
        rho = 1.0
    alpha = np.arctan(mu)
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    rows = []
    for position, normal in contacts:
        n = unit(normal)
        e1, e2 = perpendicular_frame(n)
        arm = position - centroid
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
    estimator, which stops after the second shell.
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
# Face states one node, one face and one leaf at a time
# ---------------------------------------------------------------------------

def reference_face_slab(box, face, depth):
    """Face `face` of `box` extruded outward by `depth`, as (center,
    rotation, half_extents)."""
    axis = int(face) // 2
    sign = 1.0 if int(face) % 2 == 0 else -1.0
    normal = sign * box.axis(axis)
    center = box.center + normal * (box.half_extents[axis] + depth / 2.0)
    half = box.half_extents.copy()
    half[axis] = depth / 2.0
    return center, box.rotation.copy(), half


def reference_obb_overlap(a, b, min_penetration=0.0):
    """Separating-axis test for two (center, rotation, half_extents) boxes,
    one candidate axis at a time."""
    from pregrasp.geom import cross

    (ca, ra, ha), (cb, rb, hb) = a, b
    axes = [ra[:, i] for i in range(3)] + [rb[:, i] for i in range(3)]
    for i in range(3):
        for j in range(3):
            c = cross(ra[:, i], rb[:, j])
            n = np.linalg.norm(c)
            if n > 1e-9:
                axes.append(c / n)
    t = cb - ca
    for L in axes:
        reach_a = float(np.sum(ha * np.abs(L @ ra)))
        reach_b = float(np.sum(hb * np.abs(L @ rb)))
        if abs(float(t @ L)) >= reach_a + reach_b - min_penetration:
            return False
    return True


def reference_face_states(tree, node_id, delta_block):
    """The six face states (0 free, 1 blocked) of one tree node: each face's
    slab is tested against every leaf box that is neither the node, nor one
    of its ancestors (found by walking `parent`), nor one of its descendants
    (found by walking `children`)."""
    from pregrasp.facemask import PENETRATION_EPS

    skip, nid = {node_id}, tree.node(node_id).parent
    while nid is not None:
        skip.add(nid)
        nid = tree.node(nid).parent
    stack = list(tree.node(node_id).children)
    while stack:
        nid = stack.pop()
        skip.add(nid)
        stack.extend(tree.node(nid).children)
    box = tree.node(node_id).box
    neighbours = [(nb.center, nb.rotation, nb.half_extents)
                  for nb in (tree.node(nid).box for nid in tree.leaf_ids() if nid not in skip)]
    return np.array([int(any(
        reference_obb_overlap(reference_face_slab(box, face, delta_block), nb, PENETRATION_EPS)
        for nb in neighbours)) for face in range(6)])


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
    from pregrasp.facemask import FACE_FRAMES, FaceId

    def angle_steps(span_deg, step_deg, inclusive):
        n = int(np.floor(span_deg / step_deg + 1e-9))
        return [k * step_deg for k in range(n + 1 if inclusive else n)]

    def first_free_cell(face_cells, face_order, p):
        for face in face_order:
            lr_axis, du_axis = FACE_FRAMES[face]
            for sf in cells_containing(face_cells[int(face)], p[lr_axis], p[du_axis]):
                if sf["free"]:
                    return int(face), int(sf["cell"])
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
        c = preferred - dot(preferred, approach) * approach
        if norm(c) < 1e-8:
            c = fallback - dot(fallback, approach) * approach
        return unit(c)

    def spherical(gt):
        box = node.box
        radius = float(norm(box.half_extents)) + gripper.standoff
        cells = cells_by_face(mask, gt, box)
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
                d_world = matvec(box.rotation, d_local)
                approach = -d_world
                closing = closing_from_axis(box.axis(0), box.axis(1), approach)
                buckets.setdefault(hit, []).append((
                    box.center + radius * d_world, approach, closing, gt, node.id, hit))
        return buckets

    def cylindrical():
        box = node.box
        gt = GraspType.CYLINDRICAL
        hu = float(box.half_extents[0])
        axis_u = box.axis(0)
        radius = float(np.hypot(box.half_extents[1], box.half_extents[2])) + gripper.standoff
        length = 2.0 * hu + 2.0 * gripper.standoff
        cells = cells_by_face(mask, gt, box)
        buckets = {}
        for face in (FaceId.PLUS_U, FaceId.MINUS_U):
            if cells[int(face)][0]["free"]:
                sign = 1.0 if face == FaceId.PLUS_U else -1.0
                buckets.setdefault((int(face), 0), []).append((
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
                radial = matvec(box.rotation, d_local)
                approach = -radial
                closing = unit(np.cross(axis_u, approach))
                buckets.setdefault(hit, []).append((
                    box.center + axis_u * z + radial * radius, approach, closing,
                    gt, node.id, hit))
        return buckets

    def circle():
        """A sample survives iff its nearest in-plane face (by outward-normal
        alignment) is free."""
        box = node.box
        gt = GraspType.THREE_FINGERTIP
        radius = float(np.hypot(box.half_extents[0], box.half_extents[1])) + gripper.standoff
        cells = cells_by_face(mask, gt, box)
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
                if align[face] >= best - 1e-12 and cells[int(face)][0]["free"]:
                    hit = (int(face), 0)
                    break
            if hit is None:
                continue
            d_world = matvec(box.rotation, d_local)
            buckets.setdefault(hit, []).append((
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
    return pool_of([pg for key in sorted(buckets) for pg in buckets[key]])


def reference_sample_node(node, mask, gripper, sampling, grasp_type):
    """`sample_node` one direction at a time: a per-type generator yields
    box-frame directions (with the axial offset of a cylinder direction), the
    ray from the box center picks its exit faces, the direction is kept iff a
    free sub-face contains the exit point, and the kept samples are sorted
    stably by (face, cell)."""
    from pregrasp.classifier import GraspType
    from pregrasp.decomposition import OrientedBox
    from pregrasp.facemask import FACE_FRAMES, FaceId
    from pregrasp.geom import cross

    def angle_steps(span_deg, step_deg, inclusive):
        n = int(np.floor(span_deg / step_deg + 1e-9))
        return [k * step_deg for k in range(n + 1 if inclusive else n)]

    def sphere_directions():
        step = sampling.angular_step
        phis = angle_steps(360.0, step, inclusive=False)
        for theta in angle_steps(180.0, step, inclusive=True):
            polar = theta < 1e-9 or abs(theta - 180.0) < 1e-9
            for phi in ([0.0] if polar else phis):
                th, ph = np.radians(theta), np.radians(phi)
                yield np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                                np.cos(th)]), None

    def cylinder_directions(length):
        yield np.array([1.0, 0.0, 0.0]), length / 2.0
        yield np.array([-1.0, 0.0, 0.0]), -length / 2.0
        n_stations = int(np.floor(length / sampling.axial_step + 1e-9)) + 1
        stations = (np.arange(n_stations) - (n_stations - 1) / 2.0) * sampling.axial_step
        for z in stations:
            for phi in angle_steps(360.0, sampling.angular_step, inclusive=False):
                ph = np.radians(phi)
                yield np.array([0.0, np.cos(ph), np.sin(ph)]), z

    def circle_directions():
        for phi in angle_steps(360.0, sampling.angular_step, inclusive=False):
            ph = np.radians(phi)
            yield np.array([np.cos(ph), np.sin(ph), 0.0]), None

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
        c = preferred - dot(preferred, approach) * approach
        if norm(c) < 1e-8:
            c = fallback - dot(fallback, approach) * approach
        return unit(c)

    box, gt = node.box, GraspType(grasp_type)
    half, axis_u = box.half_extents, box.axis(0)
    frame = box
    if gt == GraspType.CYLINDRICAL:
        radius = float(np.hypot(half[1], half[2])) + gripper.standoff
        directions = cylinder_directions(2.0 * float(half[0]) + 2.0 * gripper.standoff)
    elif gt == GraspType.THREE_FINGERTIP:
        radius = float(np.hypot(half[0], half[1])) + gripper.standoff
        directions = circle_directions()
        frame = OrientedBox(box.center, box.rotation, np.ones(3))
    else:
        radius = float(norm(half)) + gripper.standoff
        directions = sphere_directions()
    cells = cells_by_face(mask, gt, frame)

    samples = []
    for d_local, z in directions:
        faces, tmin = exit_faces(d_local, frame.half_extents)
        p = d_local * tmin
        if z is not None:
            p[0] = z
        for face in faces:
            lr, du = FACE_FRAMES[face]
            free = [int(sf["cell"]) for sf in cells_containing(cells[face], p[lr], p[du])
                    if sf["free"]]
            if free:
                break
        else:
            continue
        hit = (int(face), free[0])
        if z is None:
            d_world = matvec(box.rotation, d_local)
            position = box.center + radius * d_world
        elif d_local[0]:
            d_world = d_local[0] * axis_u
            position = box.center + axis_u * z
        else:
            d_world = matvec(box.rotation, d_local)
            position = box.center + axis_u * z + d_world * radius
        approach = -d_world
        if gt == GraspType.CYLINDRICAL:
            closing = unit(cross(axis_u, approach), fallback=box.axis(1).copy())
        elif gt == GraspType.THREE_FINGERTIP:
            closing = box.axis(2).copy()
        else:
            closing = closing_from_axis(axis_u, box.axis(1), approach)
        samples.append((position, approach, closing, gt, node.id, hit))
    samples.sort(key=lambda sample: sample[5])
    return pool_of(samples)


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


def reference_first_hit(points, origin, direction, tube_r):
    """Index of the first point along a ray within tube_r, or None, from a
    scan of every point: t = rel.d and rel.rel for every point's offset rel,
    each summed as per-column products, u0 v0 + u1 v1 + u2 v2, ties on t to
    the lowest index."""
    rel = points - origin
    x, y, z = rel[:, 0], rel[:, 1], rel[:, 2]
    t = x * direction[0] + y * direction[1] + z * direction[2]
    perp2 = x * x + y * y + z * z - t * t
    ok = (t >= 0.0) & (perp2 <= tube_r * tube_r)
    if not ok.any():
        return None
    return int(np.argmin(np.where(ok, t, np.inf)))


def reference_finger_rays(pg, gripper):
    """Closing rays (origin, direction) of the fingers of one pre-grasp (a
    pool row), each paired finger turned by its own Rodrigues matrix: the
    thumb (not for TwoFingertip), then the fingers at + and - the preshape
    spread."""
    from pregrasp.classifier import GRASP_PRESHAPE, GraspType

    position, approach, c = row_vectors(pg)
    tip = position + approach * gripper.finger_length
    half_ap = gripper.max_aperture / 2.0
    rays = []
    grasp_type = tuple(GraspType)[pg["grasp_type"]]
    if grasp_type != GraspType.TWO_FINGERTIP:
        rays.append((tip + c * half_ap, -c))
    spread = np.radians(GRASP_PRESHAPE[grasp_type][0])
    for s in (spread, -spread):
        if s == 0.0:
            rays.append((tip - c * half_ap, c.copy()))
            continue
        rot = rotation_about_axis(approach, s)
        rays.append((tip + matvec(rot, -c * half_ap), matvec(rot, c)))
    return rays


def reference_contacts(pg, cloud, gripper):
    """Contacts of one pre-grasp (a pool row) from a scan of every cloud
    point for every finger ray, as a (k, 2, 3) array of (position, normal)
    rows: the first point along each ray within `gripper.tube_radius`,
    normals toward the cloud centroid.

    Raises:
        NoContacts: no finger ray touched the cloud.
    """
    from pregrasp.errors import NoContacts

    pts = cloud.points
    centroid = cloud.centroid
    contacts = []
    for origin, direction in reference_finger_rays(pg, gripper):
        i = reference_first_hit(pts, origin, direction, gripper.tube_radius)
        if i is None:
            continue
        p = pts[i]
        contacts.append((p, unit(centroid - p, fallback=-direction)))
    if not contacts:
        raise NoContacts(f"no finger touched the cloud from {pg['position']}")
    return np.array(contacts)


def reference_epsilon_quality(wrenches, n_dirs):
    """`epsilon_quality` from the maximum of each row of the (n_dirs, k)
    support product (the same product as the package's): 0.0 when some
    support is <= 0, else the smallest support."""
    from pregrasp.graspeval import _lattice_directions

    h = (_lattice_directions()[:n_dirs] @ wrenches.T).max(axis=1)
    return 0.0 if (h <= 0.0).any() else float(h.min())


def reference_rank_pool(pool, cloud, gripper):
    """Candidates graded one at a time and sorted as `rank_pool` sorts them:
    `reference_contacts` per pre-grasp, then, for 2+ contacts,
    `reference_wrench_set` and the package's `epsilon_quality`, at the
    package's cone edge and direction counts."""
    from pregrasp.errors import NoContacts
    from pregrasp.graspeval import CONE_EDGES, QUALITY_DIRS, GraspCandidate, epsilon_quality

    candidates = []
    for idx, pg in enumerate(pool):
        try:
            contacts = reference_contacts(pg, cloud, gripper)
        except NoContacts:
            contacts = np.empty((0, 2, 3))
        quality = 0.0
        if len(contacts) >= 2:
            ws = reference_wrench_set(contacts, gripper.friction_mu, CONE_EDGES, cloud.centroid)
            quality = epsilon_quality(ws, QUALITY_DIRS)
        candidates.append(GraspCandidate(idx, contacts, quality))
    candidates.sort(key=lambda c: (-c.quality, -len(c.contacts), c.pool_index))
    return candidates


def _reference_coordinates(tokens, line_nos):
    """The (n, 3) float64 array of the coordinate tokens, three per row, row
    k read from line line_nos[k]; a ParseError names the first faulty row."""
    from pregrasp.errors import ParseError

    try:
        pts = np.array(tokens, dtype=float).reshape(-1, 3)
        if np.isfinite(pts).all():
            return pts
    except ValueError:
        pass
    for k, line_no in enumerate(line_nos):
        try:
            row = [float(t) for t in tokens[3 * k:3 * k + 3]]
        except ValueError as exc:
            raise ParseError(line_no, f"bad number: {exc}") from None
        if not np.isfinite(row).all():
            raise ParseError(line_no, "non-finite coordinate")
    raise AssertionError("the bulk parse failed on rows that float() accepts")


def _reference_xyz(lines):
    from pregrasp.errors import ParseError

    tokens, line_nos = [], []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = line.split()
        if len(row) != 3:
            _reference_coordinates(tokens, line_nos)
            raise ParseError(i, f"expected 3 values, got {len(row)}")
        tokens += row
        line_nos.append(i)
    return _reference_coordinates(tokens, line_nos)


def _reference_ply(lines):
    from pregrasp.errors import ParseError

    if not lines or lines[0].strip() != "ply":
        raise ParseError(1, "not a PLY file (missing 'ply' magic)")
    n_vertices = None
    n_before = 0
    vertex_props = []
    in_vertex_element = False
    data_start = None
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("comment") or not line:
            continue
        if line.startswith("format"):
            if "ascii" not in line:
                raise ParseError(i, "binary PLY is not supported; export ASCII 1.0")
        elif line.startswith("element"):
            parts = line.split()
            in_vertex_element = len(parts) == 3 and parts[1] == "vertex"
            if n_vertices is None:
                if len(parts) != 3 or not parts[2].isdecimal():
                    raise ParseError(i, f"expected 'element <name> <count>', got {line!r}")
                if in_vertex_element:
                    n_vertices = int(parts[2])
                else:
                    n_before += int(parts[2])
        elif line.startswith("property") and in_vertex_element:
            if line.split()[1:2] == ["list"]:
                raise ParseError(i, f"vertex list properties are not supported: {line!r}")
            vertex_props.append(line.split()[-1])
        elif line == "end_header":
            data_start = i
            break
    if data_start is None:
        raise ParseError(len(lines), "missing end_header")
    if n_vertices is None:
        raise ParseError(data_start, "no vertex element declared")
    try:
        cols = [vertex_props.index(ax) for ax in ("x", "y", "z")]
    except ValueError:
        raise ParseError(data_start, "vertex element lacks x/y/z properties") from None

    tokens, line_nos = [], []
    for i, raw in enumerate(lines[data_start:], start=data_start + 1):
        if len(line_nos) >= n_vertices:
            break
        line = raw.strip()
        if not line:
            continue
        if n_before:
            n_before -= 1
            continue
        row = line.split()
        if len(row) < len(vertex_props):
            _reference_coordinates(tokens, line_nos)
            raise ParseError(i, f"expected {len(vertex_props)} vertex values, got {len(row)}")
        tokens += [row[c] for c in cols]
        line_nos.append(i)
    pts = _reference_coordinates(tokens, line_nos)
    if len(pts) < n_vertices:
        raise ParseError(len(lines), f"vertex element promised {n_vertices} rows, found {len(pts)}")
    return pts


def _reference_obj(lines):
    from pregrasp.errors import ParseError

    tokens, line_nos = [], []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line[:2].split() != ["v"]:       # `v` alone or followed by whitespace
            continue
        row = line.split()
        if len(row) < 4:
            _reference_coordinates(tokens, line_nos)
            raise ParseError(i, f"'v' line needs 3 coordinates, got {len(row) - 1}")
        tokens += row[1:4]
        line_nos.append(i)
    return _reference_coordinates(tokens, line_nos)


def reference_parse_lines(path, fmt):
    """The (n, 3) float64 points of the `fmt` ('xyz', 'ply' or 'obj') file at
    `path`, read line by line: each data line split in Python and its value
    count checked, then the coordinate tokens of the file read with Python's
    float() in one numpy call, and row by row on a fault.

    Raises:
        ParseError: on the first faulty line in file order.
    """
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        lines = fh.read().splitlines()
    return {"xyz": _reference_xyz, "ply": _reference_ply, "obj": _reference_obj}[fmt](lines)
