"""Face reachability of decomposition boxes.

A gripper can reach a box from its six rectangular faces, but neighbouring
parts occlude some of them.  A node's mask is its six face states (0 free, 1
blocked), and a tree's masks are one (n_nodes, 6) array, built in one pass of
stacked separating-axis tests of every face slab against every leaf box.
Through each face's four `NEIGHBOURS`, a grid table per grasp type turns a
node's states into one array of reachable surface cells for the samplers, and
the run document's 6x5 mask matrix is `states[MASK_COLUMNS]`.
"""

from enum import IntEnum

import numpy as np

from .classifier import GraspType
from .geom import cross, dot3

# Overlaps shallower than this are treated as touching, not blocking: boxes
# fitted to adjacent parts interpenetrate by fit slack near shared junctions,
# and grazing contact must not block a face.
PENETRATION_EPS = 1e-3

# Slack of a sub-face's closed rect when testing whether it holds a point.
CELL_TOL = 1e-12

# (face, leaf) pairs per stacked overlap test; a block holds at least one node.
_BLOCK_PAIRS = 4096


# The six faces in mask row order: the + and then the - face of u, v and w.
FaceId = IntEnum("FaceId", "PLUS_U MINUS_U PLUS_V MINUS_V PLUS_W MINUS_W", start=0)

# Per face of axis a: the box axes of its in-face (left-right, down-up)
# directions, ((a+1)%3, (a+2)%3).
FACE_FRAMES = (np.arange(6)[:, None] // 2 + (1, 2)) % 3

# Per face: the faces met walking off it to the left, down, right and up, the
# minus and then the plus faces of its frame axes.
NEIGHBOURS = 2 * FACE_FRAMES[:, [0, 1, 0, 1]] + (1, 1, 0, 0)

# Columns of the 6x5 mask matrix: the face itself, then its neighbours.
MASK_COLUMNS = np.column_stack((np.arange(6), NEIGHBOURS))

# A face's sub-division into cells: `rect` is (lr_min, du_min, lr_max,
# du_max) in the face's local 2D frame, meters, centered on the face; `free`
# already accounts for the face itself and the adjacent faces the cell needs.
SUBFACE_DTYPE = np.dtype([("face", "i8"), ("cell", "i8"), ("rect", "f8", 4), ("free", "?")])


# ===========================================================================
# Blocking test
# ===========================================================================

def _face_slabs(center, rotation, half, depth):
    """The six faces of each of n boxes extruded outward by `depth`, in
    FaceId order: slab centers and half-extents, each (n, 6, 3)."""
    face = np.arange(6)
    axis, sign = face // 2, 1.0 - 2.0 * (face % 2)
    normal = sign[:, None] * np.swapaxes(rotation, -1, -2)[:, axis]
    slab_center = center[:, None] + normal * (half[:, axis] + depth / 2.0)[..., None]
    return slab_center, np.where(np.eye(3, dtype=bool)[axis], depth / 2.0, half[:, None])


def _reach(axes, rotation, half):
    """A box's half-width along each row of `axes` (..., k, 3)."""
    proj = sum(axes[..., i:i + 1] * rotation[..., None, i, :] for i in range(3))
    return dot3(np.abs(proj), half[..., None, :])


def obb_overlap(a, b, min_penetration=0.0):
    """Separating-axis test (Gottschalk, Lin, Manocha, "OBBTree", 1996) of
    boxes given as (center, rotation, half_extents) arrays, (..., 3),
    (..., 3, 3) and (..., 3), whose leading dimensions broadcast.

    The axes tested are each box's three and their pairwise cross products
    of norm above 1e-9.  A pair overlaps only by more than `min_penetration`
    along every axis, so face-to-face touching does not count.
    """
    (ca, ra, ha), (cb, rb, hb) = a, b
    ua, ub = np.swapaxes(ra, -1, -2), np.swapaxes(rb, -1, -2)
    c = cross(ua[..., :, None, :], ub[..., None, :, :])
    c = c.reshape(c.shape[:-3] + (9, 3))
    norm = np.sqrt(dot3(c, c))
    kept = norm > 1e-9
    c /= np.where(kept, norm, 1.0)[..., None]
    axes = np.concatenate([np.broadcast_to(x, c.shape[:-2] + x.shape[-2:]) for x in (ua, ub, c)],
                          axis=-2)
    dist = np.abs(dot3(axes, (cb - ca)[..., None, :]))
    separated = dist >= _reach(axes, ra, ha) + _reach(axes, rb, hb) - min_penetration
    separated[..., 6:] &= kept
    return ~separated.any(axis=-1)


def compute_face_states(tree, delta_block):
    """Blocked states of every node's six faces, as an (n_nodes, 6) int
    array (rows by node id, columns by FaceId; 0 free, 1 blocked).

    A face is blocked iff a leaf box outside the node's subtree overlaps the
    face's slab, extruded outward by `delta_block`, by more than
    PENETRATION_EPS.  Ancestors are never leaves; a leaf is in a node's
    subtree iff its preorder number falls in the node's preorder span.
    """
    boxes = [nd.box for nd in tree.nodes]
    center, rotation, half = (np.array([getattr(box, k) for box in boxes])
                              for k in ("center", "rotation", "half_extents"))
    slab_center, slab_half = _face_slabs(center, rotation, half, delta_block)
    pre, stack = [], [0]
    while stack:
        pre.append(stack.pop())
        stack.extend(tree.node(pre[-1]).children[::-1])
    first, size = np.argsort(pre), np.ones(len(boxes), dtype=int)
    for nid in pre[:0:-1]:
        size[tree.node(nid).parent] += size[nid]

    leaves = np.array(tree.leaf_ids())
    states = np.zeros((len(boxes), 6), dtype=int)
    step = max(1, _BLOCK_PAIRS // (6 * len(leaves)))
    for lo in range(0, len(boxes), step):
        nodes = slice(lo, lo + step)
        hit = obb_overlap((slab_center[nodes, :, None], rotation[nodes, None, None],
                           slab_half[nodes, :, None]),
                          (center[leaves], rotation[leaves], half[leaves]), PENETRATION_EPS)
        span = first[leaves] - first[nodes, None]
        states[nodes] = (hit & ((span < 0) | (span >= size[nodes, None]))[:, None]).any(axis=2)
    return states


# ===========================================================================
# Sub-face schemes
# ===========================================================================

# (n_lr, n_du) grid of the faces of each axis (U, V, W) per grasp type.
# Cylindrical: single-cell caps and three strips along U on the lateral faces
# (U is du on +/-V, lr on +/-W); Spherical / TwoFingertip: 3x3;
# ThreeFingertip: the whole face as one cell.
_GRIDS = {
    GraspType.CYLINDRICAL: ((1, 1), (1, 3), (3, 1)),
    GraspType.SPHERICAL: ((3, 3),) * 3,
    GraspType.TWO_FINGERTIP: ((3, 3),) * 3,
    GraspType.THREE_FINGERTIP: ((1, 1),) * 3,
}


def _cell_table(grids):
    """Every cell of a grasp type's grids in (face, cell) order: face, cell,
    col, row, (n_lr, n_du), (lr_axis, du_axis), and the (left, down, right,
    up) adjacent faces it needs.  On each face axis split into more than one
    cell, an edge cell needs the adjacent face beyond that edge: edge cells of
    a 3x3 grid need one neighbour, corner cells two, the end strips of a
    cylinder their cap."""
    face, cell = np.array([(f, c) for f in range(6) for c in range(np.prod(grids[f // 2]))]).T
    n_lr, n_du = np.array(grids)[face // 2].T
    row, col = np.divmod(cell, n_lr)
    needs = np.stack(((col == 0) & (n_lr > 1), (row == 0) & (n_du > 1),
                      (col == n_lr - 1) & (n_lr > 1), (row == n_du - 1) & (n_du > 1)), axis=1)
    return face, cell, col, row, (n_lr, n_du), FACE_FRAMES[face].T, needs


_CELLS = {g: _cell_table(grids) for g, grids in _GRIDS.items()}


def subfaces(states, grasp_type, box):
    """The cells of all six faces under a grasp type's scheme, given a
    node's six face states, as one `SUBFACE_DTYPE` array in (face, cell)
    order.

    Each face is an n_lr x n_du grid (`_GRIDS`) with closed rects; cell ids
    are row-major from the bottom-left (lr_min, du_min).  A cell is free iff
    its face is free and every adjacent face it needs (`_cell_table`) is
    free.
    """
    face, cell, col, row, (n_lr, n_du), (lr_axis, du_axis), needs = _CELLS[GraspType(grasp_type)]
    ha, hb = box.half_extents[lr_axis], box.half_extents[du_axis]
    cells = np.zeros(len(face), SUBFACE_DTYPE)
    cells["face"], cells["cell"] = face, cell
    cells["rect"] = np.stack((-ha + 2.0 * ha * col / n_lr, -hb + 2.0 * hb * row / n_du,
                              -ha + 2.0 * ha * (col + 1) / n_lr,
                              -hb + 2.0 * hb * (row + 1) / n_du), axis=1)
    blocked = np.asarray(states) != 0
    cells["free"] = ~blocked[face] & ~(needs & blocked[NEIGHBOURS[face]]).any(axis=1)
    return cells
