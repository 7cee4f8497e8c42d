"""Face reachability of decomposition boxes.

A gripper can reach a box from its six rectangular faces, but neighbouring
parts occlude some of them.  Each face gets a binary state (0 free, 1 blocked)
by testing the face's outward slab against every other leaf box; a 6x5 mask
matrix then pairs every face with its four adjacent faces (left, down, right,
up), and a per-grasp-type grid table turns the mask into one array of
reachable surface cells per node for the samplers.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .classifier import GraspType
from .decomposition import OrientedBox
from .geom import cross

# Overlaps shallower than this are treated as touching, not blocking: boxes
# fitted to adjacent parts interpenetrate by fit slack near shared junctions,
# and grazing contact must not block a face.
PENETRATION_EPS = 1e-3

# Slack of a sub-face's closed rect when testing whether it holds a point.
CELL_TOL = 1e-12


class FaceId(IntEnum):
    PLUS_U = 0
    MINUS_U = 1
    PLUS_V = 2
    MINUS_V = 3
    PLUS_W = 4
    MINUS_W = 5


class FaceDir(IntEnum):
    LEFT = 0
    DOWN = 1
    RIGHT = 2
    UP = 3


# Adjacency is fixed per face axis and independent of the face sign:
# left/right walk the next box axis, down/up the one after.
_ADJACENT = {
    0: (FaceId.MINUS_V, FaceId.MINUS_W, FaceId.PLUS_V, FaceId.PLUS_W),   # +/-U
    1: (FaceId.MINUS_W, FaceId.MINUS_U, FaceId.PLUS_W, FaceId.PLUS_U),   # +/-V
    2: (FaceId.MINUS_U, FaceId.MINUS_V, FaceId.PLUS_U, FaceId.PLUS_V),   # +/-W
}

# In-face 2D frame: (left-right axis index, down-up axis index) in box axes.
_FACE_FRAME = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


def adjacent_face(face, direction):
    """The face met when walking off `face` toward `direction`."""
    return _ADJACENT[int(face) // 2][int(direction)]


def face_frame(face):
    """Box-axis indices of a face's (left-right, down-up) in-plane directions."""
    return _FACE_FRAME[int(face) // 2]


@dataclass
class FaceMask:
    """6x5 binary matrix: rows follow FaceId, columns are
    (center, left, down, right, up); 0 = free, 1 = blocked."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=int).reshape(6, 5)

    def face_blocked(self, face):
        """Whether `face` is blocked; an array of faces gives an array."""
        return self.matrix[face, 0] != 0

    def adjacent_blocked(self, face, direction):
        """Whether the face met walking off `face` toward `direction` is
        blocked; arrays of faces and directions broadcast."""
        return self.matrix[face, 1 + np.asarray(direction)] != 0


# A face's sub-division into cells: `rect` is (lr_min, du_min, lr_max,
# du_max) in the face's local 2D frame, meters, centered on the face; `free`
# already accounts for the face itself and the adjacent faces the cell needs.
SUBFACE_DTYPE = np.dtype([("face", "i8"), ("cell", "i8"), ("rect", "f8", 4), ("free", "?")])


# ===========================================================================
# Blocking test
# ===========================================================================

def face_slab(box, face, depth):
    """The face of `box` extruded outward by `depth` (an OrientedBox)."""
    axis = int(face) // 2
    sign = 1.0 if int(face) % 2 == 0 else -1.0
    normal = sign * box.axis(axis)
    center = box.center + normal * (box.half_extents[axis] + depth / 2.0)
    half = box.half_extents.copy()
    half[axis] = depth / 2.0
    return OrientedBox(center, box.rotation.copy(), half)


def obb_overlap(a, b, min_penetration=0.0):
    """Separating-axis test for two oriented boxes.

    Returns True only when the boxes overlap by more than `min_penetration`
    along every candidate axis, so face-to-face touching does not count.
    """
    axes = [a.axis(i) for i in range(3)] + [b.axis(i) for i in range(3)]
    for i in range(3):
        for j in range(3):
            c = cross(a.axis(i), b.axis(j))
            n = np.linalg.norm(c)
            if n > 1e-9:
                axes.append(c / n)
    t = b.center - a.center
    for L in axes:
        ra = float(np.sum(a.half_extents * np.abs(L @ a.rotation)))
        rb = float(np.sum(b.half_extents * np.abs(L @ b.rotation)))
        if abs(float(t @ L)) >= ra + rb - min_penetration:
            return False
    return True


def compute_face_states(tree, node_id, delta_block):
    """Per-face blocked states (6,) for one node of a decomposition tree.

    A face is blocked iff any *other* leaf box (ancestors and descendants of
    the node excluded) overlaps the face slab extruded by `delta_block`.
    """
    node = tree.node(node_id)
    skip = {node_id, *tree.ancestors_of(node_id), *tree.descendants_of(node_id)}
    neighbours = [tree.node(nid).box for nid in tree.leaf_ids() if nid not in skip]
    states = np.zeros(6, dtype=int)
    for face in FaceId:
        slab = face_slab(node.box, face, delta_block)
        states[int(face)] = int(any(
            obb_overlap(slab, nb, min_penetration=PENETRATION_EPS) for nb in neighbours))
    return states


def face_mask(states):
    """Assemble the 6x5 mask matrix from per-face states."""
    states = np.asarray(states, dtype=int).reshape(6)
    m = np.zeros((6, 5), dtype=int)
    for face in FaceId:
        m[int(face), 0] = states[int(face)]
        for d in FaceDir:
            m[int(face), 1 + int(d)] = states[int(adjacent_face(face, d))]
    return FaceMask(m)


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
    axes = np.array([face_frame(f) for f in face]).T
    return face, cell, col, row, (n_lr, n_du), axes, needs


_CELLS = {g: _cell_table(grids) for g, grids in _GRIDS.items()}


def subfaces(mask, grasp_type, box):
    """The cells of all six faces under a grasp type's scheme, as one
    `SUBFACE_DTYPE` array in (face, cell) order.

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
    cells["free"] = ~mask.face_blocked(face) & ~(
        needs & mask.adjacent_blocked(face[:, None], tuple(FaceDir))).any(axis=1)
    return cells
