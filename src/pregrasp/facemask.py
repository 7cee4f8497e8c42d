"""Face reachability of decomposition boxes.

A gripper can reach a box from its six rectangular faces, but neighbouring
parts occlude some of them.  Each face gets a binary state (0 free, 1 blocked)
by testing the face's outward slab against every other leaf box; a 6x5 mask
matrix then pairs every face with its four adjacent faces (left, down, right,
up), and per-grasp-type sub-face schemes turn the mask into reachable surface
cells for the samplers.
"""

from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple

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
        return bool(self.matrix[int(face), 0])

    def adjacent_blocked(self, face, direction):
        return bool(self.matrix[int(face), 1 + int(direction)])


@dataclass
class SubFace:
    """One cell of a face's sub-division scheme.

    rect is (lr_min, du_min, lr_max, du_max) in the face's local 2D frame,
    meters, centered on the face.  free already accounts for the face itself
    and any adjacent faces the cell depends on.
    """

    face: FaceId
    cell: int
    rect: Tuple[float, float, float, float]
    free: bool


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

def _grid_cells(face, mask, box, n_lr, n_du, requirements):
    """Cells of an n_lr x n_du grid with closed rects and freeness rules.

    requirements maps cell -> tuple of FaceDir whose adjacent faces must also
    be free.  Cell ids are row-major from the bottom-left (lr_min, du_min).
    """
    lr_axis, du_axis = face_frame(face)
    ha = float(box.half_extents[lr_axis])
    hb = float(box.half_extents[du_axis])
    face_free = not mask.face_blocked(face)
    out = []
    for row in range(n_du):
        for col in range(n_lr):
            cell = row * n_lr + col
            rect = (-ha + 2.0 * ha * col / n_lr, -hb + 2.0 * hb * row / n_du,
                    -ha + 2.0 * ha * (col + 1) / n_lr, -hb + 2.0 * hb * (row + 1) / n_du)
            free = face_free and all(
                not mask.adjacent_blocked(face, d) for d in requirements.get(cell, ()))
            out.append(SubFace(FaceId(int(face)), cell, rect, free))
    return out


_RULES_3X3 = {
    0: (FaceDir.LEFT, FaceDir.DOWN), 1: (FaceDir.DOWN,), 2: (FaceDir.RIGHT, FaceDir.DOWN),
    3: (FaceDir.LEFT,), 5: (FaceDir.RIGHT,),
    6: (FaceDir.LEFT, FaceDir.UP), 7: (FaceDir.UP,), 8: (FaceDir.RIGHT, FaceDir.UP),
}


def subfaces(face, mask, grasp_type, box):
    """Sub-faces of one face under the node's grasp-type scheme.

    Cylindrical: the four lateral faces split into 3 strips along the longest
    axis (end strips also need the cap face on that end); cap faces are single
    cells.  Spherical / TwoFingertip: a 3x3 grid per face where edge cells
    need the adjacent face and corner cells need both.  ThreeFingertip: the
    whole face as one cell.

    A cell is free only if its face is free and all its associated adjacent
    faces are free.
    """
    g = GraspType(grasp_type)
    axis = int(face) // 2
    if g == GraspType.THREE_FINGERTIP or (g == GraspType.CYLINDRICAL and axis == 0):
        return _grid_cells(face, mask, box, 1, 1, {})
    if g == GraspType.CYLINDRICAL:
        # strips along U; U is the du direction on +/-V faces, lr on +/-W faces
        lr_axis, _ = face_frame(face)
        if lr_axis == 0:
            rules = {0: (FaceDir.LEFT,), 2: (FaceDir.RIGHT,)}
            return _grid_cells(face, mask, box, 3, 1, rules)
        rules = {0: (FaceDir.DOWN,), 2: (FaceDir.UP,)}
        return _grid_cells(face, mask, box, 1, 3, rules)
    return _grid_cells(face, mask, box, 3, 3, _RULES_3X3)
