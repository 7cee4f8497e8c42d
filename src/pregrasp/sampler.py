"""Pre-grasp sampling on enclosing surfaces of selected tree nodes.

A node is selected when it is a leaf (or has a small-object child, so the
parent is graspable as a whole) and its second-largest dimension fits the
gripper aperture; too-big nodes defer to their children.  Each selected node
is wrapped in an enclosing surface matched to its grasp type and sampled in
one array pass over a per-type table of box-frame directions at fixed
angular / axial intervals (lat-lon sphere for Spherical / TwoFingertip; caps,
then stations x angles around the longest axis for Cylindrical; the circle of
the two largest extents for ThreeFingertip): the ray from the box center
along each direction picks its exit faces, and the direction is kept iff a
free sub-face contains the exit point.  Every sample faces the box: the
approach ray points back through the node's box.  The pool is one
`POOL_DTYPE` array, a row per pre-grasp.
"""

import logging
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .classifier import GraspType, ShapeCategory
from .decomposition import OrientedBox
from .facemask import CELL_TOL, FaceId, face_frame, subfaces
from .geom import aligned, cross, row_norms, unit_rows

logger = logging.getLogger(__name__)


@dataclass
class GripperConfig:
    finger_length: float = 0.08
    max_aperture: float = 0.10
    standoff: float = 0.02
    friction_mu: float = 0.5
    BOUNDS: ClassVar[dict] = {"finger_length": "> 0", "max_aperture": "> 0",
                              "standoff": ">= 0", "friction_mu": ">= 0"}


@dataclass
class SamplingParams:
    angular_step: float = 30.0   # degrees
    axial_step: float = 0.02     # meters
    BOUNDS: ClassVar[dict] = {"angular_step": "in (0, 180]", "axial_step": "> 0"}


# A pre-grasp pool row: the approach is a unit vector pointing at the box and
# the closing direction a unit vector orthogonal to it; the grasp type is an
# index into tuple(GraspType), the source sub-face a (FaceId, cell) pair.
POOL_DTYPE = np.dtype([("position", "f8", 3), ("approach", "f8", 3), ("closing_dir", "f8", 3),
                       ("grasp_type", "i8"), ("source_node", "i8"), ("source_face", "i8"),
                       ("source_cell", "i8")], align=True)


# ===========================================================================
# Node selection
# ===========================================================================

def select_nodes(tree, classes, gripper):
    """Ids of tree nodes to sample, in depth-first discovery order.

    A node is selected iff (it is a leaf OR one of its children is a small
    3D object) AND its second-largest dimension fits inside max_aperture.
    Selected subtrees are not descended; oversized nodes defer to children.
    """
    selected = []

    def visit(nid):
        node = tree.node(nid)
        fits = 2.0 * node.box.half_extents[1] <= gripper.max_aperture + 1e-12
        small_child = any(
            classes[c][0] == ShapeCategory.THREE_DIMENSIONAL_SMALL for c in node.children)
        if (node.is_leaf or small_child) and fits:
            selected.append(nid)
            return
        for c in node.children:
            visit(c)

    visit(0)
    return selected


# ===========================================================================
# Surface sampling: a per-type direction table feeds one array pass over the
# exit faces and free cells of a node
# ===========================================================================

def _angle_steps(span_deg, step_deg, inclusive):
    n = int(np.floor(span_deg / step_deg + 1e-9))
    return np.arange(n + 1 if inclusive else n) * step_deg


def _direction_table(grasp_type, length, sampling):
    """Box-frame directions (n, 3) of a grasp type's enclosing surface in
    emission order, and each one's axial offset (NaN: radial from the box
    center).

    Spherical / TwoFingertip: a lat-lon grid at angular_step, each pole once.
    Cylindrical: the +U and -U caps (offset: the cap's distance along the
    axis), then radial directions at angular_step around the axis for every
    axial_step station of the enclosing cylinder's `length`, centered on the
    box.  ThreeFingertip: in-plane directions at angular_step in the plane of
    the two largest extents.
    """
    step = sampling.angular_step
    ph = np.radians(_angle_steps(360.0, step, inclusive=False))
    if grasp_type == GraspType.CYLINDRICAL:
        n_stations = int(np.floor(length / sampling.axial_step + 1e-9)) + 1
        stations = (np.arange(n_stations) - (n_stations - 1) / 2.0) * sampling.axial_step
        ring = np.stack((np.zeros(len(ph)), np.cos(ph), np.sin(ph)), axis=1)
        return (np.concatenate(([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                                np.tile(ring, (n_stations, 1)))),
                np.concatenate(([length / 2.0, -length / 2.0], np.repeat(stations, len(ph)))))
    if grasp_type == GraspType.THREE_FINGERTIP:
        d = np.stack((np.cos(ph), np.sin(ph), np.zeros(len(ph))), axis=1)
        return d, np.full(len(d), np.nan)
    theta = _angle_steps(180.0, step, inclusive=True)
    polar = (theta < 1e-9) | (np.abs(theta - 180.0) < 1e-9)
    per_theta = np.where(polar, 1, len(ph))
    th = np.radians(np.repeat(theta, per_theta))
    k = np.arange(len(th)) - np.repeat(np.cumsum(per_theta) - per_theta, per_theta)
    ph = np.where(np.repeat(polar, per_theta), 0.0, ph[k])
    d = np.stack((np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)), axis=1)
    return d, np.full(len(d), np.nan)


def _exit_cells(d_local, offset, cells, half):
    """Rows of the directions that keep a sample, with its (face, cell).

    The ray from the box center along a direction leaves through its exit
    faces (ties within 1e-9 kept, in axis order); at an axial offset the exit
    point takes the offset as its U coordinate.  A direction keeps the first
    of its exit faces with a free cell whose closed rect (CELL_TOL slack)
    holds the exit point, and the first such cell.
    """
    with np.errstate(divide="ignore"):
        t = np.where(np.abs(d_local) > 1e-15, half / np.abs(d_local), np.inf)
    tmin = t.min(axis=1)
    exits = t <= (tmin * (1.0 + 1e-9))[:, None]
    p = d_local * tmin[:, None]
    p[:, 0] = np.where(np.isnan(offset), p[:, 0], offset)
    faces = 2 * np.arange(3) + (d_local <= 0.0)
    found = np.full(t.shape, -1)
    for face in FaceId:
        axis = int(face) // 2
        free = [sf for sf in cells[face] if sf.free]
        rows = np.flatnonzero(exits[:, axis] & (faces[:, axis] == face))
        if not free or not len(rows):
            continue
        lo_lr, lo_du, hi_lr, hi_du = np.array([sf.rect for sf in free]).T
        lr_axis, du_axis = face_frame(face)
        lr, du = p[rows, lr_axis][:, None], p[rows, du_axis][:, None]
        inside = ((lo_lr - CELL_TOL <= lr) & (lr <= hi_lr + CELL_TOL)
                  & (lo_du - CELL_TOL <= du) & (du <= hi_du + CELL_TOL))
        held = inside.any(axis=1)
        found[rows[held], axis] = np.array([sf.cell for sf in free])[inside[held].argmax(axis=1)]
    kept = np.flatnonzero((found >= 0).any(axis=1))
    axis = (found[kept] >= 0).argmax(axis=1)
    return kept, faces[kept, axis], found[kept, axis]


def _dots(u, v):
    """u @ v[i] for each row of v, with the bits of each product on its own
    (u keeps its strides, each row a fresh vector's alignment)."""
    return np.matmul(np.broadcast_to(u, (len(v), 1, 3)), aligned(v)[:, :, None])[:, 0, 0]


def sample_node(node, mask, gripper, sampling, grasp_type):
    """Pre-grasps of one node on its grasp type's enclosing surface, as a
    `POOL_DTYPE` array ordered by (face, cell, emission order).

    Sphere: radius |half extents| + standoff, closing along the longest box
    axis made orthogonal to the approach.  Cylinder: inward radial samples on
    the free lateral strips, closing around the axis, plus one sample per free
    cap at the flat-end center, approaching along the axis.  Circle: radial in
    the plane of the two largest extents, closing across the thin dimension; a
    direction bins to its best-aligned in-plane face (its exit face of the
    unit cube) and survives iff that face is free.

    The node is sampled in one array pass over its direction table; each
    vector gets the bits a per-direction computation gives it.
    """
    box, gt = node.box, GraspType(grasp_type)
    half, axis_u = box.half_extents, box.axis(0)
    frame, length = box, None
    if gt == GraspType.CYLINDRICAL:
        radius = float(np.hypot(half[1], half[2])) + gripper.standoff
        length = 2.0 * float(half[0]) + 2.0 * gripper.standoff
    elif gt == GraspType.THREE_FINGERTIP:
        radius = float(np.hypot(half[0], half[1])) + gripper.standoff
        # faces are binned by alignment: exit faces of the unit cube, one cell each
        frame = OrientedBox(box.center, box.rotation, np.ones(3))
    else:
        radius = float(np.linalg.norm(half)) + gripper.standoff
    d_local, offset = _direction_table(gt, length, sampling)
    cells = [subfaces(f, mask, gt, frame) for f in FaceId]
    rows, face, cell = _exit_cells(d_local, offset, cells, frame.half_extents)
    order = np.lexsort((cell, face))
    rows, face, cell = rows[order], face[order], cell[order]
    d_local, offset = d_local[rows], offset[rows]

    d_world = np.matmul(box.rotation, aligned(d_local)[:, :, None])[:, :, 0]
    if gt == GraspType.CYLINDRICAL:
        cap = d_local[:, 0] != 0.0
        # a cap's direction is d_local[0] * axis_u, not R @ d_local, which can
        # flip zeros to -0.0
        d_world[cap] = d_local[cap, :1] * axis_u
        position = box.center + axis_u * offset[:, None]
        position[~cap] += d_world[~cap] * radius
    else:
        position = box.center + radius * d_world
    approach = -d_world
    if gt == GraspType.CYLINDRICAL:
        # around the axis; a cap's approach is the axis itself, so it closes along v
        closing = unit_rows(cross(axis_u, approach), fallback=box.axis(1))
    elif gt == GraspType.THREE_FINGERTIP:
        closing = np.broadcast_to(box.axis(2), approach.shape)
    else:
        # the longest axis made orthogonal to the approach, or the middle one
        # where the longest is (nearly) parallel to it
        closing = axis_u - _dots(axis_u, approach)[:, None] * approach
        flat = row_norms(closing) < 1e-8
        v = box.axis(1)
        closing[flat] = v - _dots(v, approach[flat])[:, None] * approach[flat]
        closing = unit_rows(closing)
    pool = np.zeros(len(rows), POOL_DTYPE)
    pool["position"], pool["approach"], pool["closing_dir"] = position, approach, closing
    pool["grasp_type"], pool["source_node"] = tuple(GraspType).index(gt), node.id
    pool["source_face"], pool["source_cell"] = face, cell
    return pool


# ===========================================================================
# Pool assembly
# ===========================================================================

def generate_pool(tree, classes, masks, gripper, sampling):
    """All pre-grasps of the selected nodes, as one `POOL_DTYPE` array
    ordered by (node id, face, cell, sample index).  Deterministic."""
    parts = [np.zeros(0, POOL_DTYPE)]
    for nid in sorted(select_nodes(tree, classes, gripper)):
        grasp_type = classes[nid][1]
        samples = sample_node(tree.node(nid), masks[nid], gripper, sampling, grasp_type)
        logger.debug("node %d (%s): %d samples", nid, GraspType(grasp_type).value, len(samples))
        parts.append(samples)
    pool = np.concatenate(parts)
    logger.info("pre-grasp pool: %d candidates", len(pool))
    return pool
