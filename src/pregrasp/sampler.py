"""Pre-grasp sampling on enclosing surfaces of selected tree nodes.

A node is selected when it is a leaf (or has a small-object child, so the
parent is graspable as a whole) and its second-largest dimension fits the
gripper aperture; too-big nodes defer to their children.  Each selected node
is wrapped in an enclosing surface matched to its grasp type, and one loop
samples them all: a per-type generator yields box-frame directions at fixed
angular / axial intervals (lat-lon sphere for Spherical / TwoFingertip; caps,
then stations x angles around the longest axis for Cylindrical; the circle of
the two largest extents for ThreeFingertip), the ray from the box center picks
its exit faces, and the direction is kept iff a free sub-face contains the
exit point.  Every sample faces the box: the approach ray points back through
the node's box.
"""

import logging
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from .classifier import GraspType, ShapeCategory
from .decomposition import OrientedBox
from .facemask import FaceId, cells_containing, face_frame, subfaces
from .geom import cross, unit

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


@dataclass
class PreGrasp:
    position: np.ndarray
    approach: np.ndarray         # unit, points at the box
    closing_dir: np.ndarray      # unit, orthogonal to approach
    grasp_type: GraspType
    source_node: int
    source_subface: Tuple[int, int]   # (FaceId, cell)


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
# Surface sampling: per-type generators of (box-frame direction, axial offset
# or None) feed one exit-face / free-cell loop
# ===========================================================================

def _angle_steps(span_deg, step_deg, inclusive):
    n = int(np.floor(span_deg / step_deg + 1e-9))
    return [k * step_deg for k in range(n + 1 if inclusive else n)]


def _sphere_directions(sampling):
    """Lat-lon grid at angular_step spacing, each pole once."""
    step = sampling.angular_step
    phis = _angle_steps(360.0, step, inclusive=False)
    for theta in _angle_steps(180.0, step, inclusive=True):
        polar = theta < 1e-9 or abs(theta - 180.0) < 1e-9
        for phi in ([0.0] if polar else phis):
            th, ph = np.radians(theta), np.radians(phi)
            yield np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]), None


def _cylinder_directions(length, sampling):
    """The +U and -U caps (offset: the cap's distance along the axis), then
    radial directions at angular_step around the axis for every axial_step
    station of the enclosing cylinder's length, centered on the box."""
    yield np.array([1.0, 0.0, 0.0]), length / 2.0
    yield np.array([-1.0, 0.0, 0.0]), -length / 2.0
    n_stations = int(np.floor(length / sampling.axial_step + 1e-9)) + 1
    stations = (np.arange(n_stations) - (n_stations - 1) / 2.0) * sampling.axial_step
    for z in stations:
        for phi in _angle_steps(360.0, sampling.angular_step, inclusive=False):
            ph = np.radians(phi)
            yield np.array([0.0, np.cos(ph), np.sin(ph)]), z


def _circle_directions(sampling):
    """In-plane directions at angular_step in the plane of the two largest extents."""
    for phi in _angle_steps(360.0, sampling.angular_step, inclusive=False):
        ph = np.radians(phi)
        yield np.array([np.cos(ph), np.sin(ph), 0.0]), None


def _exit_faces(d_local, half):
    """Faces pierced by the ray from the box center along d_local (ties kept)."""
    t = np.full(3, np.inf)
    for axis in range(3):
        if abs(d_local[axis]) > 1e-15:
            t[axis] = half[axis] / abs(d_local[axis])
    tmin = float(t.min())
    faces = []
    for axis in range(3):
        if t[axis] <= tmin * (1.0 + 1e-9):
            faces.append(FaceId(2 * axis + (0 if d_local[axis] > 0 else 1)))
    return faces, tmin


def _closing_from_axis(preferred, fallback, approach):
    c = preferred - (preferred @ approach) * approach
    if np.linalg.norm(c) < 1e-8:
        c = fallback - (fallback @ approach) * approach
    return unit(c)


def sample_node(node, mask, gripper, sampling, grasp_type):
    """Pre-grasps of one node on its grasp type's enclosing surface, ordered
    by (face, cell, emission order).

    Sphere: radius |half extents| + standoff, closing along the longest box
    axis made orthogonal to the approach.  Cylinder: inward radial samples on
    the free lateral strips, closing around the axis, plus one sample per free
    cap at the flat-end center, approaching along the axis.  Circle: radial in
    the plane of the two largest extents, closing across the thin dimension; a
    direction bins to its best-aligned in-plane face (its exit face of the
    unit cube) and survives iff that face is free.
    """
    box, gt = node.box, GraspType(grasp_type)
    half, axis_u = box.half_extents, box.axis(0)
    frame = box
    if gt == GraspType.CYLINDRICAL:
        radius = float(np.hypot(half[1], half[2])) + gripper.standoff
        directions = _cylinder_directions(2.0 * float(half[0]) + 2.0 * gripper.standoff,
                                          sampling)
    elif gt == GraspType.THREE_FINGERTIP:
        radius = float(np.hypot(half[0], half[1])) + gripper.standoff
        directions = _circle_directions(sampling)
        # faces are binned by alignment: exit faces of the unit cube, one cell each
        frame = OrientedBox(box.center, box.rotation, np.ones(3))
    else:
        radius = float(np.linalg.norm(half)) + gripper.standoff
        directions = _sphere_directions(sampling)
    cells = [subfaces(f, mask, gt, frame) for f in FaceId]

    samples = []
    for d_local, z in directions:
        faces, tmin = _exit_faces(d_local, frame.half_extents)
        p = d_local * tmin
        if z is not None:
            p[0] = z
        for face in faces:                 # first free cell holding the exit point
            lr, du = face_frame(face)
            free = [sf.cell for sf in cells_containing(cells[face], p[lr], p[du]) if sf.free]
            if free:
                break
        else:
            continue
        hit = (int(face), free[0])
        if z is None:                      # radial from the box center
            d_world = box.rotation @ d_local
            position = box.center + radius * d_world
        elif d_local[0]:                   # cylinder cap, on the axis
            d_world = d_local[0] * axis_u  # not R @ d_local, which can flip zeros to -0.0
            position = box.center + axis_u * z
        else:                              # cylinder side, radial from the axis
            d_world = box.rotation @ d_local
            position = box.center + axis_u * z + d_world * radius
        approach = -d_world
        if gt == GraspType.CYLINDRICAL:
            # around the axis; a cap's approach is the axis itself, so it closes along v
            closing = unit(cross(axis_u, approach), fallback=box.axis(1).copy())
        elif gt == GraspType.THREE_FINGERTIP:
            closing = box.axis(2).copy()
        else:
            closing = _closing_from_axis(axis_u, box.axis(1), approach)
        samples.append(PreGrasp(position, approach, closing, gt, node.id, hit))
    samples.sort(key=lambda pg: pg.source_subface)
    return samples


# ===========================================================================
# Pool assembly
# ===========================================================================

def generate_pool(tree, classes, masks, gripper, sampling):
    """All pre-grasps of the selected nodes, ordered by
    (node id, face, cell, sample index).  Deterministic."""
    pool = []
    for nid in sorted(select_nodes(tree, classes, gripper)):
        grasp_type = classes[nid][1]
        samples = sample_node(tree.node(nid), masks[nid], gripper, sampling, grasp_type)
        logger.debug("node %d (%s): %d samples", nid, GraspType(grasp_type).value, len(samples))
        pool.extend(samples)
    logger.info("pre-grasp pool: %d candidates", len(pool))
    return pool
