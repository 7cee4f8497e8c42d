"""Point-cloud loading, synthetic test shapes, and JSON result files.

Loaders accept three plain-text formats:

* ``xyz``  -- whitespace-separated ``x y z`` per line, ``#`` comments allowed
* ``ply``  -- ASCII 1.0, vertex element only (binary PLY is rejected)
* ``obj``  -- ``v`` lines only, everything else ignored

All coordinates are meters.  Point order is preserved from the input file.
A loader's per-line loop only splits lines and checks their value counts; the
coordinate tokens of the whole file are then parsed in one numpy call, which
reads each with Python's float().  A parse error names the first faulty line
in file order, whatever the kind of fault.  Loaded points are a C-ordered
float64 array.
"""

import gc
import json
import logging
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadDimension, EmptyCloud, ParseError

logger = logging.getLogger(__name__)

MIN_POINTS = 4

# Each synth kind's dimensions (meters), in synth_shape's `dims` order, with
# their `pregrasp synth` defaults.
SYNTH_KINDS = {
    "box": {"dx": 0.2, "dy": 0.15, "dz": 0.1},
    "sphere": {"r": 0.05},
    "cylinder": {"r": 0.03, "length": 0.2},
    "plate": {"dx": 0.2, "dy": 0.15, "dz": 0.01},
    "dumbbell": {"length": 0.2, "end_a": 0.08, "end_b": 0.03, "neck": 0.015},
    "lshape": {"leg_a": 0.2, "leg_b": 0.15, "thickness": 0.04},
}


@dataclass
class PointCloud:
    """An (n, 3) float64 array of points plus the name it was loaded under."""

    points: np.ndarray
    source_name: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)

    def __len__(self):
        return len(self.points)

    @property
    def centroid(self):
        return self.points.mean(axis=0)


# ===========================================================================
# Loaders
# ===========================================================================

def load_cloud(path, fmt=None):
    """Read a point cloud from `path`.

    Args:
        path: file to read.
        fmt: 'xyz', 'ply' or 'obj'; inferred from the extension when None.

    Returns:
        PointCloud with at least 4 points.

    Raises:
        FileNotFoundError, ParseError, EmptyCloud.
    """
    if fmt is None:
        fmt = os.path.splitext(str(path))[1].lstrip(".").lower() or "xyz"
    fmt = fmt.lower()
    if fmt not in ("xyz", "ply", "obj"):
        raise ParseError(0, f"unknown format {fmt!r} (expected xyz, ply or obj)")
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()

    if fmt == "xyz":
        pts = _parse_xyz(lines)
    elif fmt == "ply":
        pts = _parse_ply(lines)
    else:
        pts = _parse_obj(lines)
    # The bulk parse leaves no container garbage, so no full collection runs
    # while a file is read.  Only a full collection empties the interpreter's
    # free lists, where a tuple or float left by earlier work keeps its whole
    # small-object arena mapped; perfbench's large-scan peak RSS is 156 MB
    # without this pass and 136-140 MB with it.
    gc.collect()

    if len(pts) < MIN_POINTS:
        raise EmptyCloud(f"{path}: {len(pts)} points, need at least {MIN_POINTS}")
    logger.info("loaded %d points from %s", len(pts), path)
    return PointCloud(pts, source_name=str(path))


def _parse_coordinates(tokens, line_nos):
    """The (n, 3) float64 array of the coordinate tokens, three per row, row
    k read from line line_nos[k].

    One bulk parse: numpy reads each token with Python's float(), so the
    values are those of float().  On a bad number or a non-finite value the
    rows are parsed again one by one in file order, so the error names the
    first faulty row (in a row, a bad number comes before a non-finite value).

    Raises:
        ParseError
    """
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


def _parse_xyz(lines):
    tokens, line_nos = [], []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row = line.split()
        if len(row) != 3:
            _parse_coordinates(tokens, line_nos)  # a fault on an earlier row comes first
            raise ParseError(i, f"expected 3 values, got {len(row)}")
        tokens += row
        line_nos.append(i)
    return _parse_coordinates(tokens, line_nos)


def _parse_ply(lines):
    if not lines or lines[0].strip() != "ply":
        raise ParseError(1, "not a PLY file (missing 'ply' magic)")
    n_vertices = None
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
            if in_vertex_element:
                try:
                    n_vertices = int(parts[2])
                except ValueError:
                    raise ParseError(i, f"bad vertex count {parts[2]!r}") from None
        elif line.startswith("property") and in_vertex_element:
            vertex_props.append(line.split()[-1])
        elif line == "end_header":
            data_start = i
            break
    if data_start is None:
        raise ParseError(len(lines), "missing end_header")
    if n_vertices is None:
        raise ParseError(data_start, "no vertex element declared")
    try:
        xyz = operator.itemgetter(*[vertex_props.index(ax) for ax in ("x", "y", "z")])
    except ValueError:
        raise ParseError(data_start, "vertex element lacks x/y/z properties") from None

    tokens, line_nos = [], []
    for i, raw in enumerate(lines[data_start:], start=data_start + 1):
        if len(line_nos) >= n_vertices:
            break
        line = raw.strip()
        if not line:
            continue
        row = line.split()
        if len(row) < len(vertex_props):
            _parse_coordinates(tokens, line_nos)  # a fault on an earlier row comes first
            raise ParseError(i, f"expected {len(vertex_props)} vertex values, got {len(row)}")
        tokens += xyz(row)
        line_nos.append(i)
    pts = _parse_coordinates(tokens, line_nos)
    if len(pts) < n_vertices:
        raise ParseError(len(lines), f"vertex element promised {n_vertices} rows, found {len(pts)}")
    return pts


def _parse_obj(lines):
    tokens, line_nos = [], []
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line.startswith("v ") and line != "v":
            continue
        row = line.split()
        if len(row) < 4:
            _parse_coordinates(tokens, line_nos)  # a fault on an earlier row comes first
            raise ParseError(i, f"'v' line needs 3 coordinates, got {len(row) - 1}")
        tokens += row[1:4]
        line_nos.append(i)
    return _parse_coordinates(tokens, line_nos)


# ===========================================================================
# Synthetic shapes
# ===========================================================================

def synth_shape(kind, dims, n, seed):
    """Sample `n` points uniformly on the surface of an analytic test shape.

    `dims` (meters) lists the kind's dimensions in SYNTH_KINDS order:
        box, plate (dx, dy, dz)
        sphere     (r)
        cylinder   (r, length)                    axis along +z
        dumbbell   (length, end_a, end_b, neck)   two cubes joined by a neck, axis +x
        lshape     (leg_a, leg_b, thickness)      two orthogonal square-section legs

    Deterministic for a given (kind, dims, n, seed).
    """
    if kind not in SYNTH_KINDS:
        raise BadDimension(f"unknown shape kind {kind!r}")
    if n < MIN_POINTS:
        raise EmptyCloud(f"n={n}, need at least {MIN_POINTS}")
    dims = tuple(float(d) for d in dims)
    if not all(0.0 < d < np.inf for d in dims):
        raise BadDimension(f"{kind}: dimensions must be positive and finite, got {dims}")
    if len(dims) != len(SYNTH_KINDS[kind]):
        raise BadDimension(f"{kind} needs ({', '.join(SYNTH_KINDS[kind])}), "
                           f"got {len(dims)} values")
    rng = np.random.default_rng(seed)

    if kind in ("box", "plate"):
        pts = _box_surface(rng, np.array(dims) / 2.0, n)
    elif kind == "sphere":
        pts = _sphere_surface(rng, dims[0], n)
    elif kind == "cylinder":
        pts = _cylinder_surface(rng, dims[0], dims[1], n)
    elif kind == "dumbbell":
        pts = _union_of_boxes(rng, _dumbbell_boxes(*dims), n)
    else:
        pts = _union_of_boxes(rng, _lshape_boxes(*dims), n)

    return PointCloud(pts, source_name=f"synth:{kind}")


def _box_surface(rng, half, n):
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    weights = np.repeat(areas, 2) / (2.0 * areas.sum())
    faces = rng.choice(6, size=n, p=weights)
    pts = rng.uniform(-half, half, size=(n, 3))
    axis = faces // 2
    sign = 1.0 - 2.0 * (faces % 2)
    pts[np.arange(n), axis] = sign * half[axis]
    return pts


def _sphere_surface(rng, r, n):
    v = rng.standard_normal((n, 3))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return r * v / norms


def _cylinder_surface(rng, r, length, n):
    lateral = 2.0 * np.pi * r * length
    caps = 2.0 * np.pi * r * r
    on_lateral = rng.random(n) < lateral / (lateral + caps)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.empty((n, 3))
    pts[:, 0] = np.cos(phi)
    pts[:, 1] = np.sin(phi)
    # lateral: full radius, uniform height; caps: disc point at either end
    z_lat = rng.uniform(-length / 2.0, length / 2.0, n)
    rad_cap = r * np.sqrt(rng.random(n))
    z_cap = np.where(rng.random(n) < 0.5, -length / 2.0, length / 2.0)
    radius = np.where(on_lateral, r, rad_cap)
    pts[:, 0] *= radius
    pts[:, 1] *= radius
    pts[:, 2] = np.where(on_lateral, z_lat, z_cap)
    return pts


def _dumbbell_boxes(length, end_a, end_b, neck):
    if length <= end_a + end_b:
        raise BadDimension(f"dumbbell length {length} must exceed end_a + end_b = {end_a + end_b}")
    half_l = length / 2.0
    return [
        (np.array([-half_l + end_a / 2.0, 0.0, 0.0]), np.array([end_a, end_a, end_a]) / 2.0),
        (np.array([half_l - end_b / 2.0, 0.0, 0.0]), np.array([end_b, end_b, end_b]) / 2.0),
        (np.array([(end_a - end_b) / 2.0, 0.0, 0.0]),
         np.array([length - end_a - end_b, neck, neck]) / 2.0),
    ]


def _lshape_boxes(leg_a, leg_b, t):
    # leg A along +x, leg B along +y sharing a t x t face; recentred on the union box
    shift = np.array([leg_a / 2.0, (t + leg_b) / 2.0, t / 2.0])
    return [
        (np.array([leg_a / 2.0, t / 2.0, t / 2.0]) - shift, np.array([leg_a, t, t]) / 2.0),
        (np.array([t / 2.0, t + leg_b / 2.0, t / 2.0]) - shift, np.array([t, leg_b, t]) / 2.0),
    ]


def _union_of_boxes(rng, boxes, n):
    """Surface-sample a union of axis-aligned boxes, rejecting interior points."""
    areas = np.array([8.0 * (h[0] * h[1] + h[0] * h[2] + h[1] * h[2]) for _, h in boxes])
    weights = areas / areas.sum()
    out = []
    kept = 0
    while kept < n:
        # keep batches in pick order so truncation below stays area-weighted
        batch = max(32, int((n - kept) * 1.5))
        picks = rng.choice(len(boxes), size=batch, p=weights)
        pts = np.empty((batch, 3))
        for b, (center, half) in enumerate(boxes):
            rows = np.flatnonzero(picks == b)
            if len(rows):
                pts[rows] = _box_surface(rng, half, len(rows)) + center
        keep = np.ones(batch, dtype=bool)
        for b, (center, half) in enumerate(boxes):
            inside = np.all(np.abs(pts - center) < half - 1e-12, axis=1)
            keep &= ~(inside & (picks != b))
        out.append(pts[keep])
        kept += int(keep.sum())
    return np.concatenate(out)[:n]


# ===========================================================================
# Result documents
# ===========================================================================

def save_results(path, payload):
    """Write a JSON result document atomically (temp file + rename).  The
    file gets mode 0o666 less the umask, as a plain `open` would give it."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".pregrasp-{os.urandom(8).hex()}.json")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    logger.info("wrote %s", path)


def load_results(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
