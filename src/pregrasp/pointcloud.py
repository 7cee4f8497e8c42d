"""Point-cloud loading, synthetic test shapes, and JSON result files.

Loaders accept three plain-text formats:

* ``xyz``  -- whitespace-separated ``x y z`` per line, ``#`` comments allowed
* ``ply``  -- ASCII 1.0, vertex element only (binary PLY is rejected)
* ``obj``  -- ``v`` lines only, everything else ignored

All coordinates are meters.  Point order is preserved from the input file,
read as UTF-8 with or without a byte-order mark.  One reader serves all three
formats: each names its data lines, its x y z columns and the value counts a
line may have.  The data lines are read in one ``np.loadtxt`` call.  If numpy
rejects a line, or a value count or coordinate is wrong, they are read line
by line with Python's float(), which takes tokens numpy does not (``1_0``,
non-ASCII digits) and reads the others to the same bits, and the first faulty
line in file order is named, whatever the kind of fault.  Loaded points are a
C-ordered float64 array.
"""

import gc
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import islice

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
        raise ParseError(None, f"{path}: unknown format {fmt!r} (expected xyz, ply or obj)")
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        lines = fh.read().splitlines()

    if fmt == "xyz":
        pts = _read_rows(lines, lambda stripped: [s for s in stripped if s and s[0] != "#"],
                         (0, 1, 2), range(3, 4), lambda n: f"expected 3 values, got {n}")
    elif fmt == "obj":      # `v` alone or followed by whitespace (a space, a tab, ...)
        pts = _read_rows(lines, lambda stripped: [s for s in stripped if s[:2].split() == ["v"]],
                         (1, 2, 3), range(4, sys.maxsize),
                         lambda n: f"'v' line needs 3 coordinates, got {n - 1}")
    else:
        pts = _parse_ply(lines)
    # The bulk parse leaves no container garbage, so no full collection runs
    # while a file is read.  Only a full collection empties the interpreter's
    # free lists, where a tuple or float left by earlier work keeps its whole
    # small-object arena mapped; perfbench's large-scan peak RSS read 90-93 MB
    # without this pass and 87-89 MB with it (4 runs each on 2 vCPUs).
    gc.collect()

    if len(pts) < MIN_POINTS:
        raise EmptyCloud(f"{path}: {len(pts)} points, need at least {MIN_POINTS}")
    logger.info("loaded %d points from %s", len(pts), path)
    return PointCloud(pts, source_name=str(path))


class _Line(str):
    """A stripped line that carries its 1-based line number, `no`."""

    def __new__(cls, text, no):
        line = super().__new__(cls, text)
        line.no = no
        return line


def _read_rows(lines, select, cols, widths, short):
    """The (n, 3) float64 points of a file's data rows: `select` picks them, in
    file order, from the stripped lines; `cols` are their x y z columns;
    `widths` (a range) are the value counts a row may have, and `short(count)`
    names any other.  On any mismatch of the one np.loadtxt read, `select`
    runs again on numbered lines, for the per-line read."""
    pts = _load_rows(select(map(str.strip, lines)), cols, widths)
    if pts is None:
        pts = _parse_rows(select(_Line(s.strip(), i) for i, s in enumerate(lines, start=1)),
                          cols, widths, short)
    return pts


def _load_rows(rows, cols, widths):
    """Columns `cols` of the stripped lines `rows`, by np.loadtxt; None if numpy
    rejects a row, a row's width is not in `widths` or a coordinate is not finite."""
    if not rows:        # np.loadtxt warns on empty input
        return None
    # one width (x y z first): numpy rejects a row unlike the first; else the
    # last column of the least width makes it reject a shorter row
    usecols = None if len(widths) == 1 else (*cols, widths.start - 1)
    try:
        pts = np.loadtxt(rows, dtype=float, comments=None, usecols=usecols, ndmin=2)
    except ValueError:
        return None
    width = widths.start if usecols is None else len(usecols)
    if pts.shape != (len(rows), width) or not np.isfinite(pts[:, :3]).all():
        return None
    return np.ascontiguousarray(pts[:, :3])


def _parse_rows(rows, cols, widths, short):
    """Columns `cols` of the `_Line`s `rows` as an (n, 3) float64 array, by
    Python's float().  Rows are checked in file order, each for its width,
    then its numbers, then their finiteness, so a ParseError names the first
    faulty row."""
    out = []
    for row in rows:
        values = row.split()
        if len(values) not in widths:
            raise ParseError(row.no, short(len(values)))
        try:
            xyz = [float(values[c]) for c in cols]
        except ValueError as exc:
            raise ParseError(row.no, f"bad number: {exc}") from None
        if not all(map(math.isfinite, xyz)):
            raise ParseError(row.no, "non-finite coordinate")
        out.append(xyz)
    return np.array(out, dtype=float).reshape(-1, 3)


def _parse_ply(lines):
    if not lines or lines[0].strip() != "ply":
        raise ParseError(1, "not a PLY file (missing 'ply' magic)")
    n_vertices = None
    n_before = 0   # data rows of the elements declared before the vertex element
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
            if line.split()[1:2] == ["list"]:     # its rows hold a count, then that many values
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
    n_props = len(vertex_props)
    pts = _read_rows(lines, lambda stripped: [s for s in islice(stripped, data_start, None)
                                              if s][n_before:n_before + n_vertices],
                     cols, range(n_props, sys.maxsize),
                     lambda n: f"expected {n_props} vertex values, got {n}")
    if len(pts) < n_vertices:
        raise ParseError(len(lines), f"vertex element promised {n_vertices} rows, found {len(pts)}")
    return pts


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
    # before any draw: the samplers weigh their faces by these areas
    if not math.isfinite(_surface_area(kind, dims)):
        raise BadDimension(f"{kind}: the surface area of {dims} overflows")
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


def _surface_area(kind, dims):
    """The summed face areas that the kind's sampler weighs by, from Python
    floats, whose products overflow to inf without a warning."""
    if kind == "sphere":
        return 4.0 * math.pi * dims[0] * dims[0]
    if kind == "cylinder":
        return 2.0 * math.pi * dims[0] * dims[1] + 2.0 * math.pi * dims[0] * dims[0]
    if kind in ("box", "plate"):
        return _box_area(np.array(dims) / 2.0)
    boxes = _dumbbell_boxes(*dims) if kind == "dumbbell" else _lshape_boxes(*dims)
    return sum(_box_area(half) for _, half in boxes)


def _box_area(half):
    a, b, c = half.tolist()
    return 8.0 * (a * b + a * c + b * c)


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
    areas = np.array([_box_area(half) for _, half in boxes])
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
    """Write a JSON result document atomically (temp file + rename), as one
    line of compact JSON and a newline.  The file gets mode 0o666 less the
    umask, as a plain `open` would give it."""
    text = json.dumps(payload)    # the C encoder; json.dump always takes the Python one
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".pregrasp-{os.urandom(8).hex()}.json")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    logger.info("wrote %s", path)


def _not_json(constant):
    """Reject a NaN, Infinity or -Infinity, which Python's json reads and JSON lacks."""
    raise ParseError(None, f"{constant} is not a JSON value")


# A JSON string, or (group 1) one of those constants: outside strings, JSON
# text holds no other letters that spell them.
_STRING_OR_CONSTANT = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|(-?Infinity|NaN)')


def load_results(path):
    """A run document read back from its JSON file.

    Raises:
        ParseError: the file is not valid UTF-8 JSON (on the decoder's line
            and column, or a NaN's or an Infinity's), or its top level is not
            an object (on the line where it starts).
    """
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, parse_constant=_not_json)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"invalid JSON at column {exc.colno}: {exc.msg}") from None
    except ParseError as exc:   # the decoder read all before it: the first outside a string
        at = next(m for m in _STRING_OR_CONSTANT.finditer(text) if m.group(1)).start()
        column = at - text.rfind("\n", 0, at)
        raise ParseError(text.count("\n", 0, at) + 1,
                         f"invalid JSON at column {column}: {exc.reason}") from None
    if not isinstance(doc, dict):
        line = text[:len(text) - len(text.lstrip())].count("\n") + 1
        raise ParseError(line, f"a run document is a JSON object, not {type(doc).__name__}")
    return doc
