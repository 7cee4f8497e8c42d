"""Command-line front end.

Subcommands decompose / classify / mask / sample / rank each run the pipeline
from the raw cloud up to the named stage and write one JSON run document, so a
later stage's document is a strict superset of an earlier one.  synth writes
procedural test clouds as XYZ text, export-viz turns a run document into a
wireframe OBJ (boxes as 12-edge frames, pre-grasps as 3-segment triads, the
top ranked pose in group "best").

Exit codes: 0 success, 1 runtime failure (I/O, parse, degenerate data),
2 invalid configuration (the offending flag is named on stderr).
"""

import argparse
import logging
import os
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from .decomposition import OrientedBox
from .errors import ConfigError, PreGraspError, check_params
from .pipeline import STAGES, RunConfig, run_pipeline
from .pointcloud import MIN_POINTS, SYNTH_KINDS, load_cloud, load_results, save_results, synth_shape

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

# corner pairs (indices into OrientedBox.corners()) forming the 12 box edges
_BOX_EDGES = ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
              (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7))

# RunConfig's parameter dataclasses; a stage flag's dest is its field or _DEST entry
_SECTIONS = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}
_DEST = {"max_aperture": "aperture", "friction_mu": "mu"}

def _flag(field):
    return "--" + _DEST.get(field, field).replace("_", "-")

def build_parser():
    parser = argparse.ArgumentParser(
        prog="pregrasp",
        description="Decompose a point cloud into boxes and rank three-finger pre-grasps.")
    sub = parser.add_subparsers(dest="command", required=True)

    pipe = argparse.ArgumentParser(add_help=False)
    pipe.add_argument("--input", required=True, help="point cloud file")
    pipe.add_argument("--format", choices=("xyz", "ply", "obj"), default=None,
                      help="input format (default: from extension)")
    pipe.add_argument("--out", default="run.json", help="output JSON document")
    for params in _SECTIONS.values():   # one flag per bounded run parameter
        for f in fields(params):
            if f.name in params.BOUNDS:
                pipe.add_argument(_flag(f.name), type=f.type, default=f.default)
    for stage in STAGES:
        sub.add_parser(stage, parents=[pipe],
                       help=f"run the pipeline through the {stage} stage")

    synth = sub.add_parser("synth", help="generate a procedural point cloud")
    synth.add_argument("kind", choices=sorted(SYNTH_KINDS))
    synth.add_argument("--n", type=int, default=5000, help="number of surface points")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", default="cloud.xyz")
    # each dimension once, in order of first use; unset means the kind's default
    for name in dict.fromkeys(name for dims in SYNTH_KINDS.values() for name in dims):
        synth.add_argument("--" + name.replace("_", "-"), type=float, default=None)

    viz = sub.add_parser("export-viz", help="write a wireframe OBJ of a run document")
    viz.add_argument("--input", required=True, help="run document (JSON)")
    viz.add_argument("--out", default="scene.obj")
    viz.add_argument("--top-k", type=int, default=1,
                     help="how many ranked poses to tag as best groups")
    return parser


# ---------------------------------------------------------------------------
# validation (exit code 2); every message names the offending flag
# ---------------------------------------------------------------------------

def _check(cond, flag, requirement, value):
    if not cond:
        raise ConfigError(flag, f"must be {requirement}, got {value}")

def _check_finite(ns):
    for name, value in vars(ns).items():
        if isinstance(value, float):
            _check(np.isfinite(value), "--" + name.replace("_", "-"), "finite", value)

def validate_pipeline_args(ns):
    """A stage command's RunConfig; ConfigError names its first bad flag."""
    sections = {name: params(**{f: getattr(ns, _DEST.get(f, f)) for f in params.BOUNDS})
                for name, params in _SECTIONS.items()}
    for params in sections.values():
        check_params(params, _flag)
    return RunConfig(ns.input, ns.format, ns.out, **sections)

def validate_synth_args(ns):
    _check_finite(ns)
    _check(ns.n >= MIN_POINTS, "--n", f">= {MIN_POINTS}", ns.n)
    _check(ns.seed >= 0, "--seed", ">= 0", ns.seed)
    dims = dict(zip(SYNTH_KINDS[ns.kind], _synth_dims(ns)))   # the defaults pass
    for name, value in dims.items():
        _check(value > 0.0, "--" + name.replace("_", "-"), "> 0", value)
    if ns.kind == "dumbbell":     # the ends must leave room for the neck
        ends = dims["end_a"] + dims["end_b"]
        _check(dims["length"] > ends, "--length", f"> end_a + end_b = {ends}", dims["length"])


def _synth_dims(ns):
    return tuple(default if getattr(ns, name) is None else getattr(ns, name)
                 for name, default in SYNTH_KINDS[ns.kind].items())


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_stage(ns, cfg):
    cloud = load_cloud(ns.input, ns.format)
    doc = run_pipeline(cloud, cfg, upto=ns.command)
    save_results(ns.out, doc)
    print(ns.out)

def _cmd_synth(ns):
    cloud = synth_shape(ns.kind, _synth_dims(ns), ns.n, ns.seed)
    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write(f"# synth {ns.kind} n={ns.n} seed={ns.seed}\n")
        for x, y, z in cloud.points:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")
    logger.info("wrote %d points to %s", len(cloud.points), ns.out)
    print(ns.out)

def _cmd_export_viz(ns):
    _check(ns.top_k >= 1, "--top-k", ">= 1", ns.top_k)
    doc = load_results(ns.input)
    try:
        lines = ["# pregrasp scene export"]
        n_verts = 0

        for node in doc.get("tree", {}).get("nodes", ()):
            box = OrientedBox.from_dict(node["box"])
            lines.append(f"g box_{node['id']}")
            for corner in box.corners():
                lines.append("v " + " ".join(f"{v:.6f}" for v in corner))
            for a, b in _BOX_EDGES:
                lines.append(f"l {n_verts + a + 1} {n_verts + b + 1}")
            n_verts += 8

        best_rank = {}      # pool index -> 1-based rank among the displayed top-k
        ranking = doc.get("ranking", ())
        for r, entry in enumerate(ranking[:ns.top_k], start=1):
            best_rank.setdefault(entry["pool_index"], r)

        for i, pg in enumerate(doc.get("pool", ())):
            rank = best_rank.get(i)
            if rank == 1:
                lines.append("g best")
            elif rank is not None:
                lines.append(f"g best_{rank}")
            else:
                lines.append(f"g grasp_{i}")
            pos, approach, closing = (np.asarray(pg[k], dtype=float)
                                      for k in ("position", "approach", "closing_dir"))
            if not pos.shape == approach.shape == closing.shape == (3,):
                raise ValueError(f"pool entry {i}: position, approach and closing_dir "
                                 "need 3 components each")
            third = np.cross(approach, closing)
            for point in (pos, pos + 0.03 * approach, pos + 0.02 * closing,
                          pos + 0.02 * third):
                lines.append("v " + " ".join(f"{v:.6f}" for v in point))
            for end in (2, 3, 4):
                lines.append(f"l {n_verts + 1} {n_verts + end}")
            n_verts += 4
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise PreGraspError(f"{ns.input}: not a run document: {type(exc).__name__}: {exc}")

    with open(ns.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    logger.info("wrote OBJ scene to %s", ns.out)
    print(ns.out)


# ---------------------------------------------------------------------------

def main(argv=None):
    ns = build_parser().parse_args(argv)

    log_name = os.environ.get("PREGRASP_LOG", "quiet")
    if log_name not in _LOG_LEVELS:
        print(f"error: PREGRASP_LOG must be one of {', '.join(_LOG_LEVELS)}, "
              f"got {log_name!r}", file=sys.stderr)
        return 2
    logging.basicConfig(stream=sys.stderr, level=_LOG_LEVELS[log_name],
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        if ns.command in STAGES:
            _cmd_stage(ns, validate_pipeline_args(ns))
        elif ns.command == "synth":
            validate_synth_args(ns)
            _cmd_synth(ns)
        else:
            _cmd_export_viz(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreGraspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
