"""End-to-end tests of the command-line interface.

Commands run in-process through cli.main(argv) for speed; one test drives the
installed console script to confirm the packaging entry point.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import pregrasp
from pregrasp import pipeline
from pregrasp.cli import build_parser, main, validate_pipeline_args
from pregrasp.decomposition import DecompParams
from pregrasp.errors import ConfigError, check_params
from pregrasp.pipeline import RunConfig, run_pipeline
from pregrasp.pointcloud import load_cloud, synth_shape

RANK_KEYS = {"config", "cloud", "tree", "classifications", "masks", "pool",
             "ranking", "best_index", "timings_ms"}


@pytest.fixture()
def sphere_xyz(tmp_path):
    path = tmp_path / "sphere.xyz"
    assert main(["synth", "sphere", "--r", "0.04", "--n", "1200",
                 "--seed", "2", "--out", str(path)]) == 0
    return path


def run_stage(stage, cloud_path, out_path, *extra):
    argv = [stage, "--input", str(cloud_path), "--out", str(out_path), *extra]
    return main(argv)


def strip_timings(text):
    return re.sub(r'"timings_ms": \{[^}]*\}', '"timings_ms": {}', text)


def subparser(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def float_flags(command):
    """The float-valued flags of a subcommand, from the parser itself."""
    return [a.option_strings[0] for a in subparser(command)._actions if a.type is float]


# ===========================================================================
# synth
# ===========================================================================

def test_synth_writes_header_and_roundtrips(sphere_xyz):
    lines = sphere_xyz.read_text().splitlines()
    assert lines[0] == "# synth sphere n=1200 seed=2"
    assert len(lines) == 1201
    cloud = load_cloud(str(sphere_xyz))
    assert cloud.points.shape == (1200, 3)
    radii = np.linalg.norm(cloud.points, axis=1)
    assert np.allclose(radii, 0.04, atol=1e-6)


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
    for path in (a, b):
        assert main(["synth", "box", "--n", "500", "--seed", "9",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_rejects_bad_flags(tmp_path, capsys):
    assert main(["synth", "box", "--n", "3",
                 "--out", str(tmp_path / "x.xyz")]) == 2
    assert "--n" in capsys.readouterr().err
    assert main(["synth", "box", "--dx", "-1.0",
                 "--out", str(tmp_path / "x.xyz")]) == 2
    assert "--dx" in capsys.readouterr().err
    assert main(["synth", "sphere", "--seed", "-1",
                 "--out", str(tmp_path / "x.xyz")]) == 2
    assert "--seed" in capsys.readouterr().err
    # the default ends (0.08 + 0.03) leave no room for a neck
    assert main(["synth", "dumbbell", "--length", "0.1",
                 "--out", str(tmp_path / "x.xyz")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --length: must be > end_a + end_b = 0.11, got 0.1"]
    assert not (tmp_path / "x.xyz").exists()


@pytest.mark.parametrize("flags", [["box", "--dx", "1e308", "--dy", "1e308"],
                                   ["cylinder", "--r", "1e300", "--length", "1e300"]])
def test_synth_overflowing_surface_area_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "x.xyz"
    assert main(["synth", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flags[0]}: the surface area of")
    assert not out.exists()

@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_float_flags_exit_2(sphere_xyz, tmp_path, capsys, value):
    stage_flags, synth_flags = float_flags("rank"), float_flags("synth")
    assert {"--standoff", "--tube-radius"} <= set(stage_flags) and "--r" in synth_flags
    for flag in stage_flags:
        assert run_stage("rank", sphere_xyz, tmp_path / "x.json", flag, value) == 2, flag
        assert f"error: {flag}: must be finite" in capsys.readouterr().err
    for flag in synth_flags:   # also a flag the kind does not use
        assert main(["synth", "sphere", flag, value, "--out", str(tmp_path / "x.xyz")]) == 2
        assert f"error: {flag}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "x.xyz").exists()


# ===========================================================================
# pipeline stages
# ===========================================================================

def test_stage_documents_nest(sphere_xyz, tmp_path):
    """Each stage's document carries exactly its stages' sections, and the
    shared sections agree across stages."""
    expected = {
        "decompose": {"config", "cloud", "tree", "timings_ms"},
        "classify": {"config", "cloud", "tree", "classifications", "timings_ms"},
        "mask": {"config", "cloud", "tree", "classifications", "masks",
                 "timings_ms"},
        "sample": {"config", "cloud", "tree", "classifications", "masks",
                   "pool", "timings_ms"},
        "rank": RANK_KEYS,
    }
    docs = {}
    for stage, keys in expected.items():
        out = tmp_path / f"{stage}.json"
        assert run_stage(stage, sphere_xyz, out) == 0
        docs[stage] = json.loads(out.read_text())
        assert set(docs[stage]) == keys, stage
    for stage in ("classify", "mask", "sample", "rank"):
        assert docs[stage]["tree"] == docs["decompose"]["tree"]
    assert docs["rank"]["classifications"] == docs["classify"]["classifications"]
    assert docs["rank"]["pool"] == docs["sample"]["pool"]


def test_rank_document_contents(sphere_xyz, tmp_path):
    out = tmp_path / "rank.json"
    assert run_stage("rank", sphere_xyz, out) == 0
    doc = json.loads(out.read_text())
    assert doc["cloud"]["point_count"] == 1200
    assert {name for name, value in doc["config"].items() if isinstance(value, dict)} == {
        "decomposition", "thresholds", "gripper", "sampling"}
    assert doc["config"]["gripper"]["tube_radius"] == 0.005
    assert len(doc["tree"]["nodes"]) >= 1
    assert doc["pool"], "sphere should yield samples"
    ranking = doc["ranking"]
    assert len(ranking) == len(doc["pool"])
    qualities = [r["quality"] for r in ranking]
    assert qualities == sorted(qualities, reverse=True)
    assert doc["best_index"] == ranking[0]["pool_index"]
    assert set(doc["timings_ms"]) == {"decompose", "classify", "mask",
                                      "sample", "rank"}
    for entry in ranking:
        assert len(entry["contacts"]) == entry["contact_count"]


def test_rank_byte_deterministic(sphere_xyz, tmp_path):
    """Re-running the same invocation reproduces the document byte-for-byte
    apart from the timing block."""
    out = tmp_path / "run.json"
    assert run_stage("rank", sphere_xyz, out) == 0
    first = strip_timings(out.read_text())
    assert run_stage("rank", sphere_xyz, out) == 0
    second = strip_timings(out.read_text())
    assert first == second


# At least one violating value per bounded run parameter: (section, field,
# flag, value).  Before the library checked its parameters, run_pipeline on a
# 3k dumbbell raised OverflowError for standoff=inf, ZeroDivisionError for
# axial_step=0 and ValueError (NaN to integer) for angular_step=nan, and it
# planned with volume_ratio=nan (11 nodes instead of 5) and max_aperture=-1
# (an empty pool).
BAD_PARAMS = [
    ("decomposition", "volume_ratio", "--volume-ratio", "nan"),
    ("decomposition", "volume_ratio", "--volume-ratio", "1.5"),
    ("decomposition", "min_points", "--min-points", "3"),
    ("thresholds", "tau_long", "--tau-long", "1.0"),
    ("thresholds", "tau_flat", "--tau-flat", "0.5"),
    ("thresholds", "s_small", "--s-small", "0.0"),
    ("gripper", "finger_length", "--finger-length", "0.0"),
    ("gripper", "max_aperture", "--aperture", "-1.0"),
    ("gripper", "standoff", "--standoff", "inf"),
    ("gripper", "friction_mu", "--mu", "-0.1"),
    ("gripper", "tube_radius", "--tube-radius", "0"),
    ("sampling", "angular_step", "--angular-step", "nan"),
    ("sampling", "angular_step", "--angular-step", "200"),
    ("sampling", "axial_step", "--axial-step", "0.0"),
]


def test_every_bounded_field_has_a_bad_value():
    cfg = RunConfig()
    bounded = {(section.name, name) for section in fields(cfg)
               for name in getattr(getattr(cfg, section.name), "BOUNDS", ())}
    assert bounded == {(section, name) for section, name, _, _ in BAD_PARAMS}


def test_every_run_parameter_is_bounded():
    """Every field of every parameter section has a bound, so it has a stage
    flag and a check."""
    for section in fields(RunConfig()):
        if is_dataclass(section.type):
            assert {f.name for f in fields(section.type)} == set(section.type.BOUNDS), section.name


# The plane count of the split screen, the friction cone's edge count and the
# quality's direction count are module constants, not run parameters.
@pytest.mark.parametrize("flag,value", [
    ("--planes-per-axis", "16"), ("--cone-edges", "8"), ("--quality-dirs", "1024")])
def test_retired_flags_exit_2(flag, value, sphere_xyz, tmp_path, capsys):
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as stop:
        run_stage("rank", sphere_xyz, out, flag, value)
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


# min_points is the one integer run parameter: a fraction, an integral float
# and a fraction below its bound all fail the kind check first.
@pytest.mark.parametrize("section,name,value", [
    ("decomposition", "min_points", 400.5), ("decomposition", "min_points", 500.0),
    ("decomposition", "min_points", 2.5)])
def test_run_pipeline_rejects_non_integer_counts(section, name, value):
    cfg = RunConfig()
    setattr(getattr(cfg, section), name, value)
    cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 3000, seed=0)
    with pytest.raises(ConfigError, match="must be an integer") as exc:
        run_pipeline(cloud, cfg)
    assert exc.value.field == f"{section}.{name}"


def test_numpy_integers_pass_the_integer_check():
    check_params(DecompParams(min_points=np.int64(500)), str)
    check_params(DecompParams(min_points=np.int32(16)), str)
    check_params(DecompParams(volume_ratio=np.float32(0.5)), str)
    check_params(DecompParams(volume_ratio=1), str)


# Values of the wrong kind: (section, field, flag, value, flag text).  Before
# check_params tested the kind, volume_ratio="0.5" and standoff=None raised
# TypeError from the bound comparison, and a bool passed the integer check.
WRONG_KIND = [
    ("decomposition", "volume_ratio", "--volume-ratio", "0.5", "half"),
    ("gripper", "standoff", "--standoff", None, "None"),
    ("decomposition", "min_points", "--min-points", True, "True"),
    ("gripper", "friction_mu", "--mu", True, "True"),
]


@pytest.mark.parametrize("section,name,flag,value,text", WRONG_KIND,
                         ids=[f"{s}.{n}={v!r}" for s, n, _, v, _ in WRONG_KIND])
def test_wrong_kind_values_are_config_errors(section, name, flag, value, text, sphere_xyz,
                                             tmp_path, capsys, monkeypatch):
    """A non-number in a float field and a bool in an int or float field are
    ConfigErrors through check_params, run_pipeline and the CLI's check, and
    the CLI's parser rejects their text with exit 2."""
    kind = "an integer" if name == "min_points" else "a number"
    cfg = RunConfig()
    setattr(getattr(cfg, section), name, value)
    with pytest.raises(ConfigError, match=f"must be {kind}, got {value!r}") as exc:
        check_params(getattr(cfg, section), str)
    assert exc.value.field == name

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the config was checked")

    monkeypatch.setattr(pipeline, "decompose", no_stage)
    cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 3000, seed=0)
    with pytest.raises(ConfigError) as exc:
        run_pipeline(cloud, cfg)
    assert exc.value.field == f"{section}.{name}"

    ns = build_parser().parse_args(["rank", "--input", "x.xyz"])
    setattr(ns, flag[2:].replace("-", "_"), value)
    with pytest.raises(ConfigError) as exc:
        validate_pipeline_args(ns)
    assert exc.value.field == flag

    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as stop:
        run_stage("rank", sphere_xyz, out, flag, text)
    assert stop.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section,name,flag,value", BAD_PARAMS,
                         ids=[f"{s}.{n}={v}" for s, n, _, v in BAD_PARAMS])
def test_pipeline_flag_validation(section, name, flag, value, sphere_xyz, tmp_path, capsys,
                                  monkeypatch):
    """A bad value exits 2 through the CLI, naming the flag, and raises
    ConfigError through run_pipeline, naming `section.field`, before any stage."""
    out = tmp_path / "x.json"
    assert run_stage("rank", sphere_xyz, out, flag, value) == 2
    assert f"error: {flag}: must be " in capsys.readouterr().err
    assert not out.exists()

    cfg = RunConfig()
    params = getattr(cfg, section)
    setattr(params, name, type(getattr(params, name))(float(value)))

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the config was checked")

    monkeypatch.setattr(pipeline, "decompose", no_stage)
    cloud = synth_shape("dumbbell", (0.2, 0.08, 0.03, 0.015), 3000, seed=0)
    with pytest.raises(ValueError) as exc:
        run_pipeline(cloud, cfg)
    assert isinstance(exc.value, ConfigError)
    assert exc.value.field == f"{section}.{name}"
    assert str(exc.value).startswith(f"{section}.{name}: must be ")


def test_bounds_admit_their_closed_edges():
    edges = {"--volume-ratio": 1.0, "--min-points": 4, "--standoff": 0.0, "--mu": 0.0,
             "--angular-step": 180.0}
    argv = ["rank", "--input", "x.xyz"]
    for flag, value in edges.items():
        argv += [flag, str(value)]
    cfg = validate_pipeline_args(build_parser().parse_args(argv))
    assert (cfg.decomposition.volume_ratio, cfg.decomposition.min_points,
            cfg.gripper.standoff, cfg.gripper.friction_mu,
            cfg.sampling.angular_step) == (1.0, 4, 0.0, 0.0, 180.0)


def test_readme_defaults_match_parser():
    """The defaults README's "Key knobs and defaults" sentence quotes are the
    rank command's defaults, which come from the parameter dataclasses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Key knobs and defaults:")[1].split(".\n")[0]
    pairs = re.findall(r"`(--[a-z-]+) ([^`]+)`", sentence)
    assert len(pairs) >= 10
    defaults = {a.option_strings[0]: a.default for a in subparser("rank")._actions
                if a.option_strings}
    for flag, value in pairs:
        assert flag in defaults, flag
        assert float(value) == defaults[flag], flag


def test_missing_input_is_runtime_error(tmp_path, capsys):
    code = run_stage("decompose", tmp_path / "nope.xyz", tmp_path / "x.json")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unknown_extension_is_runtime_error(tmp_path, capsys):
    """An extension that names no format exits 1 with one error line that
    names the file and no line number, and writes no document."""
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("0 0 0\n0.01 0 0\n0 0.01 0\n0 0 0.01\n")
    out = tmp_path / "x.json"
    assert run_stage("decompose", cloud, out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cloud}: unknown format 'txt' (expected xyz, ply or obj)"], err
    assert "line 0" not in err[0]
    assert not out.exists()


@pytest.mark.parametrize("stage", ["classify", "rank"])
def test_overflowing_covariance_is_runtime_error(stage, tmp_path, capsys):
    """A point at x = 1e200 m overflows the root's covariance: the stage
    exits 1 with one error line that names the overflow, and writes no
    document (it used to write NaN eigenvalues, or die with a traceback)."""
    cloud = tmp_path / "far.xyz"
    cloud.write_text("0 0 0\n0.01 0 0\n0 0.01 0\n0 0 0.01\n1e200 0 0\n")
    out = tmp_path / "x.json"
    assert run_stage(stage, cloud, out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "overflows" in err[0]
    assert not out.exists()


def test_far_point_station_count_is_runtime_error(tmp_path, capsys):
    """A point at x = 1e12 m makes the root a Cylindrical node 1e12 m long:
    `rank` exits 1 with one error line that names the node's length and
    axial_step, and writes no document (it used to die with a MemoryError
    traceback, asking for 5e13 axial stations)."""
    cloud = tmp_path / "far.xyz"
    cloud.write_text("0 0 0\n0.01 0 0\n0 0.01 0\n0 0 0.01\n1e12 0 0\n")
    out = tmp_path / "x.json"
    assert run_stage("rank", cloud, out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "length 1e+12 m" in err[0] and "axial_step 0.02 m" in err[0], err[0]
    assert not out.exists()


def test_angular_step_beyond_the_direction_bound_is_runtime_error(sphere_xyz, tmp_path, capsys):
    """At a 0.001 degree step the sphere's lat-lon table would hold 6.5e10
    directions: `sample` exits 1 with one error line that names
    angular_step, and writes no document (at 0.01 degrees it used to die
    with a MemoryError traceback, asking for 4.83 GiB at once)."""
    out = tmp_path / "x.json"
    assert run_stage("sample", sphere_xyz, out, "--angular-step", "0.001") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "angular_step 0.001 degrees" in err[0], err[0]
    assert not out.exists()


def test_invalid_log_level_env(sphere_xyz, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PREGRASP_LOG", "chatty")
    assert run_stage("decompose", sphere_xyz, tmp_path / "x.json") == 2
    assert "PREGRASP_LOG" in capsys.readouterr().err


# ===========================================================================
# export-viz
# ===========================================================================

def obj_stats(path):
    text = path.read_text().splitlines()
    return {
        "v": sum(1 for l in text if l.startswith("v ")),
        "l": sum(1 for l in text if l.startswith("l ")),
        "groups": [l[2:] for l in text if l.startswith("g ")],
    }


def test_export_viz_wireframe_counts(sphere_xyz, tmp_path):
    doc_path = tmp_path / "rank.json"
    assert run_stage("rank", sphere_xyz, doc_path) == 0
    doc = json.loads(doc_path.read_text())
    n_boxes, n_poses = len(doc["tree"]["nodes"]), len(doc["pool"])

    obj = tmp_path / "scene.obj"
    assert main(["export-viz", "--input", str(doc_path), "--out", str(obj),
                 "--top-k", "3"]) == 0
    stats = obj_stats(obj)
    assert stats["v"] == 8 * n_boxes + 4 * n_poses
    assert stats["l"] == 12 * n_boxes + 3 * n_poses
    assert stats["groups"].count("best") == 1
    assert stats["groups"].count("best_2") == 1
    assert stats["groups"].count("best_3") == 1
    for node in doc["tree"]["nodes"]:
        assert f"box_{node['id']}" in stats["groups"]
    # the best group marks the top-ranked pose, others keep their pool tag
    tagged = [g for g in stats["groups"] if g.startswith(("best", "grasp_"))]
    assert len(tagged) == n_poses


def test_export_viz_on_tree_only_document(sphere_xyz, tmp_path):
    doc_path = tmp_path / "decompose.json"
    assert run_stage("decompose", sphere_xyz, doc_path) == 0
    obj = tmp_path / "tree.obj"
    assert main(["export-viz", "--input", str(doc_path), "--out", str(obj)]) == 0
    stats = obj_stats(obj)
    n_boxes = len(json.loads(doc_path.read_text())["tree"]["nodes"])
    assert stats["v"] == 8 * n_boxes
    assert stats["l"] == 12 * n_boxes
    assert all(g.startswith("box_") for g in stats["groups"])


def test_export_viz_rejects_bad_top_k(sphere_xyz, tmp_path, capsys):
    doc_path = tmp_path / "rank.json"
    assert run_stage("rank", sphere_xyz, doc_path) == 0
    assert main(["export-viz", "--input", str(doc_path),
                 "--out", str(tmp_path / "s.obj"), "--top-k", "0"]) == 2
    assert "--top-k" in capsys.readouterr().err


# A one-line document, as `save_results` writes one, with an "@" in its middle.
ONE_LINE = json.dumps({"lambdas": list(range(1000))}).replace(", 500,", ", @00,").encode()


@pytest.mark.parametrize("data, line, reason", [
    pytest.param(b'{"tree": {"nodes": [\n', 2, "invalid JSON at column 1: Expecting value",
                 id="truncated-document"),
    pytest.param(b"\n[1, 2]\n", 2, "a run document is a JSON object, not list",
                 id="top-level-list"),
    pytest.param(b"\xff\xfe{}", 1, "invalid JSON at column 1: Expecting value",
                 id="utf16-byte-order-mark"),
    pytest.param(b'{"pool": [{"position": [0, 0,\n NaN], "approach": [1, 0, 0], '
                 b'"closing_dir": [0, 1, 0]}]}',
                 2, "invalid JSON at column 2: NaN is not a JSON value", id="bare-nan"),
    pytest.param(b'{"note": "-Infinity \\" NaN",\n\n "lambdas": [-Infinity]}', 3,
                 "invalid JSON at column 14: -Infinity is not a JSON value",
                 id="bare-infinity-after-quoted-one"),
    pytest.param(ONE_LINE, 1, f"invalid JSON at column {ONE_LINE.index(b'@') + 1}: Expecting value",
                 id="one-line-document"),
])
def test_export_viz_rejects_a_bad_document(tmp_path, capsys, data, line, reason):
    doc_path, obj = tmp_path / "bad.json", tmp_path / "scene.obj"
    doc_path.write_bytes(data)
    assert main(["export-viz", "--input", str(doc_path), "--out", str(obj)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: line {line}: {reason}"]
    assert not obj.exists()


@pytest.mark.parametrize("doc, reason", [
    ({"tree": 5}, "AttributeError: 'int' object has no attribute 'get'"),
    ({"tree": {"nodes": [{"id": 0}]}}, "KeyError: 'box'"),
    ({"ranking": 3}, "TypeError: 'int' object is not subscriptable"),
    ({"pool": [{"position": [0, 0], "approach": [1, 0], "closing_dir": [0, 1]}]},
     "ValueError: pool entry 0: position, approach and closing_dir need 3 components each"),
    ({"pool": [{"position": [0, 0, 0], "approach": [1, 0, 0], "closing_dir": [0, 1, 0, 0]}]},
     "ValueError: pool entry 0: position, approach and closing_dir need 3 components each"),
], ids=["tree-not-an-object", "node-without-box", "ranking-not-a-list", "pool-2d-vectors",
        "pool-4d-closing"])
def test_export_viz_rejects_a_malformed_run_document(tmp_path, capsys, doc, reason):
    doc_path, obj = tmp_path / "bad.json", tmp_path / "scene.obj"
    doc_path.write_text(json.dumps(doc))
    assert main(["export-viz", "--input", str(doc_path), "--out", str(obj)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {doc_path}: not a run document: {reason}"]
    assert not obj.exists()


# ===========================================================================
# packaging entry point
# ===========================================================================

def test_console_script_runs(tmp_path):
    out = tmp_path / "c.xyz"
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(pregrasp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "pregrasp.cli", "synth", "box", "--n", "100",
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(out)
    assert out.exists()
