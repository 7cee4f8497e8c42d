"""Smoke test of the benchmark itself on tiny clouds.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import CloudSpec, Workload, cloud_seed, make_cloud  # noqa: E402

run.import_program()

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    "tiny",
    (CloudSpec("dumbbell", 1500), CloudSpec("sphere", 600),
     CloudSpec("lshape", 1500, "ply"), CloudSpec("box", 800, "xyz")),
    sampling=(20.0, 0.01),
)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "setup_probes", lambda *a: [
        {"import_s": 0.1, "first_plan_s": s, "setup_s": 0.1 + s} for s in (0.2, 0.3, 0.25)])
    return tmp_path


def test_untraced_run_reports_every_end_to_end_metric(out_dir):
    summary = run.run(TINY, seed=3, seconds=0, trace=0)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == len(TINY.clouds)
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(summary["metrics"]) == names
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert summary["metrics"]["setup_s"]["value"] == pytest.approx(0.35)
    assert not any(p.is_dir() for p in out_dir.iterdir()), "input files left behind"


def test_traced_run_reports_every_per_layer_metric(out_dir):
    from pregrasp import decomposition, pipeline

    original = (pipeline.run_pipeline, decomposition.fit_obb)
    summary = run.run(TINY, seed=3, seconds=0, trace=1)
    assert summary["correct"] and summary["failed"] == 0
    m = {k: v["value"] for k, v in summary["metrics"].items()}
    assert list(m) == [x["name"] for x in BENCHMARK["per_layer"]]
    assert (pipeline.run_pipeline, decomposition.fit_obb) == original, "wrappers left installed"
    assert m["decomposition.fit_obb.calls"] > m["decomposition.evaluate_split.calls"] > 0
    assert m["graspeval.estimate_contacts.calls"] == m["sampler.pool_size"] > 0
    assert m["graspeval.candidates_ranked"] == m["sampler.pool_size"]
    assert m["decomposition.split_yield"] == pytest.approx(
        m["decomposition.splits_accepted"] / m["decomposition.evaluate_split.calls"])
    assert m["pointcloud.load_cloud_s"] > 0 and m["pointcloud.load_cloud.mb_per_s"] > 0
    spans = json.loads((out_dir / "spans-tiny-seed3.json").read_text())["spans"]
    assert {s[0] for s in spans} >= {"pipeline.run_pipeline", "decomposition.fit_obb"}
    assert all(s[1] <= s[2] for s in spans)


def test_same_seed_gives_same_inputs():
    spec = CloudSpec("dumbbell", 500)
    a, b, c = (make_cloud(spec, cloud_seed(s, 0)).points for s in (5, 5, 6))
    assert (a == b).all() and not (a == c).all()


def test_checks_reject_broken_documents():
    from pregrasp import pipeline
    from workloads import make_config

    cloud = make_cloud(CloudSpec("dumbbell", 2000), 1)
    trees = []
    with layers.capture_trees(trees):
        doc = pipeline.run_pipeline(cloud, make_config(TINY))
    pts = checks.point_set(cloud.points)
    assert checks.check_tree(doc, trees[0], cloud.points) == []
    assert checks.check_ranking(doc, pts) == []
    assert len(doc["ranking"]) >= 2 and len(trees[0].nodes) >= 3

    broken = json.loads(json.dumps(doc))
    broken["tree"]["nodes"][1]["box"]["half_extents"] = [1e-4] * 3
    assert checks.check_tree(broken, trees[0], cloud.points)
    trees[0].nodes[1].point_indices = trees[0].nodes[1].point_indices[1:]
    assert any("partition" in p for p in checks.check_tree(doc, trees[0], cloud.points))

    broken = json.loads(json.dumps(doc))
    broken["ranking"].reverse()
    assert checks.check_ranking(broken, pts)
    broken = json.loads(json.dumps(doc))
    broken["best_index"] = broken["ranking"][1]["pool_index"]
    assert checks.check_ranking(broken, pts)
    broken = json.loads(json.dumps(doc))
    hit = next(c for c in broken["ranking"] if c["contacts"])
    hit["contacts"][0]["position"][0] += 1e-3
    assert checks.check_ranking(broken, pts)


def test_tail_is_a_stated_percentile():
    assert run.tail([3.0, 1.0, 2.0, 9.0]) == (2.5, 50.0, 2)
    value, pct, above = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct, above) == (30.0, 75.0, 10)


def test_setup_probe_runs_in_a_fresh_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "large-scan", str(tmp_path)],
        env={"PYTHONPATH": str(run.SRC), "PATH": ""}, capture_output=True, text=True,
        timeout=120, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["setup_s"] == pytest.approx(probe["import_s"] + probe["first_plan_s"])
    assert probe["import_s"] > 0 and probe["first_plan_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parts-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_measured_plans_are_checked_as_they_return(tmp_path):
    items = run.prepare(TINY, 3, tmp_path)
    refs, problems = run.warm_up(items)
    assert problems == []
    refs[1] = dict(refs[1], best_index=-1)
    window = run.measure(items, refs, 0)
    assert len(window.latencies) == len(items)
    assert window.failures == [f"{items[1].label}: document differs from the warm-up plan"]
