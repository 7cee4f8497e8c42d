"""pregrasp benchmark: plan latency and throughput, with layer timings from outside.

Plans synthetic clouds in a single-process closed loop (one client: the next
cloud starts when the previous plan returns) through the package's public API.

    python3 perfbench/run.py --workload large-scan --seed 1 --seconds 10 --trace 0

A run:
1. measures set-up (`import pregrasp` plus the first plan) in a few fresh
   processes and keeps the median (untraced runs only);
2. plans every cloud of the workload once as a warm-up, and checks each
   document against the planner's own tree;
3. plans whole rounds of the workload's clouds until `--seconds` of planning
   have passed, and checks each document, as soon as its plan returns and
   outside the timed span, against the warm-up document of the same cloud.

With `--trace 1` step 3 runs twice, for half of `--seconds` each: untraced,
then with timing wrappers on the layers (see layers.py).  The run prints a
report, then as its last line one JSON object with the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`).  Results, and the spans of
a traced run, are written under perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import checks
import layers
from workloads import WORKLOADS, cloud_seed, make_cloud, make_config, write_cloud

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
TAIL_ABOVE = 10          # samples that must lie above the reported tail percentile


def import_program():
    """Import pregrasp from this checkout's src/ and nowhere else."""
    package = SRC / "pregrasp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pregrasp
    if Path(pregrasp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: pregrasp was imported from {pregrasp.__file__}, not {package}")


# ---------------------------------------------------------------------------
# inputs and one plan
# ---------------------------------------------------------------------------

@dataclass
class Item:
    label: str
    points: int
    cfg: object
    cloud: object = None     # planned in memory when set
    path: str = ""           # otherwise loaded from this file


def prepare(workload, seed, workdir):
    """The workload's clouds; file-based clouds are written to `workdir`."""
    items = []
    for i, spec in enumerate(workload.clouds):
        cloud = make_cloud(spec, cloud_seed(seed, i))
        label = f"{i}:{spec.kind}-{spec.n}"
        if spec.fmt is None:
            items.append(Item(label, spec.n, make_config(workload), cloud=cloud))
            continue
        path = str(workdir / f"{i}-{spec.kind}.{spec.fmt}")
        write_cloud(cloud.points, path, spec.fmt)
        cfg = make_config(workload, path, str(workdir / f"{i}-{spec.kind}.run.json"))
        items.append(Item(label + "." + spec.fmt, spec.n, cfg, path=path))
    return items


def plan(item):
    """One plan: cloud (or file) in, ranked document out.  Returns (cloud, doc)."""
    from pregrasp import pipeline, pointcloud

    if not item.path:
        return item.cloud, pipeline.run_pipeline(item.cloud, item.cfg)
    cloud = pointcloud.load_cloud(item.path)
    doc = pipeline.run_pipeline(cloud, item.cfg)
    pointcloud.save_results(item.cfg.out, doc)
    return cloud, doc


# ---------------------------------------------------------------------------
# warm-up and measurement
# ---------------------------------------------------------------------------

def warm_up(items):
    """First plan of every cloud, fully checked.  Returns (references, problems):
    the timing-free document per item (None when it failed) and what failed."""
    refs, problems = [], []
    for item in items:
        trees = []
        try:
            with layers.capture_trees(trees):
                cloud, doc = plan(item)
        except Exception as exc:   # the run goes on; the failure is reported
            problems.append(f"{item.label} warm-up: {type(exc).__name__}: {exc}")
            refs.append(None)
            continue
        found = checks.check_tree(doc, trees[0], cloud.points) + \
            checks.check_ranking(doc, checks.point_set(cloud.points))
        problems += [f"{item.label} warm-up: {p}" for p in found]
        refs.append(None if found else checks.without_timings(doc))
    return refs, problems


@dataclass
class Window:
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)   # one message per failed plan
    rounds: int = 0
    wall_s: float = 0.0      # planning wall time; the checks between plans are left out


def check_plan(item, ref, doc):
    """Why a measured plan failed, or None: its document differs from the
    cloud's warm-up document, or (file clouds) the saved document does."""
    from pregrasp import load_results

    if ref is None:
        return "the warm-up plan of this cloud failed"
    if checks.without_timings(doc) != ref:
        return "document differs from the warm-up plan"
    if item.path and checks.without_timings(load_results(item.cfg.out)) != ref:
        return "saved document differs from the planned one"
    return None


def measure(items, refs, seconds, tracer=None):
    """Plan whole rounds of `items` until `seconds` of planning have passed (at
    least one round).  Each document is checked as soon as its plan returns,
    outside the timed span, and dropped, so the benchmark holds no more memory
    when more rounds fit."""
    w = Window()
    check_s = 0.0
    start = time.perf_counter()
    while w.rounds == 0 or time.perf_counter() - start - check_s < seconds:
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.begin(f"r{w.rounds}:{item.label}", item.points)
            t0 = time.perf_counter()
            try:
                doc, err = plan(item)[1], None
            except Exception as exc:   # counted as a failed plan
                doc, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            w.latencies.append(t1 - t0)
            if err is None:
                err = check_plan(item, refs[i], doc)
            if err is not None:
                w.failures.append(f"{item.label}: {err}")
            del doc
            check_s += time.perf_counter() - t1
        w.rounds += 1
    w.wall_s = time.perf_counter() - start - check_s
    return w


# ---------------------------------------------------------------------------
# set-up probes and environment
# ---------------------------------------------------------------------------

def setup_probes(workload, workdir):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    results = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(workdir)],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def blas_threads():
    """Thread count of numpy's OpenBLAS, read from the loaded library."""
    import ctypes
    import glob
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment(seed):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """(value, percentile, samples above): the highest nearest-rank percentile
    with at least TAIL_ABOVE samples above it.  Below 2 * TAIL_ABOVE samples
    no percentile at or above the median has that many, and the maximum of so
    few plans is mostly noise, so the median is reported."""
    s = sorted(latencies)
    n = len(s)
    if n < 2 * TAIL_ABOVE:
        return statistics.median(s), 50.0, n // 2
    rank = n - TAIL_ABOVE
    return s[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(window, probes):
    value, pct, above = tail(window.latencies)
    n = len(window.latencies)
    metrics = {
        "plan_s_p50": (statistics.median(window.latencies), "s"),
        "plan_s_tail": (value, "s"),
        "clouds_per_s": (n / window.wall_s, "1/s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "plan_s_p50": f"median of {n} plans",
        "plan_s_tail": f"p{pct:.4g} of {n} plans, {above} above it" + (
            f"; under {2 * TAIL_ABOVE} plans: the median, not a tail"
            if n < 2 * TAIL_ABOVE else ""),
        "clouds_per_s": f"{n} plans in {window.wall_s:.3f} s of wall time",
        "setup_s": f"median of {len(probes)} fresh processes: " +
                   ", ".join(f"{p['setup_s']:.4f}" for p in probes),
        "peak_rss_mb": "peak resident memory of this process",
    }
    return metrics, notes


def run(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload.name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        probes = [] if trace else setup_probes(workload, workdir)
        items = prepare(workload, seed, workdir)
        t0 = time.perf_counter()
        refs, warm_problems = warm_up(items)
        warm_up_s = time.perf_counter() - t0
        window = measure(items, refs, seconds / 2.0 if trace else seconds)
        windows = [window]
        if trace:
            tracer = layers.Tracer()
            with layers.traced(tracer):
                traced = measure(items, refs, seconds / 2.0, tracer)
            windows.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(w.latencies) for w in windows)
    failures = [f for w in windows for f in w.failures]
    failed = len(failures)
    problems = warm_problems + failures
    correct = not problems
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(seed),
        "loop": "closed, one client",
        "warm_up_s": warm_up_s,
        "rounds": [w.rounds for w in windows],
        "latencies_s": [w.latencies for w in windows],
        "digests": {item.label: (checks.digest(r) if r else None) for item, r in zip(items, refs)},
        "failed_frac": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "problems": problems,
    }
    if trace:
        metrics = layers.layer_metrics(tracer, traced.rounds)
        metrics["tracing.untraced_clouds_per_s"] = (len(window.latencies) / window.wall_s, "1/s")
        metrics["tracing.traced_clouds_per_s"] = (len(traced.latencies) / traced.wall_s, "1/s")
        metrics["tracing.traced_over_untraced"] = (
            metrics["tracing.traced_clouds_per_s"][0] / metrics["tracing.untraced_clouds_per_s"][0],
            "ratio")
        metrics["failed_frac"] = (failed / attempted, "ratio")
        metrics["plans.failed"] = (failed, "count")
        metrics["plans.attempted"] = (attempted, "count")
        notes = {}
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "trace_id"],
                       "spans": tracer.spans}, fh)
        result["spans_file"] = str(spans_path)
    else:
        metrics, notes = end_to_end(window, probes)
        result["setup_probes"] = probes
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(OUT / f"result-{workload.name}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    env = result["environment"]
    print(f"pregrasp benchmark: workload={workload.name} seed={seed} seconds={seconds} "
          f"trace={trace}; closed loop, one client")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"warm-up: {len(items)} clouds in {warm_up_s:.3f} s; measured rounds: "
          + ", ".join(str(w.rounds) for w in windows))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:42s} {value:14.6g} {unit}{note}")
    if not trace:
        print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ratio  ({failed} failed / "
              f"{attempted} attempted)")
    for p in problems:
        print(f"  FAILED {p}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": result["metrics"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    import_program()
    if ns.workload not in WORKLOADS:
        ap.error(f"unknown workload {ns.workload!r}; choose from {', '.join(WORKLOADS)}")
    summary = run(WORKLOADS[ns.workload], ns.seed, ns.seconds, ns.trace)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
