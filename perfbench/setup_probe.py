"""One set-up measurement in a fresh process: `import pregrasp` plus its first plan.

The first plan of a process pays lazy set-up (the quality-direction cache,
first-touch memory) that later plans do not.  `run.py` starts this script a few
times with PYTHONPATH set to the checkout's `src/` and reports the median.

Usage: python3 perfbench/setup_probe.py WORKLOAD WORKDIR
Prints one JSON line: {"import_s": ..., "first_plan_s": ..., "setup_s": ...}
"""

import time

T0 = time.perf_counter()
import pregrasp  # noqa: E402  (timed: numpy and the package import)
IMPORT_S = time.perf_counter() - T0

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from pregrasp import pipeline, pointcloud  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_KIND, PROBE_POINTS, PROBE_SEED, WORKLOADS, CloudSpec, make_cloud, make_config,
    write_cloud)


def main(workload_name, workdir):
    workload = WORKLOADS[workload_name]
    spec = CloudSpec(PROBE_KIND, PROBE_POINTS, workload.clouds[0].fmt)
    cloud = make_cloud(spec, PROBE_SEED)
    if spec.fmt:
        path = os.path.join(workdir, f"probe.{spec.fmt}")
        write_cloud(cloud.points, path, spec.fmt)
        cfg = make_config(workload, path, os.path.join(workdir, "probe.json"))
        t0 = time.perf_counter()
        doc = pipeline.run_pipeline(pointcloud.load_cloud(path), cfg)
        pointcloud.save_results(cfg.out, doc)
    else:
        cfg = make_config(workload)
        t0 = time.perf_counter()
        doc = pipeline.run_pipeline(cloud, cfg)
    first_plan_s = time.perf_counter() - t0
    if "ranking" not in doc:
        raise SystemExit("probe plan returned no ranking")
    print(json.dumps({"import_s": IMPORT_S, "first_plan_s": first_plan_s,
                      "setup_s": IMPORT_S + first_plan_s}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
