"""Layer timing from outside the planner.

Each layer is timed by replacing one of its public functions, in the module
where its caller looks the name up, with a wrapper that records a span.  The
wrappers are installed only for the traced part of a traced run and removed
afterwards, so untraced runs execute the unmodified program.

Spans stay in memory as (name, start, end, parent, trace id) and are written
out when the run ends.  A layer's self time is its span time minus the time of
its direct child spans.
"""

import contextlib
import importlib
import os
import time
from collections import Counter, defaultdict

# (module, attribute) pairs that get a timing wrapper, named "<module>.<attr>".
WRAPPED = (
    ("pipeline", "run_pipeline"),
    ("pipeline", "decompose"),
    ("pipeline", "pca"),
    ("pipeline", "classify"),
    ("pipeline", "compute_face_states"),
    ("pipeline", "generate_pool"),
    ("pipeline", "rank_pool"),
    ("decomposition", "fit_obb"),
    ("decomposition", "evaluate_split"),
    ("graspeval", "finger_rays"),
    ("graspeval", "estimate_contacts"),
    ("graspeval", "epsilon_quality"),
    ("facemask", "obb_overlap"),
    ("sampler", "select_nodes"),
    ("pointcloud", "load_cloud"),
    ("pointcloud", "save_results"),
)


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, trace id]
        self.counts = Counter()
        self.trace_id = ""
        self.cloud_points = 0    # points of the cloud being planned
        self._stack = []
        self._t0 = time.perf_counter()

    def begin(self, trace_id, cloud_points):
        self.trace_id, self.cloud_points = trace_id, cloud_points

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self._t0, None, parent, self.trace_id])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter() - self._t0

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_time[i]
        return out


def _count_result(tracer, name, args, result):
    """Counters read off a wrapped call's arguments and result."""
    c = tracer.counts
    if name == "decomposition.fit_obb":
        c["fit_obb.points"] += len(args[0])
    elif name == "pipeline.decompose":
        c["nodes"] += len(result.nodes)
        c["splits_accepted"] += (len(result.nodes) - 1) // 2
    elif name == "graspeval.finger_rays":
        c["rays_cast"] += len(result)
        c["ray_point_tests"] += len(result) * tracer.cloud_points
    elif name == "graspeval.estimate_contacts":
        c["contacts_found"] += len(result)
    elif name == "pipeline.rank_pool":
        c["candidates_ranked"] += len(result)
        c["quality_positive"] += sum(1 for cand in result if cand.quality > 0.0)
    elif name == "pipeline.generate_pool":
        c["pool_size"] += len(result)
    elif name == "sampler.select_nodes":
        c["selected_nodes"] += len(result)
    elif name == "pointcloud.load_cloud":
        c["load_bytes"] += os.path.getsize(args[0])


def _wrapper(tracer, name, fn, counted_errors):
    def wrapped(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except counted_errors as exc:
            tracer.counts[f"{name}.{type(exc).__name__}"] += 1
            raise
        finally:
            tracer.close()
        _count_result(tracer, name, args, result)
        return result
    wrapped.__wrapped__ = fn
    return wrapped


@contextlib.contextmanager
def traced(tracer):
    """Install the timing wrappers for the duration of the block."""
    import pregrasp

    counted = {
        "decomposition.evaluate_split": (pregrasp.EmptySide, pregrasp.DegenerateInput),
        "graspeval.estimate_contacts": (pregrasp.NoContacts,),
    }
    originals = []
    try:
        for mod_name, attr in WRAPPED:
            mod = importlib.import_module(f"pregrasp.{mod_name}")
            name = f"{mod_name}.{attr}"
            fn = getattr(mod, attr)
            originals.append((mod, attr, fn))
            setattr(mod, attr, _wrapper(tracer, name, fn, counted.get(name, ())))
        yield tracer
    finally:
        for mod, attr, fn in reversed(originals):
            setattr(mod, attr, fn)


@contextlib.contextmanager
def capture_trees(sink):
    """Pass-through hook on `pipeline.decompose` that keeps each returned tree
    (used on warm-up plans only, for the output checks; takes no timings)."""
    from pregrasp import pipeline

    original = pipeline.decompose

    def keep(*args, **kwargs):
        tree = original(*args, **kwargs)
        sink.append(tree)
        return tree

    pipeline.decompose = keep
    try:
        yield sink
    finally:
        pipeline.decompose = original


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(tracer, passes):
    """Per-layer metrics, each per pass over the workload's clouds.

    Returns {name: (value, unit)}.  Ratios come with their numerator and base.
    """
    t = tracer.totals()
    c = tracer.counts

    def calls(name):
        return t[name][0] / passes if name in t else 0.0

    def secs(name, kind=1):
        return t[name][kind] / passes if name in t else 0.0

    def count(key):
        return c[key] / passes

    split_calls = calls("decomposition.evaluate_split")
    rejected = count("decomposition.evaluate_split.EmptySide") + \
        count("decomposition.evaluate_split.DegenerateInput")
    load_s = secs("pointcloud.load_cloud")
    m = {
        "decomposition.decompose_s": (secs("pipeline.decompose"), "s"),
        "decomposition.fit_obb.calls": (calls("decomposition.fit_obb"), "count"),
        "decomposition.fit_obb.points": (count("fit_obb.points"), "count"),
        "decomposition.fit_obb_s": (secs("decomposition.fit_obb"), "s"),
        "decomposition.evaluate_split.calls": (split_calls, "count"),
        "decomposition.evaluate_split.rejected": (rejected, "count"),
        "decomposition.evaluate_split.self_s": (secs("decomposition.evaluate_split", 2), "s"),
        "decomposition.nodes": (count("nodes"), "count"),
        "decomposition.splits_accepted": (count("splits_accepted"), "count"),
        "decomposition.split_yield": (_ratio(count("splits_accepted"), split_calls), "ratio"),
        "graspeval.rank_pool_s": (secs("pipeline.rank_pool"), "s"),
        "graspeval.estimate_contacts.calls": (calls("graspeval.estimate_contacts"), "count"),
        "graspeval.estimate_contacts_s": (secs("graspeval.estimate_contacts"), "s"),
        "graspeval.estimate_contacts.no_contact":
            (count("graspeval.estimate_contacts.NoContacts"), "count"),
        "graspeval.ray_point_tests": (count("ray_point_tests"), "count.computed"),
        "graspeval.rays_cast": (count("rays_cast"), "count"),
        "graspeval.contacts_found": (count("contacts_found"), "count"),
        "graspeval.contact_hit_ratio":
            (_ratio(count("contacts_found"), count("rays_cast")), "ratio"),
        "graspeval.epsilon_quality.calls": (calls("graspeval.epsilon_quality"), "count"),
        "graspeval.epsilon_quality_s": (secs("graspeval.epsilon_quality"), "s"),
        "graspeval.candidates_ranked": (count("candidates_ranked"), "count"),
        "graspeval.quality_positive": (count("quality_positive"), "count"),
        "graspeval.quality_positive_ratio":
            (_ratio(count("quality_positive"), count("candidates_ranked")), "ratio"),
        "pointcloud.load_cloud_s": (load_s, "s"),
        "pointcloud.load_cloud.mb_per_s": (_ratio(count("load_bytes") / 1e6, load_s), "MB/s"),
        "pointcloud.save_results_s": (secs("pointcloud.save_results"), "s"),
        "sampler.generate_pool_s": (secs("pipeline.generate_pool"), "s"),
        "sampler.selected_nodes": (count("selected_nodes"), "count"),
        "sampler.pool_size": (count("pool_size"), "count"),
        "pipeline.assembly.self_s": (secs("pipeline.run_pipeline", 2), "s"),
        "classifier.pca.calls": (calls("pipeline.pca"), "count"),
        "classifier.classify_s": (secs("pipeline.pca") + secs("pipeline.classify"), "s"),
        "facemask.mask_s": (secs("pipeline.compute_face_states"), "s"),
        "facemask.obb_overlap.calls": (calls("facemask.obb_overlap"), "count"),
    }
    return m
