"""Outside-in span recording for the stabpp benchmark.

Every traced call site is wrapped at the name its caller looks up, so the
wrapper sees each call the program makes there.  A span's self time is its
duration minus the time covered by the spans it caused; self times are summed
per layer (named after the stabpp module the call enters).  Counters are taken
at the same boundaries.  Nothing here is imported by stabpp itself.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
import time
from collections import Counter, defaultdict

_CLK_TCK = os.sysconf("SC_CLK_TCK")

now = time.perf_counter


class Recorder:
    """Span stack, per-layer self times and per-site call counts."""

    def __init__(self):
        self.child_time = []          # one accumulator per open span
        self.self_s = defaultdict(float)
        self.site_calls = Counter()
        self.counters = Counter()
        self.durations = defaultdict(list)
        self.pools = []               # (workers, wall_s, worker_cpu_s)
        self.sites = set()            # every wrapped site

    def open(self):
        self.child_time.append(0.0)
        return now()

    def close(self, layer: str, started: float) -> float:
        duration = now() - started
        inner = self.child_time.pop()
        self.self_s[layer] += duration - inner
        if self.child_time:
            self.child_time[-1] += duration
        return duration

    def wrap(self, owner, name: str, layer: str, site: str, count=None,
             keep_durations: bool = False):
        """Replace ``owner.name`` by a function that records a span around it.

        ``count(args, result)`` may add to ``self.counters`` after the call.
        """
        original = getattr(owner, name)
        recorder = self
        self.sites.add(site)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = recorder.open()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = recorder.close(layer, started)
                recorder.site_calls[site] += 1
            if keep_durations:
                recorder.durations[site].append(duration)
            if count is not None:
                count(args, result)
            return result

        setattr(owner, name, wrapper)

    def traced_pool(self, base):
        """A process-pool class that records a span from start to shutdown.

        It counts pool starts, tasks and the pickled size of task arguments,
        and reads each worker's CPU time from /proc before the pool shuts down.
        """
        recorder = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._started = recorder.open()
                recorder.site_calls["experiments.ProcessPoolExecutor"] += 1
                recorder.counters["pool_starts"] += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                tasks = [list(it) for it in iterables]
                recorder.counters["tasks"] += len(tasks[0])
                recorder.counters["task_bytes"] += sum(
                    len(pickle.dumps(args)) for args in tasks[0])
                return super().map(fn, *tasks, **kwargs)

            def shutdown(self, *args, **kwargs):
                pids = [p.pid for p in (self._processes or {}).values()]
                cpu = sum(_proc_cpu_s(pid) for pid in pids)
                super().shutdown(*args, **kwargs)
                wall = recorder.close("experiments.pool", self._started)
                recorder.pools.append((self._max_workers, wall, cpu))

        return TracedPool


def _proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def install(recorder: Recorder) -> None:
    """Wrap every traced call site of stabpp."""
    from stabpp import cli, experiments, neighbors, point_process
    from stabpp.regions import Region

    counters = recorder.counters

    def sampled(args, result):
        counters["points"] += len(result)

    def queried(args, result):
        counters["queries"] += len(args[0])

    pp = "point_process"
    recorder.wrap(experiments, "sample_poisson", pp, "experiments.sample_poisson",
                  count=sampled)
    recorder.wrap(point_process, "generator", pp, "point_process.generator")

    recorder.wrap(neighbors, "nn_distances", "neighbors",
                  "neighbors.nn_distances", count=queried)
    recorder.wrap(neighbors, "knn_indices", "neighbors",
                  "neighbors.knn_indices", count=queried)

    recorder.wrap(Region, "contains", "regions", "regions.Region.contains")

    recorder.wrap(experiments, "t_vector", "functionals", "experiments.t_vector",
                  keep_durations=True)

    rep = "experiments.replicate"
    recorder.wrap(experiments, "_one_replicate", rep, "experiments._one_replicate")
    recorder.wrap(experiments, "run_replicates", rep, "experiments.run_replicates")

    est = "experiments.estimate"
    recorder.wrap(cli, "run_experiment", est, "cli.run_experiment")
    for name in ("estimate_moments", "standardize", "ks_to_normal",
                 "product_form_discrepancy"):
        recorder.wrap(experiments, name, est, f"experiments.{name}")

    recorder.sites.add("experiments.ProcessPoolExecutor")
    experiments.ProcessPoolExecutor = recorder.traced_pool(
        experiments.ProcessPoolExecutor)


# Sites each workload must reach; a site that records no call on its workload
# means a refactor moved the call and the trace would silently read 0.
EXPECTED_SITES = {
    "directed_line": (
        "experiments.sample_poisson", "point_process.generator",
        "neighbors.nn_distances", "regions.Region.contains",
        "experiments.t_vector", "experiments._one_replicate",
        "experiments.run_replicates", "cli.run_experiment",
        "experiments.estimate_moments", "experiments.standardize",
        "experiments.ks_to_normal", "experiments.product_form_discrepancy"),
    "directed_pool": (
        "experiments.ProcessPoolExecutor", "experiments.run_replicates",
        "cli.run_experiment", "experiments.estimate_moments"),
    "knn_plane": (
        "experiments.sample_poisson", "point_process.generator",
        "neighbors.knn_indices", "regions.Region.contains",
        "experiments.t_vector", "experiments._one_replicate",
        "experiments.run_replicates", "cli.run_experiment",
        "experiments.estimate_moments"),
}


def percentile(ordered, q: int) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when it is empty."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def missing_sites(workload: str, site_calls) -> list[str]:
    return [s for s in EXPECTED_SITES[workload] if site_calls.get(s, 0) < 1]
