"""stabpp benchmark: three pinned CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single client runs a closed loop: each iteration launches one workload in a
fresh interpreter (``child.py``, which calls ``stabpp.cli.main``) and the next
starts only after it exits.  Iterations repeat for S seconds.  With
``--trace 0`` the last stdout line reports the end-to-end metrics as medians
over iterations; with ``--trace 1`` untraced and traced iterations alternate
and the per-layer metrics come from the traced ones.  Every iteration's output
is checked; see NOTES.md for what is checked and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 160.0     # launches still running this long into a run are killed
SETUP_LAUNCHES = 3      # extra set-up-only launches per run, beside each iteration's
MIN_ITERATIONS = 3      # per kind (untraced, traced)

UNIT_LINE = [{"lower": [0.0], "upper": [1.0]}]


def _directed_plan(replicates: int) -> dict:
    # the plan of acceptance criterion 5
    return {"dimension": 1,
            "density": {"boxes": UNIT_LINE, "weights": [1.0]},
            "regions": [UNIT_LINE],
            "functional": {"family": "nn_directed", "alpha": 3.0},
            "lambda_grid": [100.0, 400.0, 1600.0, 6400.0],
            "replicates": replicates}


def _knn_plan(replicates: int) -> dict:
    return {"dimension": 2,
            "density": {"boxes": [{"lower": [0.0, 0.0], "upper": [1.0, 1.0]}],
                        "homogeneous": True},
            "regions": [[{"lower": [0.0, 0.0], "upper": [0.5, 1.0]}],
                        [{"lower": [0.5, 0.0], "upper": [1.0, 1.0]}]],
            "functional": {"family": "knn_undirected", "k": 3, "alpha": 1.0},
            "lambda_grid": [250.0, 1000.0],
            "replicates": replicates}


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int          # simulate --workers
    plan: Callable[[int], dict]   # size -> plan
    sizes: dict           # "full" / "tiny" -> replicates per intensity

    def attempted(self, plan: dict) -> int:
        """Replicates one iteration attempts."""
        return plan["replicates"] * len(plan["lambda_grid"])

    def argv(self, config: Path, seed: int, out: Path,
             workers: int | None = None) -> list[str]:
        return ["simulate", "--config", str(config), "--seed", str(seed),
                "--out", str(out), "--workers", str(workers or self.workers)]


WORKLOADS = {w.name: w for w in (
    Workload("directed_line", 1, _directed_plan, {"full": 1000, "tiny": 20}),
    Workload("directed_pool", 2, _directed_plan, {"full": 1000, "tiny": 20}),
    Workload("knn_plane", 1, _knn_plan, {"full": 8, "tiny": 2}),
)}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# one launch of the program

@dataclass
class Launch:
    ok: bool
    error: str
    setup_s: float = math.nan
    wall_s: float = math.nan
    cpu_s: float = math.nan
    peak_rss_mb: float = math.nan
    import_s: float = math.nan
    parse_s: float = math.nan
    payload: dict | None = None
    report_bytes: int = 0
    trace: dict | None = None


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for the child; return (exit code, rusage), or (None, rusage) if
    it had to be killed after ``timeout`` seconds.

    A blocking ``wait4`` gives the rusage of the child and of the pool
    workers it reaped; the watchdog kills the whole process group.
    """
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not killed.is_set():
        return proc.returncode, usage
    while True:   # wait until the killed pool workers are gone too
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return None, usage
        time.sleep(0.01)


def launch(argv: list[str], work: Path, deadline: float,
           trace: str | None = None, setup_only: bool = False) -> Launch:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    result_path = work / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path)]
    if trace:
        cmd += ["--trace", trace]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--"] + argv
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        started = clock()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        code, usage = _reap(proc, max(1.0, deadline - started))
    if code is None:
        return Launch(False, f"killed {RUN_LIMIT_S:g} s into the run")
    if code != 0 or not result_path.exists():
        tail = (work / "stderr").read_text(errors="replace")[-2000:]
        return Launch(False, f"exit code {code}: {tail}")
    child = json.loads(result_path.read_text())
    if not Path(child["stabpp_file"]).resolve().is_relative_to(SRC.resolve()):
        return Launch(False, f"imported stabpp from {child['stabpp_file']}, "
                             f"not from {SRC}")
    stamps = child["stamps"]
    if "plan" not in stamps:
        return Launch(False, "the CLI never reached the engine")
    run = Launch(
        True, "",
        setup_s=stamps["plan"] - started,
        wall_s=stamps["end"] - stamps["plan"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=(child["maxrss_self_kb"] + child["maxrss_children_kb"]) / 1024,
        import_s=stamps["main"] - started,
        parse_s=stamps["plan"] - stamps["main"],
        trace=child.get("trace"),
    )
    if not setup_only:
        out_dir = Path(argv[argv.index("--out") + 1])
        try:
            report = json.loads((out_dir / "report.json").read_text())
            run.payload = report["payload"]
        except (OSError, ValueError, KeyError) as err:
            return Launch(False, f"no readable report: {err}")
        run.report_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    return run


# ---------------------------------------------------------------------------
# output checks

def payload_sha256(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def nonfinite_numbers(node, where="payload") -> list[str]:
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return []
    if isinstance(node, (int, float)):
        return [] if math.isfinite(node) else [where]
    if isinstance(node, dict):
        return [bad for k, v in node.items()
                for bad in nonfinite_numbers(v, f"{where}.{k}")]
    return [bad for i, v in enumerate(node)
            for bad in nonfinite_numbers(v, f"{where}[{i}]")]


def check_knn_oracle(plan: dict, seed: int) -> list[str]:
    """knn_indices equals brute_force_knn on each intensity's stream-0 configuration.

    The points are dilated by lambda^(1/d) as the kNN functional scores them.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from stabpp import cli, neighbors, point_process

    parsed = cli.parse_plan(plan, seed_override=seed)
    k = parsed.functional.k
    errors = []
    for lam in parsed.lambda_grid:
        cfg = point_process.sample_poisson(parsed.density, lam, seed, stream=0)
        dilated = cfg.points * lam ** (1.0 / cfg.dimension)
        fast = neighbors.knn_indices(dilated, k)
        oracle = neighbors.brute_force_knn(dilated, k)
        if not (fast == oracle).all():
            errors.append(f"knn_indices differs from brute_force_knn at "
                          f"lambda={lam:g} ({len(dilated)} points)")
    return errors


# ---------------------------------------------------------------------------
# metrics

def median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(trace: dict, wall_s: float, import_s: float, parse_s: float,
                  report_bytes: int) -> dict:
    """Per-layer metrics of one traced iteration, as (value, unit) pairs."""
    self_s = trace["self_s"]
    calls = trace["site_calls"]
    counters = trace["counters"]

    def c(*sites):
        return sum(calls.get(s, 0) for s in sites)

    def ratio(num, den):
        return num / den if den else 0.0

    pp_calls = c("experiments.sample_poisson")
    nb_calls = c("neighbors.nn_distances", "neighbors.knn_indices")
    configs = c("experiments.t_vector")
    pools = trace["pools"]
    return {
        "point_process.calls": (pp_calls, "count"),
        "point_process.generators": (c("point_process.generator"), "count"),
        "point_process.points": (counters.get("points", 0), "count"),
        "point_process.self_s": (self_s.get("point_process", 0.0), "s"),
        "point_process.ns_per_point":
            (1e9 * ratio(self_s.get("point_process", 0.0),
                         counters.get("points", 0)), "ns"),
        "neighbors.calls": (nb_calls, "count"),
        "neighbors.queries": (counters.get("queries", 0), "count"),
        "neighbors.self_s": (self_s.get("neighbors", 0.0), "s"),
        "neighbors.ns_per_query":
            (1e9 * ratio(self_s.get("neighbors", 0.0),
                         counters.get("queries", 0)), "ns"),
        "neighbors.calls_per_config": (ratio(nb_calls, configs), "ratio"),
        "regions.calls": (c("regions.Region.contains"), "count"),
        "regions.self_s": (self_s.get("regions", 0.0), "s"),
        "functionals.calls": (configs, "count"),
        "functionals.self_s": (self_s.get("functionals", 0.0), "s"),
        "functionals.t_vector_p50_ms": (1e3 * trace["t_vector_p50_s"], "ms"),
        "functionals.t_vector_p99_ms": (1e3 * trace["t_vector_p99_s"], "ms"),
        "experiments.replicate.calls": (c("experiments._one_replicate"), "count"),
        "experiments.replicate.self_s":
            (self_s.get("experiments.replicate", 0.0), "s"),
        "experiments.replicate.retries":
            (c("experiments.sample_poisson") - c("experiments._one_replicate"),
             "count"),
        "experiments.estimate.calls":
            (c("experiments.estimate_moments", "experiments.standardize",
               "experiments.ks_to_normal",
               "experiments.product_form_discrepancy"), "count"),
        "experiments.estimate.self_s":
            (self_s.get("experiments.estimate", 0.0), "s"),
        "experiments.pool_starts": (counters.get("pool_starts", 0), "count"),
        "experiments.tasks": (counters.get("tasks", 0), "count"),
        "experiments.task_bytes": (counters.get("task_bytes", 0), "B"),
        "experiments.pool.self_s": (self_s.get("experiments.pool", 0.0), "s"),
        "experiments.parallel_efficiency":
            (ratio(sum(cpu for _, _, cpu in pools),
                   sum(w * wall for w, wall, _ in pools)), "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.parse_s": (parse_s, "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.report_bytes": (report_bytes, "B"),
        "trace.wall_s": (wall_s, "s"),
        "trace.self_sum_frac": (ratio(sum(self_s.values()), wall_s), "ratio"),
    }


def settings(args, workload: Workload, plan: dict) -> dict:
    import numpy
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "workload_size": workload.sizes[args.size],
        "workers": workload.workers, "plan": plan,
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same plans at toy sizes (smoke test)")
    args = parser.parse_args()

    if not (SRC / "stabpp" / "cli.py").is_file():
        print(f"error: no stabpp sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    plan = workload.plan(workload.sizes[args.size])
    work = OUT / "work" / workload.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = work / "plan.json"
    config.write_text(json.dumps(plan, indent=1))

    deadline = clock() + RUN_LIMIT_S

    def run_once(tag: str, workers=None, **kwargs) -> Launch:
        argv = workload.argv(config, args.seed, work / tag / "out", workers)
        return launch(argv, work / tag, deadline, **kwargs)

    errors: list[str] = []
    # untimed warm-up: bytecode caches and the file cache fill here
    warm = run_once("warmup", setup_only=True)
    if not warm.ok:
        print(f"error: warm-up launch failed: {warm.error}", file=sys.stderr)
        return 1
    setup_samples = []
    for i in range(SETUP_LAUNCHES):
        run = run_once(f"setup{i}", setup_only=True)
        if run.ok:
            setup_samples.append(run.setup_s)
        else:
            errors.append(f"set-up launch {i}: {run.error}")

    kinds = ["plain", "traced"] if args.trace else ["plain"]
    runs = {kind: [] for kind in kinds}
    attempted = failed = 0
    started = clock()
    last = 0.0
    i = 0
    # stop before an iteration that would end past the measuring time
    while (clock() - started + last < args.seconds
           or i < MIN_ITERATIONS * len(kinds)):
        kind = kinds[i % len(kinds)]
        began = clock()
        tag = f"iter{i}"
        run = run_once(tag, trace=workload.name if kind == "traced" else None)
        i += 1
        last = clock() - began
        per_iteration = workload.attempted(plan)
        attempted += per_iteration
        problems = [] if run.ok else [run.error]
        if run.ok:
            problems += [f"non-finite number at {w}"
                         for w in nonfinite_numbers(run.payload)]
        if problems:
            failed += per_iteration
            errors += [f"{tag}: {p}" for p in problems]
            continue
        runs[kind].append(run)
        setup_samples.append(run.setup_s)

    done = [r for rs in runs.values() for r in rs]
    hashes = {payload_sha256(r.payload) for r in done}
    if len(hashes) > 1:
        errors.append(f"payload differs between iterations of one seed "
                      f"({len(hashes)} distinct hashes)")
    if done and workload.name == "directed_pool":
        ref = run_once("serial_ref", workers=1)
        if not ref.ok:
            errors.append(f"serial reference run: {ref.error}")
        elif payload_sha256(ref.payload) not in hashes:
            errors.append("--workers 2 payload differs from the --workers 1 "
                          "payload at the same seed")
    if workload.name == "knn_plane":
        errors += check_knn_oracle(plan, args.seed)
    if errors and not failed:
        failed = attempted   # a failed run-level check fails every replicate
    if args.trace:
        for run in runs["traced"]:
            missing = run.trace["missing_sites"]
            if missing:
                print(f"error: traced call sites recorded no call on "
                      f"{workload.name}: {', '.join(missing)}", file=sys.stderr)
                return 1

    if not all(runs.values()) or not setup_samples:
        print("error: too few iterations completed: " + "; ".join(errors),
              file=sys.stderr)
        return 1
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)

    plain = runs["plain"]
    e2e = {
        "wall_s": (median(r.wall_s for r in plain), "s"),
        "setup_s": (median(setup_samples), "s"),
        "cpu_s": (median(r.cpu_s for r in plain), "s"),
        "peak_rss_mb": (median(r.peak_rss_mb for r in plain), "MB"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }
    if args.trace:
        traced = [layer_metrics(r.trace, r.wall_s, r.import_s, r.parse_s,
                                r.report_bytes) for r in runs["traced"]]
        reported = {name: (median(t[name][0] for t in traced), unit)
                    for name, (_, unit) in traced[0].items()}
        reported["trace.overhead_frac"] = (
            reported["trace.wall_s"][0] / e2e["wall_s"][0] - 1.0, "ratio")
    else:
        reported = e2e

    record = {
        "settings": settings(args, workload, plan),
        "samples": {
            "iterations": {k: len(v) for k, v in runs.items()},
            "setup_s": setup_samples,
            **{f"{k}.wall_s": [r.wall_s for r in v] for k, v in runs.items()},
        },
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "failed_frac": failed / attempted,
        "errors": errors,
        "metrics": {k: v for k, (v, _) in reported.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print("settings " + json.dumps(record["settings"], sort_keys=True))
    lines = {**e2e, "failed_frac": (failed / attempted, "ratio")}
    if args.trace:
        lines.update(reported)
    for name, (value, unit) in lines.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
