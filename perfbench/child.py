"""Run one stabpp CLI invocation in this fresh interpreter and time it.

Usage: python3 child.py --result FILE [--trace WORKLOAD] [--setup-only] -- ARGV

ARGV goes to ``stabpp.cli.main``.  The moment the CLI hands its validated plan
to the engine (``cli.run_experiment``) splits set-up from the measured work.
With ``--setup-only`` the run stops there.  With ``--trace`` every call site
in ``spans.install`` is wrapped and the per-layer record goes into FILE too.
Stamps are CLOCK_MONOTONIC, which the launching process shares.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(BaseException):
    """Raised at the validated plan to end a set-up-only run.

    A BaseException, so the CLI's ``except Exception`` boundary lets it pass.
    """


def main() -> int:
    split = sys.argv.index("--")
    opts, cli_argv = sys.argv[1:split], sys.argv[split + 1:]
    result_path = opts[opts.index("--result") + 1]
    workload = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    setup_only = "--setup-only" in opts

    import stabpp
    from stabpp import cli

    recorder = None
    if workload is not None:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    stamps = {}
    root = []

    def at_plan(engine):
        @functools.wraps(engine)
        def entry(*args, **kwargs):
            stamps["plan"] = clock()
            if setup_only:
                raise SetupDone
            if recorder is not None:
                root.append(recorder.open())
            return engine(*args, **kwargs)
        return entry

    cli.run_experiment = at_plan(cli.run_experiment)

    stamps["main"] = clock()
    try:
        code = cli.main(cli_argv)
    except SetupDone:
        code = 0
    stamps["end"] = clock()
    if root:
        recorder.close("cli", root[0])

    result = {
        "exit_code": code,
        "stabpp_file": stabpp.__file__,
        "stamps": stamps,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if recorder is not None:
        durations = sorted(recorder.durations.get("experiments.t_vector", []))
        result["trace"] = {
            "self_s": dict(recorder.self_s),
            "site_calls": dict(recorder.site_calls),
            "counters": dict(recorder.counters),
            "pools": recorder.pools,
            "t_vector_count": len(durations),
            "t_vector_p50_s": spans.percentile(durations, 50),
            "t_vector_p99_s": spans.percentile(durations, 99),
            "sites": sorted(recorder.sites),
            "missing_sites": spans.missing_sites(workload, recorder.site_calls),
        }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
