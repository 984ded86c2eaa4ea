"""Smoke test of the benchmark itself, at toy sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload once untraced and once traced, and checks that each
metric BENCHMARK.json names is reported with its unit, that the output checks
pass, and that every wrapped call site is expected on some workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
                       ("peak_rss_mb", "MB"), ("failed_frac", "ratio")):
        assert printed.get(name) == unit


def test_every_wrapped_site_is_expected_somewhere():
    probe = ("import json, spans; r = spans.Recorder(); spans.install(r); "
             "print(json.dumps(sorted(r.sites)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(HERE)]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    sys.path.insert(0, str(HERE))
    try:
        import spans
    finally:
        sys.path.remove(str(HERE))
    expected = {s for sites in spans.EXPECTED_SITES.values() for s in sites}
    assert set(json.loads(out)) == expected
    assert set(spans.EXPECTED_SITES) == set(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
