"""Command-line contract: schema validation, exit codes, determinism, outputs."""

import argparse
import concurrent.futures
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import stabpp
from stabpp import cli
from stabpp import experiments as ex
from stabpp import functionals as fn
from stabpp.point_process import MAX_COUNT
from stabpp.special import delta_alpha_sq, v_alpha


# one more worker than the CPUs, the smallest count simulate refuses
TOO_MANY_WORKERS = str((os.cpu_count() or 1) + 1)


def base_config(**overrides):
    cfg = {
        "dimension": 1,
        "density": {"boxes": [{"lower": [0.0], "upper": [1.0]}],
                    "weights": [1.0]},
        "regions": [[{"lower": [0.0], "upper": [1.0]}]],
        "functional": {"family": "nn_directed", "k": 1, "alpha": 1.0},
        "lambda_grid": [120.0],
        "replicates": 60,
        "seed": 42,
    }
    cfg.update(overrides)
    return cfg


def knn_halves_config(dim, **overrides):
    """A kNN plan (k = 3) on the unit cube of ``dim`` axes, with the two
    halves along the first axis as its regions."""
    halves = [[{"lower": [lo] + [0.0] * (dim - 1),
                "upper": [lo + 0.5] + [1.0] * (dim - 1)}] for lo in (0.0, 0.5)]
    return base_config(**{
        "dimension": dim,
        "density": {"boxes": [{"lower": [0.0] * dim, "upper": [1.0] * dim}],
                    "homogeneous": True},
        "regions": halves,
        "functional": {"family": "knn_undirected", "k": 3, "alpha": 1.0},
        **overrides})


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def forbid_draws(monkeypatch):
    """Make every sampler a command reaches fail the test if it is called."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a configuration was drawn")

    for owner, name in ((ex, "sample_poisson"), (cli, "sample_poisson"),
                        (cli, "sample_binomial"), (fn, "sample_poisson_rng")):
        monkeypatch.setattr(owner, name, no_draw)


class TestConstantsCommand:
    def test_table_rows(self, capsys):
        code = cli.main(["constants", "--alpha", "1", "3", "4", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        by_alpha = {r["alpha"]: r for r in rows}
        assert by_alpha[1.0]["v_alpha"] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert by_alpha[1.0]["delta_alpha_sq"] == 0.0
        assert by_alpha[3.0]["v_alpha"] == pytest.approx(149.0 / 18.0, rel=1e-12)
        assert by_alpha[3.0]["delta_alpha_sq"] == pytest.approx(2.25, rel=1e-12)
        assert by_alpha[4.0]["v_alpha"] == pytest.approx(135793.0 / 972.0, rel=1e-12)
        assert by_alpha[4.0]["delta_alpha_sq"] == pytest.approx(20.25, rel=1e-12)

    def test_plain_output(self, capsys):
        assert cli.main(["constants", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "V_alpha" in out
        assert f"{v_alpha(0.5):.15g}"[:12] in out
        assert f"{delta_alpha_sq(0.5):.15g}"[:12] in out

    def test_nonpositive_alpha_is_usage_error(self, capsys):
        assert cli.main(["constants", "--alpha", "-2"]) == 2

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_alpha_must_be_finite(self, capsys, alpha):
        assert cli.main(["constants", "--alpha", "1", alpha]) == 2
        captured = capsys.readouterr()
        assert "--alpha" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("alpha, gamma", [("85", "172"), ("171", "343")])
    def test_overflowing_alpha_is_usage_error(self, capsys, alpha, gamma):
        # Gamma(2 + 2 alpha) in v_alpha overflows a double from alpha ~ 84.8
        assert cli.main(["constants", "--alpha", "1", alpha, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: --alpha: Gamma({gamma}) overflows a "
                                f"double at weight exponent {alpha}\n")
        assert captured.out == ""


class TestSimulateCommand:
    def test_smoke_report_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(replicates=10))
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc) == {"meta", "payload"}
        for key in ("artifact_version", "config_sha256", "seed",
                    "wall_clock_utc", "elapsed_seconds"):
            assert key in doc["meta"]
        payload = doc["payload"]
        for key in ("functional", "replicates", "seed", "lambda_grid",
                    "per_lambda", "rate_fit", "censored_lambdas"):
            assert key in payload
        region_row = payload["per_lambda"][0]["regions"][0]
        for key in ("mean", "se_mean", "var", "se_var", "ks", "scaled_mean",
                    "scaled_var", "target_mean", "target_var"):
            assert key in region_row
        assert (out / "table.csv").exists()
        assert (out / "rate.csv").exists()

    def test_payload_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--seed", "42",
                         "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--seed", "42",
                         "--out", str(out2)]) == 0
        p1 = json.loads((out1 / "report.json").read_text())["payload"]
        p2 = json.loads((out2 / "report.json").read_text())["payload"]
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_payload_independent_of_blas_threads(self, tmp_path):
        """A region of more than 10,000 points per replicate: OpenBLAS splits
        its dot product across threads, so without the CLI's one-thread rule
        the payload bytes would follow OPENBLAS_NUM_THREADS and the core
        count.  Fresh interpreters, since the count is read when numpy loads."""
        cfg = write_config(tmp_path, base_config(lambda_grid=[12000.0],
                                                 replicates=4, seed=3))
        src = str(Path(stabpp.__file__).resolve().parent.parent)
        payloads = set()
        for threads in (None, "1", "2", "4"):
            env = {"PYTHONPATH": src, "PATH": ""}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "stabpp.cli", "simulate", "--config", cfg,
                 "--json", "--out", str(tmp_path / "o")],
                capture_output=True, text=True, timeout=60, env=env)
            assert proc.returncode == 0, proc.stderr
            payloads.add(proc.stdout)
        assert len(payloads) == 1

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
    @pytest.mark.parametrize("cfg", [
        base_config(lambda_grid=[50.0, 100.0], replicates=20, seed=1),
        knn_halves_config(2, lambda_grid=[50.0, 100.0], replicates=8, seed=1),
        knn_halves_config(3, lambda_grid=[50.0, 100.0], replicates=8, seed=1),
    ], ids=["directed_line", "knn_plane", "knn_space"])
    def test_pool_payload_equals_serial(self, tmp_path, cfg):
        path = write_config(tmp_path, cfg)
        payloads = []
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert cli.main(["simulate", "--config", path, "--workers", workers,
                             "--out", str(out)]) == 0
            payload = json.loads((out / "report.json").read_text())["payload"]
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_missing_density_names_key(self, tmp_path, capsys):
        cfg = base_config()
        del cfg["density"]
        path = write_config(tmp_path, cfg)
        assert cli.main(["simulate", "--config", path]) == 2
        assert '"density"' in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(bogus=1))
        assert cli.main(["simulate", "--config", path]) == 2
        assert '"bogus"' in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 1,\n  "density": }')
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_check_passes_on_sound_run(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            lambda_grid=[400.0], replicates=400))
        assert cli.main(["simulate", "--config", cfg, "--check",
                         "--out", str(tmp_path / "c")]) == 0

    def test_check_passes_on_two_densities(self, tmp_path):
        # kappa = 2 on [0, 1] and 0.5 on [2, 3]: the targets are
        # E[D] kappa^0 = 0.5 and v_1 / kappa, not functions of integral(kappa)
        boxes = [{"lower": [0.0], "upper": [1.0]}, {"lower": [2.0], "upper": [3.0]}]
        cfg = write_config(tmp_path, base_config(
            density={"boxes": boxes, "weights": [2.0, 0.5]},
            regions=[[boxes[0]], [boxes[1]]],
            lambda_grid=[4000.0], replicates=200))
        assert cli.main(["simulate", "--config", cfg, "--check",
                         "--out", str(tmp_path / "c")]) == 0

    def test_check_fails_with_tiny_multiplier(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(
            check={"se_multiplier": 1e-6}))
        code = cli.main(["simulate", "--config", cfg, "--check",
                         "--out", str(tmp_path / "d")])
        assert code == 1
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("check failed")]
        assert failed == [
            "check failed: region 0: scaled mean 0.508029 misses target 0.5 "
            "by more than 1e-06 SE (0.00421)",
            "check failed: region 0: scaled variance 0.127402 misses target "
            "0.166667 by more than 1e-06 SE (0.0202)"]

    def test_check_without_targets_fails(self, tmp_path, capsys):
        # kNN in the plane has no closed-form target: nothing to compare is a
        # failed check, after the report is written
        box = [{"lower": [0.0, 0.0], "upper": [1.0, 1.0]}]
        path = write_config(tmp_path, base_config(
            dimension=2, density={"boxes": box, "homogeneous": True},
            regions=[[{"lower": [0.0, 0.0], "upper": [0.5, 1.0]}],
                     [{"lower": [0.5, 0.0], "upper": [1.0, 1.0]}]],
            functional={"family": "knn_undirected", "k": 3, "alpha": 1.0},
            lambda_grid=[50.0, 100.0], replicates=8, seed=1))
        out = tmp_path / "knn"
        assert cli.main(["simulate", "--config", path, "--check",
                         "--out", str(out)]) == 1
        assert (capsys.readouterr().err.splitlines()[-1]
                == "check failed: no region has a closed-form target")
        assert (out / "report.json").exists()

    def test_payload_is_what_run_experiment_returns(self, tmp_path):
        """report.json stores the dict run_experiment returns, key for key."""
        boxes = [{"lower": [0.0], "upper": [1.0]}, {"lower": [2.0], "upper": [3.0]}]
        cfg = base_config(density={"boxes": boxes, "weights": [2.0, 0.5]},
                          regions=[[boxes[0]], [boxes[1]]],
                          lambda_grid=[40.0, 80.0, 160.0], replicates=30, seed=3)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                             "--out", str(out)]) == 0
            payload = ex.run_experiment(cli.parse_plan(cfg))
        doc = json.loads((out / "report.json").read_text())
        assert doc["payload"] == payload

    def test_env_seed_used_when_unset(self, tmp_path, monkeypatch):
        cfg = base_config()
        del cfg["seed"]
        path = write_config(tmp_path, cfg)
        monkeypatch.setenv("STABPP_SEED", "777")
        out = tmp_path / "env"
        assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["meta"]["seed"] == 777

    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STABPP_SEED", "777")
        path = write_config(tmp_path, base_config(seed=5))
        out = tmp_path / "flag"
        assert cli.main(["simulate", "--config", path, "--seed", "9",
                         "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["meta"]["seed"] == 9

    def test_overflowing_distances_exit_1(self, tmp_path, capsys):
        # a box 1e200 wide: squared distances of the kNN search overflow
        box = [{"lower": [0.0, 0.0], "upper": [1e200, 1e-199]}]
        path = write_config(tmp_path, base_config(
            dimension=2, density={"boxes": box, "homogeneous": True},
            regions=[box], replicates=4,
            functional={"family": "knn_undirected", "k": 3, "alpha": 1.0}))
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "w")]) == 1
        assert "squared distances overflow" in capsys.readouterr().err


class TestSampleCommand:
    def test_points_csv(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "pts"
        assert cli.main(["sample", "--config", cfg, "--lambda", "50",
                         "--out", str(out)]) == 0
        lines = (out / "points.csv").read_text().strip().splitlines()
        assert lines[0] == "x0"
        assert len(lines) > 1

    def test_json_binomial(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert cli.main(["sample", "--config", cfg, "--process", "binomial",
                         "--n", "17", "--json", "--out", str(tmp_path / "o")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 17
        assert not (tmp_path / "o").exists()  # --json writes no file

    def test_binomial_follows_the_weights(self, tmp_path, capsys):
        # weights (1, 0): every point in [0, 1], none in the zero-weight box
        boxes = [{"lower": [0.0], "upper": [1.0]}, {"lower": [2.0], "upper": [3.0]}]
        path = write_config(tmp_path, base_config(
            density={"boxes": boxes, "weights": [1.0, 0.0]}, regions=[boxes[:1]]))
        assert cli.main(["sample", "--config", path, "--process", "binomial",
                         "--n", "100", "--json"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert len(points) == 100
        assert all(0.0 <= x < 1.0 for (x,) in points)

    def test_binomial_count_follows_the_mass(self, tmp_path, capsys):
        # weights (3, 1) on two unit boxes: mass 4, so the default count is
        # round(lambda * 4), the Poisson draw's mean count
        boxes = [{"lower": [0.0], "upper": [1.0]}, {"lower": [2.0], "upper": [3.0]}]
        path = write_config(tmp_path, base_config(
            density={"boxes": boxes, "weights": [3.0, 1.0]}, regions=[boxes[:1]]))
        assert cli.main(["sample", "--config", path, "--process", "binomial",
                         "--lambda", "100", "--seed", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 400

    @pytest.mark.parametrize("window", [
        [{"lower": [0.5], "upper": [2.25]}],
        [{"lower": [0.5, -1.0], "upper": [2.25, 0.5]}],
        [{"lower": [0.0], "upper": [1.0]}, {"lower": [2.0], "upper": [3.5]}],
    ], ids=["line", "two_d", "two_boxes"])
    def test_homogeneous_is_poisson_at_unit_weight(self, tmp_path, capsys, window):
        # the homogeneous process ignores the plan's weights: on its region
        # it is the Poisson draw of weight 1 per box at the same lambda and seed
        outputs = []
        for process, density in (
                ("homogeneous", {"boxes": window, "homogeneous": True}),
                ("poisson", {"boxes": window, "weights": [1.0] * len(window),
                             "normalized": False})):
            path = write_config(tmp_path, base_config(
                dimension=len(window[0]["lower"]), density=density,
                regions=[window]))
            assert cli.main(["sample", "--config", path, "--process", process,
                             "--lambda", "300", "--seed", "3", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["count"] > 0


class TestStabProbeCommand:
    def test_probe_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(
            probe={"count": 25, "resamples": 2, "lambda": 60.0}))
        out = tmp_path / "probe"
        assert cli.main(["stab-probe", "--config", cfg, "--json",
                         "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decay_slope"] < 0.0
        probs = [row["tail_prob"] for row in doc["tail"]]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))
        # stdout is the report's payload, and tail.csv its tail row for row
        assert json.loads((out / "report.json").read_text())["payload"] == doc
        lines = (out / "tail.csv").read_text().splitlines()
        assert lines[0] == "t,tail_prob,censored_count"
        assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
            [row["t"], row["tail_prob"], doc["censored_count"]]
            for row in doc["tail"]]

    def test_unreachable_point_count_fails_fast(self, tmp_path):
        # k+1 = 31 points at mean 1 per draw: P(N >= 31) is about 5e-35, so
        # the capped redraw must give up instead of drawing forever
        path = write_config(tmp_path, base_config(
            functional={"family": "knn_undirected", "k": 30, "alpha": 1.0},
            probe={"count": 5, "resamples": 2, "lambda": 1.0}))
        src = str(Path(stabpp.__file__).resolve().parent.parent)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "stabpp.cli", "stab-probe", "--config", path,
             "--out", str(tmp_path / "p")],
            capture_output=True, text=True, timeout=10,
            env={"PYTHONPATH": src, "PATH": ""})
        assert time.perf_counter() - started < 1.0
        assert proc.returncode == 1
        assert "probe.lambda" in proc.stderr
        assert "functional.k" in proc.stderr

    def test_zero_probe_count_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(
            probe={"count": 0, "resamples": 2, "lambda": 60.0}))
        assert cli.main(["stab-probe", "--config", cfg]) == 2

    @pytest.mark.parametrize("key, value, named", [
        ("regions", "garbage", "regions"),
        ("check", {"nonsense": True}, '"nonsense"'),
        ("lambda_grid", "x", "lambda_grid"),
        ("replicates", "many", "replicates"),
        # the plan's own rules, which simulate and sample apply as well
        pytest.param("regions", [[{"lower": [0.0], "upper": [0.6]}],
                                 [{"lower": [0.4], "upper": [1.0]}]],
                     "regions 0 and 1 overlap", id="regions_overlap"),
        pytest.param("replicates", 1, "replicates", id="one_replicate"),
        pytest.param("replicates", 2 ** 63, "replicates",
                     id="replicates_beyond_streams"),
        pytest.param("lambda_grid", [200.0, 100.0], "lambda_grid",
                     id="lambda_grid_decreasing"),
    ])
    def test_plan_keys_are_validated(self, tmp_path, capsys, monkeypatch, key,
                                     value, named):
        # stab-probe reads none of these, but a bad one is still a bad plan,
        # refused before any draw
        forbid_draws(monkeypatch)
        cfg = base_config(probe={"count": 5, "lambda": 60.0})
        cfg[key] = value
        path = write_config(tmp_path, cfg)
        assert cli.main(["stab-probe", "--config", path,
                         "--out", str(tmp_path / "p")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("missing, named", [
        (("regions", "lambda_grid", "replicates"), "regions"),
        (("probe",), "probe"),
    ], ids=["probe_only", "full_plan_without_probe"])
    def test_missing_key_is_named(self, tmp_path, capsys, monkeypatch, missing,
                                  named):
        # the probe needs a whole plan and its probe block
        forbid_draws(monkeypatch)
        cfg = base_config(probe={"count": 5, "lambda": 60.0})
        for key in missing:
            del cfg[key]
        assert cli.main(["stab-probe", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err == (
            f'config error: missing required key "{named}" in config\n')
        assert not (tmp_path / "p").exists()


class TestOutputDirectory:
    """Every command that writes files makes its output directory before any
    draw, so a path that cannot be one exits 2 naming its source."""

    @pytest.mark.parametrize("source", ["--out", "STABPP_OUT"])
    @pytest.mark.parametrize("out", ["afile", "afile/sub", ""],
                             ids=["a_file", "under_a_file", "empty"])
    @pytest.mark.parametrize("command", ["simulate", "stab-probe", "sample"])
    def test_unusable_path_exits_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, command, out, source):
        forbid_draws(monkeypatch)
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept")
        argv = [command, "--config", write_config(tmp_path, base_config(
            probe={"count": 5, "lambda": 60.0}))]
        if source == "--out":
            argv += ["--out", out]
        else:
            monkeypatch.setenv(source, out)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {source}: cannot make directory {out!r}: ")
        assert Path("afile").read_text() == "kept"


class TestOptions:
    """Each command takes exactly its own options, the shared ones declared
    once and inherited, and requires exactly its own."""

    OPTIONS = {
        "constants": ("-h --help --json --alpha", "--alpha"),
        "sample": ("-h --help --json --config --seed --out --process --lambda --n",
                   "--config"),
        "simulate": ("-h --help --json --config --seed --out --workers --check",
                     "--config"),
        "stab-probe": ("-h --help --json --config --seed --out", "--config"),
        "rate": ("-h --help --json --report", "--report"),
    }

    def test_option_strings_per_command(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sub.choices.keys() == self.OPTIONS.keys()
        for command, (options, required) in self.OPTIONS.items():
            actions = sub.choices[command]._actions
            assert {s for a in actions for s in a.option_strings} == \
                set(options.split()), command
            assert {s for a in actions if a.required for s in a.option_strings} == \
                set(required.split()), command


class TestSharedBlocks:
    """simulate validates the probe block it does not use, as stab-probe does."""

    @pytest.mark.parametrize("probe, named", [
        ({"bogus": 1, "count": -3}, '"bogus"'),
        ({"count": -3, "lambda": 60.0}, "count"),
        ({"count": 5}, '"lambda"'),
        ("x", "probe"),
    ])
    def test_simulate_rejects_bad_probe(self, tmp_path, capsys, probe, named):
        path = write_config(tmp_path, base_config(probe=probe, replicates=4))
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "s")]) == 2
        assert named in capsys.readouterr().err

    def test_simulate_rejects_bad_check(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(check={"se_multiplier": "wide"},
                                                  replicates=4))
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "s")]) == 2
        assert "check.se_multiplier" in capsys.readouterr().err

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, 0.0, -1.0])
    def test_se_multiplier_must_be_positive_and_finite(self, tmp_path, capsys,
                                                       multiplier):
        # NaN or inf would pass every check, 0 or -1 fail every one
        path = write_config(tmp_path, base_config(
            check={"se_multiplier": multiplier}, replicates=4))
        assert cli.main(["simulate", "--config", path, "--check",
                         "--out", str(tmp_path / "s")]) == 2
        assert "check.se_multiplier" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["simulate", "sample", "stab-probe"])
    def test_infinite_probe_lambda_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, base_config(
            probe={"count": 5, "lambda": math.inf}, replicates=4))
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
        assert "probe.lambda" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _box(lower, upper):
    return {"lower": lower, "upper": upper}


TWO_BOXES = [_box([0.0], [1.0]), _box([2.0], [3.0])]


class TestBadValues:
    """A bad value anywhere in the plan is a config error naming its key, in
    both commands that build the plan."""

    @pytest.mark.parametrize("overrides, named", [
        ({"density": {"boxes": [_box(["a"], [1.0])], "weights": [1.0]}},
         "density.boxes[0].lower[0]"),
        ({"regions": [[_box([0.5], [0.5])]]}, "regions[0][0]"),
        ({"density": {"boxes": [_box(0.0, [1.0])], "weights": [1.0]}},
         "density.boxes[0].lower"),
        ({"density": {"boxes": [_box([0.0], [1.0])], "weights": ["heavy"]}},
         "density.weights[0]"),
        ({"density": {"boxes": [_box([0.0], [1.0])], "weights": [-1.0]}},
         "density.weights"),
        ({"test_functions": [{"kind": "piecewise", "values": ["x"]}]},
         "test_functions[0].values[0]"),
        # JSON's Infinity and NaN read as floats; the kNN plan has no
        # targets, so only the test function's own rule stops a draw
        ({"test_functions": [{"kind": "piecewise", "values": [math.inf]}]},
         "test_functions[0]: piecewise values must be finite"),
        ({"functional": {"family": "knn_undirected", "k": 1, "alpha": 1.0},
          "test_functions": [{"kind": "piecewise", "values": [math.nan]}]},
         "test_functions[0]: piecewise values must be finite"),
        # 1e308 squared is beyond a double at a finite constant
        ({"test_functions": [{"kind": "piecewise", "values": [1e308]}]},
         "config error: test_functions[0]: the closed-form targets overflow "
         "a double\n"),
        ({"seed": 4.5}, "seed"),
        ({"functional": {"family": "nn_directed", "k": "two"}}, "functional.k"),
        ({"functional": {"family": "nn_directed", "alpha": -1.0}},
         "functional: alpha"),
        ([1, 2], "config must be a JSON object"),
        ({"lambda_grid": [200.0, 100.0]}, "lambda_grid"),
        ({"replicates": 1}, "replicates"),
        # replicate r draws stream r, which must stay below the retry streams
        ({"replicates": (1 << 32) + 1}, "config error: replicates must be an "
         "integer from 2 to 2^32, got 4294967297\n"),
        ({"regions": [[_box([0.0], [0.6])], [_box([0.4], [1.0])]]}, "regions"),
        ({"lambda_grid": [-5.0, 100.0]}, "lambda_grid"),
        ({"lambda_grid": [0.0]}, "lambda_grid"),
        ({"lambda_grid": [math.nan]}, "lambda_grid"),
        ({"t_grid": [0.0, math.nan]}, "t_grid"),
        # both CDFs read 0 or 1 at an infinite threshold, and strict JSON
        # has no Infinity to write it with
        ({"t_grid": [math.inf]}, "t_grid values must be finite"),
        ({"density": {"boxes": [_box([0.0], [1.0])], "weights": [math.inf]}},
         "density"),
        ({"density": {"boxes": [_box([0.0], [math.inf])], "weights": [1.0]}},
         "density"),
        ({"density": {"boxes": [_box([0.0], [math.inf])], "homogeneous": True}},
         "density"),
        # 4 * 13^4 threshold nodes are over the product-form budget
        ({"density": {"boxes": [_box([0.0], [4.0])], "weights": [0.25]},
          "regions": [[_box([i], [i + 1.0])] for i in range(4)]}, "t_grid"),
        # no point ever falls in the second region
        ({"regions": [[_box([0.0], [1.0])], [_box([5.0], [6.0])]]},
         "regions[1]"),
        ({"density": {"boxes": [_box([0.0], [1.0]), _box([1.0], [2.0])],
                      "weights": [1.0, 0.0]},
          "regions": [[_box([0.0], [1.0])], [_box([1.0], [2.0])]]},
         "regions[1]"),
        # the second function is nonzero only where no point falls
        ({"density": {"boxes": [_box([0.0], [1.0]), _box([1.0], [2.0])],
                      "weights": [1.0, 0.0]},
          "regions": [[_box([0.0], [0.5])],
                      [_box([0.5], [0.6]), _box([1.0], [1.5])]],
          "test_functions": [{"kind": "indicator"},
                             {"kind": "piecewise", "values": [0.0, 5.0]}]},
         "config error: test_functions[1] is 0 on every box that meets a "
         "density box of positive weight\n"),
        # a string or a bool is not a number
        ({"replicates": "20"}, "replicates"),
        ({"functional": {"family": "nn_directed", "alpha": "1.0"}},
         "functional.alpha"),
        ({"lambda_grid": ["50", 100.0]}, "lambda_grid[0]"),
        ({"functional": {"family": "nn_directed", "alpha": True}},
         "functional.alpha"),
        # rules the library types own
        ({"functional": {"family": "voronoi"}}, "functional"),
        ({"test_functions": [{"kind": "step"}]}, "test_functions[0]"),
        ({"test_functions": [{"kind": "piecewise"}]}, "test_functions[0]"),
        ({"regions": [[_box([0.0, 0.0], [1.0, 1.0])]]}, "regions[0]"),
        ({"regions": [[_box([0.0], [1.0, 1.0])]]}, "regions[0][0]"),
        ({"regions": [[]]}, "regions[0]"),
        ({"test_functions": [{"kind": "indicator", "values": [5.0, 7.0]}]},
         "test_functions[0]"),
        ({"test_functions": [{"kind": "indicator"}] * 2},
         "test_functions has 2 entries for 1 regions"),
        ({"functional": {"family": "nn_directed", "alpha": math.inf}},
         "functional: alpha"),
        # a JSON string is not a boolean, whatever it says
        ({"density": {"boxes": [_box([0.0], [1.0])], "homogeneous": "false"}},
         "density.homogeneous"),
        ({"density": {"boxes": [_box([0.0], [1.0])], "weights": [3.0],
                      "normalized": "false"}}, "density.normalized"),
        ({"density": {"boxes": [_box([0.0], [1.0])], "weights": [2.0],
                      "normalized": True}},
         "config error: density.weights: probability density must integrate "
         "to 1, got 2.0\n"),
    ], ids=["bound_not_number", "lower_not_below_upper", "scalar_lower",
            "weight_not_number", "negative_weight", "value_not_number",
            "value_infinite", "value_nan", "value_overflows_targets",
            "seed_not_integer", "k_not_integer", "alpha_not_positive",
            "config_not_object", "lambda_grid_decreasing", "one_replicate",
            "replicates_beyond_streams", "regions_overlap", "lambda_negative", "lambda_zero", "lambda_nan",
            "t_grid_nan", "t_grid_infinite", "weight_infinite", "bound_infinite",
            "homogeneous_infinite", "grid_over_budget", "region_outside_density",
            "region_on_zero_weight", "test_function_zero_where_points_fall",
            "replicates_string", "alpha_string",
            "lambda_string", "alpha_bool", "family_unknown", "kind_unknown",
            "piecewise_without_values", "box_of_other_dimension",
            "bounds_of_unequal_length", "region_without_boxes",
            "indicator_with_values", "test_function_count", "alpha_infinite",
            "homogeneous_string", "normalized_string", "normalized_mass"])
    def test_simulate_exits_2_naming_the_key(self, tmp_path, capsys,
                                             overrides, named):
        cfg = (base_config(**{"replicates": 4, **overrides})
               if isinstance(overrides, dict) else overrides)
        path = write_config(tmp_path, cfg)
        # sample builds the same plan, so it rejects the same values
        for command in ("simulate", "sample"):
            assert cli.main([command, "--config", path,
                             "--out", str(tmp_path / command)]) == 2
            assert named in capsys.readouterr().err
            assert not (tmp_path / command).exists()

    def test_overflowing_targets_exit_2_before_any_draw(self, tmp_path, capsys,
                                                        monkeypatch):
        # alpha = 100 passes every rule of the functional, but v_alpha
        # overflows a double, so the directed targets cannot be reported
        forbid_draws(monkeypatch)
        path = write_config(tmp_path, base_config(
            functional={"family": "nn_directed", "alpha": 100.0},
            lambda_grid=[50.0, 100.0], replicates=20))
        for command in ("simulate", "sample"):
            assert cli.main([command, "--config", path,
                             "--out", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err == (
                "config error: functional.alpha=100: the closed-form targets "
                "overflow a double\n")
            assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("command", ["simulate", "sample", "stab-probe"])
    @pytest.mark.parametrize("source, value", [
        ("--seed", -1), ("--seed", 1 << 64), ("seed", -1), ("seed", 1 << 64),
        ("STABPP_SEED", -1), ("STABPP_SEED", 1 << 64),
    ])
    def test_seed_outside_64_bits_exits_2_naming_its_source(
            self, tmp_path, capsys, monkeypatch, command, source, value):
        # a masked seed would replay another: -1 the seed 2^64 - 1, 2^64 seed 0
        forbid_draws(monkeypatch)
        cfg = base_config(replicates=4, probe={"count": 5, "lambda": 60.0})
        argv = [command, "--out", str(tmp_path / "o")]
        if source == "--seed":
            argv += ["--seed", str(value)]
        elif source == "seed":
            cfg["seed"] = value
        else:
            del cfg["seed"]
            monkeypatch.setenv(source, str(value))
        argv += ["--config", write_config(tmp_path, cfg)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: {source} must be an integer in [0, 2^64), "
            f"got {value}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, overrides, named", [
        (["sample", "--lambda", "1e308"], {}, "--lambda 1e+308"),
        (["sample", "--process", "homogeneous", "--lambda", "1e308"], {},
         "--lambda 1e+308"),
        (["sample", "--process", "binomial", "--lambda", "1e308"],
         {"density": {"boxes": TWO_BOXES, "weights": [3.0, 1.0]}},
         "--lambda 1e+308"),
        (["sample", "--process", "binomial", "--lambda", "1e308"], {},
         "--lambda 1e+308"),
        (["sample", "--process", "binomial", "--n", str(10 ** 20)], {},
         f"--n {10 ** 20}"),
        (["sample", "--process", "binomial", "--n", str(int(MAX_COUNT))], {},
         f"--n {int(MAX_COUNT)}"),
        (["simulate"], {"lambda_grid": [1e300]}, "lambda_grid value 1e+300"),
        (["sample"], {"lambda_grid": [1e300]}, "lambda_grid value 1e+300"),
        *[([command], {"probe": {"count": 5, "lambda": 1e308}},
           "probe.lambda 1e+308") for command in ("stab-probe", "simulate", "sample")],
    ], ids=["poisson", "homogeneous", "binomial_mass_4", "binomial_mass_1", "n",
            "n_at_the_limit", "simulate_grid", "sample_grid", "probe",
            "simulate_probe", "sample_probe"])
    def test_count_beyond_numpy_exits_2_before_any_draw(
            self, tmp_path, capsys, monkeypatch, argv, overrides, named):
        # numpy draws no Poisson mean at or above MAX_COUNT, nor a fixed n
        # beyond an int64: such a count is refused with the flag or key.
        # The default density has weights (1, 0) on two unit boxes: mass 1.
        forbid_draws(monkeypatch)
        cfg = base_config(**{
            "density": {"boxes": TWO_BOXES, "weights": [1.0, 0.0]},
            "regions": [TWO_BOXES[:1]], "replicates": 4,
            "probe": {"count": 5, "lambda": 60.0}, **overrides})
        assert cli.main(argv + ["--config", write_config(tmp_path, cfg),
                                "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}: a count of ")
        assert err.endswith(" points is at or above the limit 9.223e+18\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, env, named", [
        (["sample", "--lambda", "-5"], None, "--lambda"),
        (["sample", "--lambda", "0"], None, "--lambda"),
        (["sample", "--lambda", "nan"], None, "--lambda"),
        (["sample", "--lambda", "inf"], None, "--lambda"),
        (["sample", "--process", "binomial", "--n", "-3"], None, "--n"),
        (["sample", "--process", "poisson", "--n", "5"], None, "--n"),
        (["sample", "--process", "homogeneous", "--n", "5"], None, "--n"),
        (["simulate", "--workers", "-3"], None, "--workers"),
        (["simulate", "--workers", "0"], None, "--workers"),
        (["simulate"], "0", "STABPP_WORKERS"),
        (["simulate", "--workers", TOO_MANY_WORKERS], None, "--workers"),
        (["simulate"], TOO_MANY_WORKERS, "STABPP_WORKERS"),
    ], ids=["lambda_negative", "lambda_zero", "lambda_nan", "lambda_infinite",
            "n_negative", "n_poisson", "n_homogeneous", "workers_negative",
            "workers_zero", "env_workers_zero", "workers_above_cpus",
            "env_workers_above_cpus"])
    def test_bad_flag_exits_2_naming_the_flag(self, tmp_path, capsys,
                                              monkeypatch, argv, env, named):
        # a pool forks all its workers at once: a stub in place of the pool
        # class fails the test, forking nothing, if a bad count gets through
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        if env is not None:
            monkeypatch.setenv("STABPP_WORKERS", env)
        path = write_config(tmp_path, base_config(replicates=4))
        assert cli.main(argv + ["--config", path,
                                "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "o").exists()


class TestEmptyLists:
    """An empty plan list, or an empty list in place of the whole config, is a
    config error naming its key, in every command that reads the config,
    before any replicate runs."""

    @pytest.mark.parametrize("command", ["simulate", "sample", "stab-probe"])
    @pytest.mark.parametrize("key", ["regions", "lambda_grid", "t_grid", "config"])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, command, key):
        cfg = ([] if key == "config"
               else base_config(probe={"count": 5, "lambda": 60.0}, **{key: []}))
        path = write_config(tmp_path, cfg)
        assert cli.main([command, "--config", path,
                         "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRateTable:
    """rate.csv marks an intensity used_in_fit exactly when the report's
    rate_fit lists it, so a skipped fit marks every row 0."""

    @staticmethod
    def run(tmp_path, capsys, replicates, warning):
        # the criterion-5 plan at seed 1; the censoring warning is one
        # stderr line, with no source path
        cfg = write_config(tmp_path, base_config(
            functional={"family": "nn_directed", "alpha": 3.0},
            lambda_grid=[100.0, 400.0, 1600.0, 6400.0], replicates=replicates,
            seed=1))
        out = tmp_path / "run"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "warning" in line] == [warning]
        payload = json.loads((out / "report.json").read_text())["payload"]
        rows = (out / "rate.csv").read_text().splitlines()
        return payload, [row.split(",") for row in rows[1:5]], rows

    def test_skipped_fit_uses_no_intensity(self, tmp_path, capsys):
        # at 1000 replicates lambda = 100 and 400 sit above the noise floor,
        # two intensities, too few to fit
        payload, rows, lines = self.run(
            tmp_path, capsys, 1000, "warning: lambdas [1600.0, 6400.0] censored "
            "from rate fit: discrepancy below noise floor 0.03162")
        assert payload["rate_fit"] is None
        assert payload["censored_lambdas"] == [1600.0, 6400.0]
        assert [(lam, used) for lam, _, used in rows] == [
            ("100", "0"), ("400", "0"), ("1600", "0"), ("6400", "0")]
        assert len(lines) == 5  # no fit row

    def test_fitted_run_marks_the_fitted_intensities(self, tmp_path, capsys):
        payload, rows, lines = self.run(
            tmp_path, capsys, 2000, "warning: lambdas [6400.0] censored from "
            "rate fit: discrepancy below noise floor 0.02236")
        assert payload["rate_fit"]["lambdas_used"] == [100.0, 400.0, 1600.0]
        assert [(lam, used) for lam, _, used in rows] == [
            ("100", "1"), ("400", "1"), ("1600", "1"), ("6400", "0")]
        assert lines[5] == "slope,intercept,r_squared"


class TestRateCommand:
    def test_refit_from_synthetic_report(self, tmp_path, capsys):
        lams = [100.0, 400.0, 1600.0]
        payload = {
            "replicates": 10_000,
            "per_lambda": [{"lambda": lam,
                            "joint_discrepancy": 2.0 * lam ** -0.5}
                           for lam in lams],
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"meta": {}, "payload": payload}))
        assert cli.main(["rate", "--report", str(path), "--json"]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0)

    def test_refit_refuses_noise_floor(self, tmp_path, capsys):
        payload = {
            "replicates": 100,
            "per_lambda": [{"lambda": lam, "joint_discrepancy": 0.001}
                           for lam in (10.0, 20.0, 40.0)],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"payload": payload}))
        assert cli.main(["rate", "--report", str(path)]) == 1

    def test_missing_report_is_usage_error(self, tmp_path):
        assert cli.main(["rate", "--report", str(tmp_path / "nope.json")]) == 2

    def test_integral_float_replicates_accepted(self, tmp_path, capsys):
        # the number rule of plans: an integer key takes an integral float
        payload = {"replicates": 10_000.0,
                   "per_lambda": [{"lambda": lam, "joint_discrepancy": lam ** -0.5}
                                  for lam in (100.0, 400.0, 1600.0)]}
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"payload": payload}))
        assert cli.main(["rate", "--report", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["slope"] == pytest.approx(-0.5)

    @staticmethod
    def _write_report(tmp_path, doc):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _assert_rejected(self, path, capsys, named):
        assert cli.main(["rate", "--report", path, "--json"]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == ""

    def test_report_not_an_object_exits_2(self, tmp_path, capsys):
        path = self._write_report(tmp_path, [{"payload": {}}])
        self._assert_rejected(path, capsys, "report must be a JSON object")

    @pytest.mark.parametrize("entry, payload, named", [
        ({"lambda": None}, {}, 'key "lambda" in per_lambda[1]'),
        ({"joint_discrepancy": None}, {},
         'key "joint_discrepancy" in per_lambda[1]'),
        ({"lambda": -100.0}, {}, "per_lambda[1].lambda"),
        ({"lambda": 0.0}, {}, "per_lambda[1].lambda"),
        ({"lambda": math.inf}, {}, "per_lambda[1].lambda"),
        ({"joint_discrepancy": 1.5}, {}, "per_lambda[1].joint_discrepancy"),
        ({"joint_discrepancy": -0.1}, {}, "per_lambda[1].joint_discrepancy"),
        ({"joint_discrepancy": math.nan}, {}, "per_lambda[1].joint_discrepancy"),
        ({"joint_discrepancy": "0.05"}, {}, "per_lambda[1].joint_discrepancy"),
        ({}, {"replicates": None}, '"replicates"'),
        ({}, {"replicates": 1}, "replicates"),
        ({}, {"replicates": 2.5}, "replicates"),
        ({}, {"replicates": True}, "replicates"),
        ({}, {"replicates": 1 << 64}, "config error: replicates must be an "
         "integer from 2 to 2^32, got 18446744073709551616\n"),
        ({"lambda": True}, {}, "per_lambda[1].lambda"),
        # a simulate report's intensities increase strictly, as its
        # lambda_grid does; a fit through a repeat means nothing
        ({"lambda": 100.0}, {}, "per_lambda[1].lambda must be above"),
        ({"lambda": 50.0}, {}, "per_lambda[1].lambda must be above"),
    ], ids=["no_lambda", "no_discrepancy", "lambda_negative", "lambda_zero",
            "lambda_infinite", "discrepancy_above_1", "discrepancy_negative",
            "discrepancy_nan", "discrepancy_string", "no_replicates",
            "one_replicate", "replicates_not_integer", "replicates_bool",
            "replicates_beyond_streams",
            "lambda_bool", "lambda_repeated", "lambda_decreasing"])
    def test_bad_report_exits_2_naming_the_key(self, tmp_path, capsys,
                                               entry, payload, named):
        """Each bad value of a report is a config error naming its key,
        before any fit; a None value removes the key."""
        per_lambda = [{"lambda": lam, "joint_discrepancy": 2.0 * lam ** -0.5}
                      for lam in (100.0, 400.0, 1600.0, 6400.0)]
        doc = {"replicates": 10_000, "per_lambda": per_lambda}
        for target, edits in ((per_lambda[1], entry), (doc, payload)):
            for key, value in edits.items():
                if value is None:
                    del target[key]
                else:
                    target[key] = value
        path = self._write_report(tmp_path, {"payload": doc})
        self._assert_rejected(path, capsys, named)

    def test_refit_equals_the_report_rate_fit(self, tmp_path, capsys):
        """A simulate report refits to its own rate_fit, censoring included:
        at 2000 replicates the floor 1/sqrt(2000) censors lambda = 6400."""
        cfg = write_config(tmp_path, base_config(
            functional={"family": "nn_directed", "alpha": 3.0},
            lambda_grid=[100.0, 400.0, 1600.0, 6400.0], replicates=2000, seed=1))
        out = tmp_path / "run"
        warning = ("warning: lambdas [6400.0] censored from rate fit: "
                   "discrepancy below noise floor 0.02236")
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert warning in capsys.readouterr().err.splitlines()
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["censored_lambdas"] == [6400.0]
        assert payload["rate_fit"]["lambdas_used"] == [100.0, 400.0, 1600.0]
        assert cli.main(["rate", "--report", str(out / "report.json"),
                         "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == payload["rate_fit"]
        assert captured.err == warning + "\n"


def _strict_loads(text):
    """``json.loads`` refusing NaN and Infinity, as strict JSON readers do."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    def test_every_json_output_is_strict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(
            lambda_grid=[60.0, 120.0], replicates=20,
            probe={"count": 10, "resamples": 2, "lambda": 60.0}))
        report = tmp_path / "synthetic.json"
        report.write_text(json.dumps({"payload": {
            "replicates": 10_000,
            "per_lambda": [{"lambda": lam, "joint_discrepancy": d}
                           for lam, d in ((100.0, 0.08), (400.0, 0.05),
                                          (1600.0, 0.025))]}}))
        for argv, out in ((["constants", "--alpha", "1", "2.5"], None),
                          (["sample", "--config", cfg], None),
                          (["simulate", "--config", cfg], tmp_path / "sim"),
                          (["stab-probe", "--config", cfg], tmp_path / "probe"),
                          (["rate", "--report", str(report)], None)):
            extra = [] if out is None else ["--out", str(out)]
            assert cli.main(argv + extra + ["--json"]) == 0, argv
            _strict_loads(capsys.readouterr().out)
            if out is not None:
                _strict_loads((out / "report.json").read_text())

    def test_non_finite_report_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_report(str(tmp_path), {"x": math.inf}, {}, 0, time.time())
        assert not (tmp_path / "report.json").exists()


def _inline_fit(x, y):
    # the least-squares arithmetic the rate and probe fits each used to
    # carry; the shared helper must return the same floats
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2


class TestFitPayloads:
    def test_rate_fit_floats(self, tmp_path, capsys):
        lams = [100.0, 400.0, 1600.0, 6400.0]
        ds = [0.0871234, 0.0512345, 0.0253456, 0.0134567]
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"payload": {
            "replicates": 10_000,
            "per_lambda": [{"lambda": lam, "joint_discrepancy": d}
                           for lam, d in zip(lams, ds)]}}))
        assert cli.main(["rate", "--report", str(path), "--json"]) == 0
        fit = json.loads(capsys.readouterr().out)
        slope, intercept, r2 = _inline_fit(np.log(lams), np.log(ds))
        assert (fit["slope"], fit["intercept"], fit["r_squared"]) == (slope, intercept, r2)

    @pytest.mark.parametrize("dim, functional, probe", [
        (1, {"family": "nn_directed", "alpha": 1.0},
         {"count": 60, "resamples": 3, "lambda": 200.0}),
        (2, {"family": "knn_undirected", "k": 2, "alpha": 1.0},
         {"count": 12, "resamples": 2, "lambda": 80.0}),
        # the directed probe in the plane scores by nn_distances' one-row pass
        (2, {"family": "nn_directed", "alpha": 1.0},
         {"count": 20, "resamples": 2, "lambda": 50.0}),
    ], ids=["functional0-probe0", "functional1-probe1", "directed_plane"])
    def test_probe_fit_floats(self, tmp_path, capsys, dim, functional, probe):
        unit = {"lower": [0.0] * dim, "upper": [1.0] * dim}
        cfg = write_config(tmp_path, base_config(
            dimension=dim, density={"boxes": [unit], "homogeneous": True},
            regions=[[unit]], functional=functional, probe=probe, seed=3))
        assert cli.main(["stab-probe", "--config", cfg, "--json",
                         "--out", str(tmp_path / "probe")]) == 0
        doc = json.loads(capsys.readouterr().out)
        # the tail is nonincreasing, so the fitted rows are the ones inside
        # the reported window
        lo, hi = doc["fit_window"]
        rows = [r for r in doc["tail"] if lo <= r["t"] <= hi]
        slope, _, r2 = _inline_fit(np.array([r["t"] for r in rows]),
                                   np.log([r["tail_prob"] for r in rows]))
        assert (doc["decay_slope"], doc["r_squared"]) == (slope, r2)


_NO_SCIPY_RUN = """
import functools, json, sys
sys.modules["scipy"] = None          # any scipy import now fails
from stabpp import cli
engine, entered = cli.run_experiment, []
@functools.wraps(engine)
def entry(*args, **kwargs):
    entered.append(set(sys.modules))
    return engine(*args, **kwargs)
cli.run_experiment = entry
before = set(sys.modules)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "added": sorted(set(sys.modules) - before),
                  "in_engine": sorted(set(sys.modules) - entered[0]),
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""


def _run_without_scipy(argvs):
    """The result of ``_NO_SCIPY_RUN`` on the argvs, in a fresh interpreter,
    so the test suite's own imports cannot hide a late one."""
    src = str(Path(stabpp.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", _NO_SCIPY_RUN, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": src, "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestImportBudget:
    def test_runs_without_scipy_and_imports_nothing_late(self, tmp_path):
        """The CLI runs with scipy blocked, and after ``import stabpp.cli``
        a simulate or a probe loads no further module (a lazy import would
        land in the timed part of the run); no serial command loads the
        process pool's ``multiprocessing``."""
        plan_1d = write_config(tmp_path, base_config(
            lambda_grid=[50.0, 100.0], replicates=12), "d1.json")
        plan_2d = write_config(tmp_path, knn_halves_config(
            2, lambda_grid=[60.0, 120.0], replicates=6, seed=5), "d2.json")
        probe = write_config(tmp_path, base_config(
            probe={"count": 20, "resamples": 2, "lambda": 60.0}), "probe.json")
        argvs = [["constants", "--alpha", "1", "2"],
                 ["simulate", "--config", plan_1d, "--out", str(tmp_path / "o1")],
                 ["simulate", "--config", plan_2d, "--out", str(tmp_path / "o2")],
                 ["stab-probe", "--config", probe, "--out", str(tmp_path / "o3")]]
        assert _run_without_scipy(argvs) == {
            "codes": [0, 0, 0, 0], "added": [], "in_engine": [],
            "multiprocessing": False}

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 CPUs")
    def test_pool_modules_load_before_the_engine(self, tmp_path):
        """``simulate --workers 2`` loads the pool's modules in set-up, so no
        module is added between entering the engine and ``main`` returning."""
        plan = write_config(tmp_path, base_config(
            lambda_grid=[50.0, 100.0], replicates=12))
        argvs = [["simulate", "--config", plan, "--workers", "2",
                  "--out", str(tmp_path / "o")]]
        result = _run_without_scipy(argvs)
        assert (result["codes"], result["in_engine"],
                result["multiprocessing"]) == ([0], [], True)
