"""Command-line driver: constants tables, sampling, simulation, probes, rate fits.

Configuration is a single JSON document validated against a strict schema
(unknown keys are rejected).  Precedence for shared settings is flags over
config over ``STABPP_*`` environment variables.  Reports embed the artifact
version, the seed, and a SHA-256 of the canonical config; wall-clock fields
live only in the ``meta`` block so the numeric ``payload`` is byte-identical
across reruns with the same seed.

Exit codes: 0 success, 1 runtime or check failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import locale  # noqa: F401  argparse's gettext would import it building the parser
import math
import os
import sys
import time
import warnings

# One BLAS thread, set before numpy loads below.  OpenBLAS would start a
# busy-waiting thread per core, which no step uses, and split dot products of
# over 10,000 elements across them, so payload bytes would follow the core
# count.  Assigned, not defaulted, so the caller's environment cannot either.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from . import __version__  # noqa: E402
from .experiments import ExperimentPlan, check_targets, fit_rate, run_experiment  # noqa: E402
from .functionals import FunctionalSpec, TestFunctionSpec, stabilization_probe  # noqa: E402
from .point_process import (MAX_REPLICATES, DensitySpec, check_count,  # noqa: E402
                            sample_binomial, sample_poisson)
from .regions import Box, Region  # noqa: E402
from .special import delta_alpha, delta_alpha_sq, exp_moment, v_alpha  # noqa: E402

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_ENV_PREFIX = "STABPP_"


class ConfigError(ValueError):
    """A usage or configuration error: a bad flag, setting or config value."""


# ---------------------------------------------------------------------------
# config parsing

def _require_keys(obj: dict, where: str, required: tuple[str, ...],
                  optional: tuple[str, ...] = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f'unknown key "{key}" in {where}')
    for key in required:
        if key not in obj:
            raise ConfigError(f'missing required key "{key}" in {where}')


def _parse_number(value, where: str, cast=float):
    """A JSON number as ``cast``, in plans and reports alike: a bool or a
    string is not a number, and an integer key takes an integral float."""
    try:
        if type(value) in (int, float) and (cast is float or value == int(value)):
            return cast(value)
    except (ValueError, OverflowError):  # int() of NaN or inf, float() of a huge int
        pass
    kind = "an integer" if cast is int else "a number"
    raise ConfigError(f"{where} must be {kind}, got {value!r}")


def _parse_numbers(values, where: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(f"{where} must be a list of numbers")
    return tuple(_parse_number(v, f"{where}[{i}]") for i, v in enumerate(values))


def _build(cls, where: str, **fields):
    """``cls(**fields)``, its ValueError turned into a ConfigError naming ``where``."""
    try:
        return cls(**fields)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _seed(config: dict, flag: int | None) -> int:
    """The run seed: the flag, else the config's "seed", else STABPP_SEED,
    else 0.  Each one given must be an integer in [0, 2^64)."""
    seed = config.get("seed")
    sources = {"--seed": flag,
               "seed": None if seed is None else _parse_number(seed, "seed", int),
               _ENV_PREFIX + "SEED": _setting(None, "SEED", int, None)}
    for where, value in sources.items():
        if value is not None and not 0 <= value < 1 << 64:
            raise ConfigError(f"{where} must be an integer in [0, 2^64), got {value}")
    return next((v for v in sources.values() if v is not None), 0)


def _check_count(count, where: str):
    """``point_process.check_count``, its refusal a ConfigError."""
    try:
        return check_count(count, where)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _parse_box(obj: dict, where: str) -> Box:
    _require_keys(obj, where, ("lower", "upper"))
    return _build(Box, where, lower=_parse_numbers(obj["lower"], f"{where}.lower"),
                  upper=_parse_numbers(obj["upper"], f"{where}.upper"))


def _parse_region(boxes: list, where: str, dimension: int) -> Region:
    if not isinstance(boxes, list):
        raise ConfigError(f"{where} must be a list of boxes")
    return _build(Region, where, dimension=dimension,
                  boxes=tuple(_parse_box(b, f"{where}[{i}]")
                              for i, b in enumerate(boxes)))


def _parse_density(obj: dict, dimension: int) -> DensitySpec:
    _require_keys(obj, "density", ("boxes",),
                  ("weights", "homogeneous", "normalized"))
    region = _parse_region(obj["boxes"], "density.boxes", dimension)
    flags = {key: obj.get(key, False) for key in ("homogeneous", "normalized")}
    for key, value in flags.items():
        if not isinstance(value, bool):  # "false" would read as true
            raise ConfigError(f"density.{key} must be true or false, got {value!r}")
    if flags["homogeneous"]:
        if "weights" in obj:
            raise ConfigError('density: "homogeneous" and "weights" conflict')
        return _build(DensitySpec.homogeneous, "density", region=region)
    if "weights" not in obj:
        raise ConfigError('missing required key "weights" in density')
    density = _build(DensitySpec, "density.weights", region=region,
                     weights=_parse_numbers(obj["weights"], "density.weights"))
    if flags["normalized"] and abs(density.total_mass - 1.0) > 1e-9:
        raise ConfigError(f"density.weights: probability density must "
                          f"integrate to 1, got {density.total_mass}")
    return density


def _parse_functional(obj: dict) -> FunctionalSpec:
    _require_keys(obj, "functional", ("family",), ("k", "alpha"))
    return _build(FunctionalSpec, "functional", family=obj["family"],
                  k=_parse_number(obj.get("k", 1), "functional.k", int),
                  alpha=_parse_number(obj.get("alpha", 1.0), "functional.alpha"))


def _parse_test_function(obj: dict, region: Region, where: str) -> TestFunctionSpec:
    _require_keys(obj, where, ("kind",), ("values",))
    values = obj.get("values")
    if values is not None:
        values = _parse_numbers(values, f"{where}.values")
    kind = obj["kind"]  # syntax only: the values alone define the function
    if kind not in ("indicator", "piecewise"):
        raise ConfigError(f"{where}: unknown test-function kind {kind!r}")
    if kind == "piecewise" and values is None:
        raise ConfigError(f"{where}: piecewise test function needs one value per box")
    if kind == "indicator" and values is not None:
        raise ConfigError(f"{where}: an indicator test function takes no values")
    return _build(TestFunctionSpec, where, region=region, values=values)


_TOP_KEYS_REQUIRED = ("dimension", "density", "regions", "functional",
                      "lambda_grid", "replicates")
_TOP_KEYS_OPTIONAL = ("seed", "test_functions", "t_grid", "probe", "check")
_PROBE_KEYS_REQUIRED = ("dimension", "density", "functional", "probe")


def _parse_plan_fields(config: dict) -> dict:
    """ExperimentPlan fields from the plan keys present in the config.

    Each key has one parser, so every command that reads a config rejects
    the same bad values, whether or not it uses them.
    """
    dimension = _parse_number(config["dimension"], "dimension", int)
    if dimension < 1:
        raise ConfigError("dimension must be >= 1")
    regions = config.get("regions", [])
    if not isinstance(regions, list) or ("regions" in config and not regions):
        raise ConfigError("regions must be a nonempty list of regions")
    fields = {
        "density": _parse_density(config["density"], dimension),
        "functional": _parse_functional(config["functional"]),
    }
    tf_cfg = config.get("test_functions", [{"kind": "indicator"}] * len(regions))
    if not isinstance(tf_cfg, list):
        raise ConfigError("test_functions must be a list of test functions")
    if len(tf_cfg) != len(regions):
        raise ConfigError(f"test_functions has {len(tf_cfg)} entries for "
                          f"{len(regions)} regions")
    fields["test_functions"] = tuple(
        _parse_test_function(o, _parse_region(r, f"regions[{i}]", dimension),
                             f"test_functions[{i}]")
        for i, (o, r) in enumerate(zip(tf_cfg, regions)))
    for key in ("lambda_grid", "t_grid"):
        if key in config:
            fields[key] = _parse_numbers(config[key], key)
            if not fields[key]:
                raise ConfigError(f"{key} must be a nonempty list of numbers")
    if "replicates" in config:
        fields["replicates"] = _parse_number(config["replicates"], "replicates", int)
    return fields


def _parse_probe_and_check(config: dict, density: DensitySpec
                           ) -> tuple[dict | None, float]:
    """The optional probe block (None when absent) and the check's
    standard-error multiplier (3 by default), validated for every command;
    ``density`` is the plan's, whose mass sets the probe's mean count."""
    probe = None
    if "probe" in config:
        obj = config["probe"]
        _require_keys(obj, "probe", ("count", "lambda"), ("resamples",))
        probe = {"count": _parse_number(obj["count"], "probe.count", int),
                 "lambda": _parse_number(obj["lambda"], "probe.lambda"),
                 "resamples": _parse_number(obj.get("resamples", 5),
                                            "probe.resamples", int)}
        if probe["count"] < 1 or probe["resamples"] < 1:
            raise ConfigError("probe needs count >= 1 and resamples >= 1")
        if not 1.0 <= probe["lambda"] < math.inf:
            raise ConfigError(
                f"probe.lambda must be finite and >= 1, got {probe['lambda']!r}")
        _check_count(probe["lambda"] * density.total_mass,
                     f"probe.lambda {probe['lambda']:g}")
    check = config.get("check", {})
    _require_keys(check, "check", (), ("se_multiplier",))
    se_multiplier = _parse_number(check.get("se_multiplier", 3.0),
                                  "check.se_multiplier")
    if not 0.0 < se_multiplier < math.inf:
        raise ConfigError(f"check.se_multiplier must be positive and finite, "
                          f"got {se_multiplier!r}")
    return probe, se_multiplier


def parse_plan(config: dict, seed_override: int | None = None) -> ExperimentPlan:
    """Validate a plan config and build the experiment plan, with every plan
    rule applied; the seed is the override, else the config's, else
    STABPP_SEED, else 0."""
    _require_keys(config, "config", _TOP_KEYS_REQUIRED, _TOP_KEYS_OPTIONAL)
    fields = _parse_plan_fields(config)
    try:
        return ExperimentPlan(seed=_seed(config, seed_override), **fields)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"malformed JSON in {path}: line {err.lineno} column {err.colno}: "
            f"{err.msg}") from err


def _setting(flag, name: str, cast, default):
    """A shared setting: the flag, else STABPP_<name> as ``cast``, else ``default``."""
    if flag is not None:
        return flag
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as err:
        raise ConfigError(f"bad {_ENV_PREFIX}{name}={raw!r}: {err}") from err


# ---------------------------------------------------------------------------
# report emission

def _write_report(out_dir: str, payload: dict, config: dict, seed: int,
                  started: float) -> str:
    """Write ``out_dir``/report.json: the payload, and a meta block of the
    artifact version, the config's SHA-256, the seed and the clock fields."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    meta = {
        "artifact_version": __version__,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": int(seed),
        "wall_clock_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "elapsed_seconds": time.time() - started,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    # serialized before the file opens, so a non-finite number leaves no file
    text = json.dumps({"meta": meta, "payload": payload}, sort_keys=True,
                      indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


_REGION_COLUMNS = ("mean", "se_mean", "scaled_mean", "var", "se_var",
                   "scaled_var", "target_mean", "target_var", "ks")
_FIT_COLUMNS = ("slope", "intercept", "r_squared")


def _write_csv(path: str, rows):
    """Write ``rows`` as CSV lines: a string as it is, None as an empty
    field, a number to 17 significant digits, so it reads back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else "" if v is None
                              else format(float(v), ".17g") for v in row) + "\n")


def _write_tables(out_dir: str, payload: dict):
    per_lambda = payload["per_lambda"]
    m = max((len(lr["regions"]) for lr in per_lambda), default=0)
    _write_csv(os.path.join(out_dir, "table.csv"), [
        ["lambda", "region", *_REGION_COLUMNS, "joint_discrepancy",
         *(f"corr_{j}" for j in range(m))],
        *([lr["lambda"], rs["index"], *(rs[key] for key in _REGION_COLUMNS),
           lr["joint_discrepancy"], *lr["correlations"][rs["index"]]]
          for lr in per_lambda for rs in lr["regions"])])
    fit = payload["rate_fit"]
    used = set() if fit is None else set(fit["lambdas_used"])
    rate = [("lambda", "joint_discrepancy", "used_in_fit"),
            *((lr["lambda"], lr["joint_discrepancy"], lr["lambda"] in used)
              for lr in per_lambda)]
    if fit is not None:
        rate += [_FIT_COLUMNS, [fit[key] for key in _FIT_COLUMNS]]
    _write_csv(os.path.join(out_dir, "rate.csv"), rate)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_constants(args) -> int:
    rows = []
    for a in args.alpha:
        try:
            rows.append({"alpha": a, "v_alpha": v_alpha(a),
                         "delta_alpha": delta_alpha(a), "mean_coeff": exp_moment(a),
                         "delta_alpha_sq": delta_alpha_sq(a)})
        except ValueError as err:
            raise ConfigError(f"--alpha: {err}") from err
    if args.json:
        print(json.dumps(rows, sort_keys=True, allow_nan=False))
        return EXIT_OK
    print(f'{"alpha":>8} {"V_alpha":>22} {"delta_alpha":>22} {"delta_alpha^2":>22} '
          f'{"mean_coeff":>22}')
    for r in rows:
        print(f'{r["alpha"]:>8g} {r["v_alpha"]:>22.15g} {r["delta_alpha"]:>22.15g} '
              f'{r["delta_alpha_sq"]:>22.15g} {r["mean_coeff"]:>22.15g}')
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.lam is not None and not 0.0 < args.lam < math.inf:
        raise ConfigError(f"--lambda must be positive and finite, got {args.lam:g}")
    if args.n is not None and args.n < 0:
        raise ConfigError(f"--n must be >= 0, got {args.n}")
    if args.n is not None and args.process != "binomial":
        raise ConfigError(f"--n applies to --process binomial only, not {args.process}")
    config = _load_config(args.config)
    plan = parse_plan(config, seed_override=args.seed)
    _parse_probe_and_check(config, plan.density)
    density, seed = plan.density, plan.seed
    if args.process == "homogeneous":  # the unit rate on the plan's region
        density = DensitySpec(density.region, (1.0,) * len(density.region.boxes))
    lam = args.lam if args.lam is not None else plan.lambda_grid[0]
    if args.n is not None:
        count = _check_count(args.n, f"--n {args.n}")
    else:  # the Poisson draw's mean count, and the binomial draw's default n
        count = _check_count(lam * density.total_mass, f"--lambda {lam:g}"
                             if args.lam is not None else f"lambda_grid value {lam:g}")
    if args.process == "binomial":
        cfg = sample_binomial(density, round(count), seed, stream=0)
    else:
        cfg = sample_poisson(density, lam, seed, stream=0)
    if args.json:
        print(json.dumps({"seed": seed, "lambda": lam, "count": len(cfg),
                          "points": cfg.points.tolist()}, allow_nan=False))
        return EXIT_OK
    out_dir = _setting(args.out, "OUT", str, ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "points.csv")
    _write_csv(path, [[f"x{j}" for j in range(density.region.dimension)], *cfg.points.tolist()])
    print(f"wrote {len(cfg)} points to {path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    started = time.time()
    config = _load_config(args.config)
    plan = parse_plan(config, seed_override=args.seed)
    _, se_multiplier = _parse_probe_and_check(config, plan.density)
    workers = _setting(args.workers, "WORKERS", int, 1)
    # a pool starts all its processes at once, so the count stays within the CPUs
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        source = "--workers" if args.workers is not None else _ENV_PREFIX + "WORKERS"
        raise ConfigError(f"{source} must be from 1 to the CPU count {cpus}, "
                          f"got {workers}")
    if workers > 1:
        # the pool's modules load here, in set-up, not in the engine's run:
        # the executor, and the fork and lock modules that starting it loads
        import concurrent.futures.process  # noqa: F401
        import multiprocessing.popen_fork  # noqa: F401
        import multiprocessing.synchronize  # noqa: F401
    out_dir = _setting(args.out, "OUT", str, ".")

    def progress(lam, entry):
        print(f"lambda={lam:g}: joint discrepancy "
              f"{entry['joint_discrepancy']:.5f}", file=sys.stderr)

    payload = run_experiment(plan, workers=workers, progress=progress)
    path = _write_report(out_dir, payload, config, plan.seed, started)
    _write_tables(out_dir, payload)
    print(json.dumps(payload, sort_keys=True, allow_nan=False) if args.json
          else f"wrote {path}")
    if args.check:
        failures = check_targets(payload, se_multiplier)
        if failures:
            for line in failures:
                print(f"check failed: {line}", file=sys.stderr)
            return EXIT_RUNTIME
        print("check passed", file=sys.stderr)
    return EXIT_OK


def _cmd_stab_probe(args) -> int:
    started = time.time()
    config = _load_config(args.config)
    _require_keys(config, "config", _PROBE_KEYS_REQUIRED,
                  _TOP_KEYS_REQUIRED + _TOP_KEYS_OPTIONAL)
    fields = _parse_plan_fields(config)
    probe, _ = _parse_probe_and_check(config, fields["density"])
    seed = _seed(config, args.seed)
    out_dir = _setting(args.out, "OUT", str, ".")
    payload = stabilization_probe(
        fields["density"], probe["lambda"], fields["functional"],
        probe_count=probe["count"], resample_count=probe["resamples"],
        seed=seed)
    path = _write_report(out_dir, payload, config, seed, started)
    _write_csv(os.path.join(out_dir, "tail.csv"), [
        ("t", "tail_prob", "censored_count"),
        *((row["t"], row["tail_prob"], payload["censored_count"])
          for row in payload["tail"])])
    print(json.dumps(payload, sort_keys=True, allow_nan=False) if args.json
          else f"wrote {path} (decay slope {payload['decay_slope']:.4f}, "
               f"R^2 {payload['r_squared']:.4f})")
    return EXIT_OK


_REPORT_VALUES = (
    ("lambda", lambda v: 0.0 < v < math.inf, "a positive finite number"),
    ("joint_discrepancy", lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"))


def _rate_inputs(doc) -> tuple[list, list, int]:
    """The intensities (strictly increasing), discrepancies and replicate
    count of a report (its payload, or the document itself), each checked."""
    payload = doc.get("payload", doc) if isinstance(doc, dict) else None
    if not isinstance(payload, dict):
        raise ConfigError("report must be a JSON object")
    per_lambda = payload.get("per_lambda")
    if not isinstance(per_lambda, list) or not per_lambda:
        raise ConfigError("report has no per_lambda block")
    for i, entry in enumerate(per_lambda):
        if not isinstance(entry, dict):
            raise ConfigError(f"per_lambda[{i}] must be a JSON object")
        for key, ok, kind in _REPORT_VALUES:
            if key not in entry:
                raise ConfigError(f'missing required key "{key}" in per_lambda[{i}]')
            if not ok(_parse_number(entry[key], f"per_lambda[{i}].{key}")):
                raise ConfigError(
                    f"per_lambda[{i}].{key} must be {kind}, got {entry[key]!r}")
        if i and not entry["lambda"] > per_lambda[i - 1]["lambda"]:
            raise ConfigError(f"per_lambda[{i}].lambda must be above the one "
                              f"before it, got {entry['lambda']!r}")
    if "replicates" not in payload:
        raise ConfigError('missing required key "replicates" in report')
    replicates = _parse_number(payload["replicates"], "replicates", int)
    if not 2 <= replicates <= MAX_REPLICATES:
        raise ConfigError(f"replicates must be an integer from 2 to 2^32, "
                          f"got {replicates!r}")
    return ([entry["lambda"] for entry in per_lambda],
            [entry["joint_discrepancy"] for entry in per_lambda], replicates)


def _cmd_rate(args) -> int:
    fit, _, note = fit_rate(*_rate_inputs(_load_config(args.report)))
    if fit is None:
        raise RuntimeError(f"{note}; cannot refit")
    print(json.dumps(fit, sort_keys=True, allow_nan=False) if args.json
          else f"slope {fit['slope']:.4f}  intercept {fit['intercept']:.4f}  "
               f"R^2 {fit['r_squared']:.4f}  (lambdas {fit['lambdas_used']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabpp",
        description="Monte Carlo toolkit for nearest-neighbour functionals "
                    "of Poisson point processes")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags every command takes, then those of the commands that read a plan
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true")
    planned = argparse.ArgumentParser(add_help=False, parents=[shared])
    planned.add_argument("--config", required=True)
    planned.add_argument("--seed", type=int)
    planned.add_argument("--out")

    p = sub.add_parser("constants", parents=[shared],
                       help="closed-form asymptotic constants")
    p.add_argument("--alpha", nargs="+", required=True, type=float)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("sample", parents=[planned],
                       help="draw one point configuration")
    p.add_argument("--process", choices=["poisson", "binomial", "homogeneous"],
                   default="poisson")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("simulate", parents=[planned],
                       help="run the Monte Carlo experiment")
    p.add_argument("--workers", type=int)
    p.add_argument("--check", action="store_true",
                   help="exit 1 if scaled moments miss their targets")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stab-probe", parents=[planned],
                       help="empirical stabilization radii")
    p.set_defaults(func=_cmd_stab_probe)

    p = sub.add_parser("rate", parents=[shared],
                       help="refit the convergence rate from a report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_rate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # a library warning reaches the user as one line, with no source path
        warnings.showwarning = (lambda message, *_: print(
            f"warning: {message}", file=sys.stderr))
        try:
            return args.func(args)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_USAGE
        except Exception as err:  # runtime failure contract: exit 1
            print(f"error: {err}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
