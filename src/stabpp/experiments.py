"""Monte Carlo engine: replication, moment estimators, normality diagnostics.

A plan fixes the density, the disjoint regions with their test functions, the
functional family, a grid of intensities, and a replicate count.  Replicate r
of any intensity draws its configuration from stream r of the plan seed, so
results are independent of worker count and scheduling; a draw with fewer than
k+1 points, wherever they lie, is redrawn up to 3 times, then the run aborts.

Per intensity the engine reports, for each region, the sample mean and
unbiased variance of the statistic with standard errors (the variance SE via
the fourth-central-moment formula), the intensity-scaled mean and variance
with their limiting targets where known, the Kolmogorov distance of the
standardized component to the standard normal, the sup over a threshold grid
of |joint empirical CDF - product of normal CDFs| (the product-form
discrepancy), and the pairwise correlations of the standardized components.
A log-log fit of discrepancy against intensity estimates the convergence
rate, after censoring intensities whose discrepancy sits below the Monte
Carlo noise floor ~ 1/sqrt(replicates).

The fixed-n counterpart of the scaled variance, n i.i.d. points of the plan's
density in place of a Poisson process, comes from ``binomial_scaled_variances``.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import point_process
from .functionals import (DIRECTED_NN, FunctionalSpec, TestFunctionSpec,
                          fit_line, t_vector)
from .point_process import (BINOMIAL_STREAM_BASE, DensitySpec, first_with,
                            replicate_streams, sample_binomial, sample_poisson)
from .regions import Region
from .special import delta_alpha_sq, exp_moment, ndtr, v_alpha

__all__ = [
    "DEFAULT_T_GRID",
    "ExperimentPlan",
    "run_replicates",
    "estimate_moments",
    "standardize",
    "ks_to_normal",
    "product_form_discrepancy",
    "fit_rate",
    "run_experiment",
    "check_targets",
    "binomial_scaled_variances",
]

DEFAULT_T_GRID = tuple(np.linspace(-3.0, 3.0, 13))


def __getattr__(name: str):
    # The pool class loads multiprocessing (about 20 ms and 1.8 MB), so only a
    # run with workers > 1 imports it; it stays ``experiments.ProcessPoolExecutor``,
    # the name a tracer may replace.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_GRID_BUDGET = 100_000  # m * g^m nodes: m axes of g thresholds each


def _check_grid(m: int, g: int, where: str) -> None:
    if m * g ** m > _GRID_BUDGET:
        raise ValueError(f"{where} of {g}^{m} nodes exceeds the budget "
                         f"{_GRID_BUDGET}; use a coarser grid")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one family of Monte Carlo runs.

    Each region lives once, as the support of its test function.
    """

    density: DensitySpec
    test_functions: tuple[TestFunctionSpec, ...]
    functional: FunctionalSpec
    lambda_grid: tuple[float, ...]
    replicates: int
    seed: int
    t_grid: tuple[float, ...] = DEFAULT_T_GRID

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(f.region for f in self.test_functions)

    def __post_init__(self):
        object.__setattr__(self, "test_functions", tuple(self.test_functions))
        object.__setattr__(self, "lambda_grid",
                           tuple(float(v) for v in self.lambda_grid))
        object.__setattr__(self, "t_grid", tuple(float(v) for v in self.t_grid))
        for name in ("test_functions", "lambda_grid", "t_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        regions = self.regions
        d = self.density.region.dimension
        for i, region in enumerate(regions):
            if region.dimension != d:
                raise ValueError(
                    f"regions[{i}] is {region.dimension}-d, the density {d}-d")
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                if not regions[i].disjoint_from(regions[j]):
                    raise ValueError(f"regions {i} and {j} overlap")
        if not 2 <= self.replicates <= point_process.MAX_REPLICATES:
            raise ValueError(f"replicates must be an integer from 2 to 2^32, "
                             f"got {self.replicates!r}")
        point_process._key(self.seed, 0)  # the seed rule, before any pool starts
        grid = self.lambda_grid
        if not all(0.0 < v < np.inf for v in grid):
            raise ValueError("lambda_grid values must be positive and finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("lambda_grid must be strictly increasing")
        point_process.check_count(grid[-1] * self.density.total_mass,
                                  f"lambda_grid value {grid[-1]:g}")
        # at an infinite threshold both CDFs read 0 or 1: it adds nothing
        if not np.isfinite(self.t_grid).all():
            raise ValueError("t_grid values must be finite")
        _check_grid(len(regions), len(self.t_grid), "t_grid")
        # a test function that is 0 wherever points fall is 0 in every
        # replicate, and its statistic cannot be standardized
        live = Region(d, tuple(b for w, b in zip(self.density.weights,
                                                 self.density.region.boxes) if w > 0.0))
        for i, f in enumerate(self.test_functions):
            meets = [not live.disjoint_from(Region(d, (box,)))
                     for box in f.region.boxes]
            if not any(meets):
                raise ValueError(f"regions[{i}] overlaps no density box of "
                                 f"positive weight")
            if not any(v != 0.0 for v, m in zip(f.values, meets) if m):
                raise ValueError(f"test_functions[{i}] is 0 on every box that "
                                 f"meets a density box of positive weight")
        _targets(self)  # limits beyond a double refuse the plan before any draw


def _one_replicate(plan: ExperimentPlan, lam: float, r: int,
                   rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    spec = plan.functional
    if n is None:
        draws = (sample_poisson(plan.density, lam, plan.seed, stream=stream, rng=rng)
                 for stream in replicate_streams(r))
        config = first_with(spec.min_points, draws,
                            f"replicate {r} at lambda={lam} ({spec.family})")
    else:  # n >= k+1 fixed points: never short
        config = sample_binomial(plan.density, n, plan.seed,
                                 stream=BINOMIAL_STREAM_BASE + r, rng=rng)
    return t_vector(config, plan.test_functions, spec, lam)


def _replicate_chunk(args) -> np.ndarray:
    """The statistic rows of one block of replicates.

    The block draws every stream from one Philox generator, re-keyed per
    stream; it is built through ``point_process.generator``, the one name
    that constructs generators.
    """
    plan, lam, n, indices = args
    rng = point_process.generator(plan.seed, 0)
    return np.array([_one_replicate(plan, lam, int(r), rng, n) for r in indices])


def run_replicates(plan: ExperimentPlan, lam: float, pool=None,
                   workers: int = 1, n: int | None = None) -> np.ndarray:
    """The (replicates x regions) statistic matrix at one intensity, in
    replicate order: of Poisson draws, or of n fixed points when n is given.

    The replicates go in 4 * workers contiguous blocks, to the process pool
    when one is given and one after another otherwise.  The matrix does not
    depend on the pool or the worker count.
    """
    chunks = [c for c in np.array_split(np.arange(plan.replicates), 4 * workers)
              if len(c)]
    data = np.concatenate(list((map if pool is None else pool.map)(
        _replicate_chunk, [(plan, lam, n, c) for c in chunks])))
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite statistic at lambda={lam}")
    return data


def estimate_moments(data: np.ndarray) -> np.ndarray:
    """Per column: mean, its standard error, unbiased variance and its standard
    error (fourth-central-moment formula), as the rows of a (4, columns) array."""
    n = len(data)
    if n < 2:
        raise ValueError("need at least 2 samples")
    mean = data.mean(axis=0)
    centred = data - mean
    var = np.diag(centred.T @ centred) / (n - 1)
    m4 = np.mean(centred ** 4, axis=0)
    var_of_var = np.maximum(m4 - var ** 2 * (n - 3) / (n - 1), 0.0) / n
    return np.array([mean, np.sqrt(var / n), var, np.sqrt(var_of_var)])


def standardize(data: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Componentwise (T - mean) / sqrt(var) using the sample estimates."""
    if np.any(var <= 0.0):
        raise ValueError(f"component {int(np.argmin(var))} has zero sample variance")
    return (data - mean) / np.sqrt(var)


def ks_to_normal(values) -> float:
    """Kolmogorov distance between the empirical CDF and the standard normal."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("need at least one value")
    phi = ndtr(x)
    upper = np.arange(1, n + 1) / n - phi
    lower = phi - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def product_form_discrepancy(standardized: np.ndarray, t_grid: Sequence[float]
                             ) -> tuple[float, tuple[float, ...]]:
    """Sup over a full grid of |joint empirical CDF - product normal CDF| of
    standardized samples (the product-form discrepancy), and its grid node.

    The grid is the m-fold product of the per-axis thresholds ``t_grid``;
    the node count m * |grid|^m must stay within 100 000.  The joint
    empirical CDF counts samples per node: each sample is binned at the
    lowest grid node at or above it on every axis, and cumulative sums along
    the axes give, at each node, the exact count of samples at or below it.
    """
    std = np.asarray(standardized, dtype=float)
    if std.ndim != 2:
        raise ValueError("standardized samples must form an (n, m) array")
    n, m = std.shape
    grid = np.asarray(t_grid, dtype=float)
    g = len(grid)
    if g == 0:
        raise ValueError("threshold grid must be nonempty")
    _check_grid(m, g, "grid")
    order = np.argsort(grid, kind="stable")
    # per axis, the sorted position of the lowest node >= the sample; g means
    # above every node.  NaN sorts last, and a NaN node's Phi makes its
    # difference NaN whatever its count.
    pos = np.searchsorted(grid[order], std.T)
    inside = (pos < g).all(axis=0)
    counts = np.bincount(np.ravel_multi_index(pos[:, inside], (g,) * m),
                         minlength=g ** m).reshape((g,) * m)
    for axis in range(m):
        np.cumsum(counts, axis=axis, out=counts)
    rank = np.empty(g, dtype=np.intp)
    rank[order] = np.arange(g)
    cdf = counts[np.ix_(*[rank] * m)] / n
    phi = ndtr(grid)
    prod = phi.copy()
    for _ in range(m - 1):
        prod = np.multiply.outer(prod, phi)
    diff = np.abs(cdf - prod)
    flat = int(np.argmax(diff))
    node = np.unravel_index(flat, diff.shape)
    return float(diff[node]), tuple(float(grid[i]) for i in node)


def fit_rate(lambdas, discrepancies, replicates: int
             ) -> tuple[dict | None, tuple[float, ...], str]:
    """Fit log D ~ slope * log lambda + intercept above the noise floor.

    Intensities whose discrepancy lies below the Monte Carlo noise floor
    1/sqrt(replicates) are censored, with a warning.  Returns the fit as a
    report's "rate_fit" (slope, intercept, r_squared and lambdas_used), or
    None when fewer than 3 intensities remain; the censored intensities; and
    a note saying why there is no fit ("" when there is one).
    """
    lams = np.asarray(lambdas, dtype=float)
    ds = np.asarray(discrepancies, dtype=float)
    floor = 1.0 / np.sqrt(replicates)
    keep = ds >= floor
    censored = tuple(float(v) for v in lams[~keep])
    if censored:
        # stacklevel 3: the line that called run_experiment or the command
        warnings.warn(f"lambdas {list(censored)} censored from rate fit: "
                      f"discrepancy below noise floor {floor:.4g}", stacklevel=3)
    if keep.sum() < 3:
        return None, censored, (f"only {int(keep.sum())} intensities above the "
                                f"noise floor {floor:.4g}")
    slope, intercept, r2 = fit_line(np.log(lams[keep]), np.log(ds[keep]))
    fit = {"slope": slope, "intercept": intercept, "r_squared": r2,
           "lambdas_used": [float(v) for v in lams[keep]]}
    return fit, censored, ""


# ---------------------------------------------------------------------------
# full experiment pipeline

def _targets(plan: ExperimentPlan) -> list[tuple[float, float]] | None:
    """The closed-form limits of each test function's scaled mean and
    variance, or None unless the plan is the directed family on the line.

    A point at local density kappa has a dilated gap of about Exp(2 kappa),
    so for a test function of value v_b on box b (1 for an indicator) the
    limits are E[D^a] sum_b v_b J_b(1-a) and (v_a + delta_a^2) sum_b v_b^2
    J_b(1-2a), with J_b(p) the integral of kappa^p over box b.  Boxes of
    zero weight hold no points and are skipped (0^p is infinite for p < 0).
    A constant or a power of kappa beyond a double raises ValueError naming
    functional.alpha; a limit beyond one while both are finite names its
    test function, test_functions[i].
    """
    if (plan.functional.family != DIRECTED_NN
            or plan.density.region.dimension != 1):
        return None
    alpha = plan.functional.alpha
    try:
        coefs = (exp_moment(alpha), v_alpha(alpha) + delta_alpha_sq(alpha))
        # ((kappa^(1-a), kappa^(1-2a)), lower, upper) per box of positive weight
        pieces = [((w ** (1.0 - alpha), w ** (1.0 - 2.0 * alpha)),
                   box.lower[0], box.upper[0])
                  for w, box in zip(plan.density.weights, plan.density.region.boxes)
                  if w > 0.0]
    except (ValueError, OverflowError):  # a constant or a power of kappa
        coefs = (np.inf, np.inf)
    if not np.isfinite(coefs).all():
        raise ValueError(f"functional.alpha={alpha:g}: the closed-form targets "
                         f"overflow a double")

    def integral(f: TestFunctionSpec, power: int) -> float:
        return sum(v ** power * kappa_powers[power - 1]
                   * max(0.0, min(hi, box.upper[0]) - max(lo, box.lower[0]))
                   for kappa_powers, lo, hi in pieces
                   for v, box in zip(f.values, f.region.boxes))

    targets = []
    for i, f in enumerate(plan.test_functions):
        try:
            target = (coefs[0] * integral(f, 1), coefs[1] * integral(f, 2))
        except OverflowError:  # a value squared
            target = (np.inf, np.inf)
        if not np.isfinite(target).all():
            raise ValueError(f"test_functions[{i}]: the closed-form targets "
                             f"overflow a double")
        targets.append(target)
    return targets


def _lambda_report(plan: ExperimentPlan, lam: float, data: np.ndarray,
                   targets: list[tuple[float, float]] | None) -> dict:
    """The "per_lambda" entry of one intensity's (replicates x regions) data;
    with ``targets`` (the directed statistic on the line) it also gives the
    moments divided by lambda, their scale."""
    m = len(plan.test_functions)
    moments = estimate_moments(data)
    std = standardize(data, moments[0], moments[2])
    corr = np.corrcoef(std, rowvar=False).reshape(m, m)
    sup, argmax_node = product_form_discrepancy(std, plan.t_grid)
    regions = []
    for i in range(m):
        mean, se_mean, var, se_var = moments[:, i].tolist()
        rs = {"index": i, "mean": mean, "se_mean": se_mean, "var": var,
              "se_var": se_var, "ks": ks_to_normal(std[:, i]),
              "scaled_mean": None, "se_scaled_mean": None, "scaled_var": None,
              "se_scaled_var": None, "target_mean": None, "target_var": None}
        if targets is not None:
            rs.update(scaled_mean=mean / lam, se_scaled_mean=se_mean / lam,
                      scaled_var=var / lam, se_scaled_var=se_var / lam,
                      target_mean=targets[i][0], target_var=targets[i][1])
        regions.append(rs)
    return {"lambda": lam, "joint_discrepancy": sup,
            "argmax_node": list(argmax_node),
            "correlations": corr.tolist(), "regions": regions}


def run_experiment(plan: ExperimentPlan, workers: int = 1,
                   progress=None) -> dict:
    """Run the full lambda grid and return the payload that ``report.json``
    stores.

    Its keys: "functional" (family, k, alpha), "replicates", "seed",
    "lambda_grid" and "t_grid"; "per_lambda", one entry per intensity with
    "lambda", "joint_discrepancy", "argmax_node", the m x m "correlations"
    and "regions", each with "index", "mean", "se_mean", "var", "se_var",
    "ks", "scaled_mean", "se_scaled_mean", "scaled_var", "se_scaled_var",
    "target_mean" and "target_var" (the last six None unless the plan is the
    directed family on the line); "rate_fit", the fit of ``fit_rate`` or
    None; "censored_lambdas"; and "rate_note", why there is no fit.

    With workers > 1 one process pool serves every intensity of the run.
    ``progress``, when given, is called with each intensity and its entry.
    """
    targets = _targets(plan)
    per_lambda = []
    # the module's attribute, so the pool class loads only here (``__getattr__``)
    with (sys.modules[__name__].ProcessPoolExecutor(max_workers=workers)
          if workers > 1 else nullcontext()) as pool:
        for lam in plan.lambda_grid:
            data = run_replicates(plan, lam, pool=pool, workers=workers)
            per_lambda.append(_lambda_report(plan, lam, data, targets))
            if progress is not None:
                progress(lam, per_lambda[-1])

    rate, censored, note = fit_rate(
        plan.lambda_grid, [e["joint_discrepancy"] for e in per_lambda], plan.replicates)
    return {
        "functional": asdict(plan.functional),
        "replicates": plan.replicates,
        "seed": plan.seed,
        "lambda_grid": list(plan.lambda_grid),
        "t_grid": list(plan.t_grid),
        "per_lambda": per_lambda,
        "rate_fit": rate,
        "censored_lambdas": list(censored),
        "rate_note": f"rate fit skipped: {note}" if note else "",
    }


def check_targets(payload: dict, multiplier: float) -> list[str]:
    """The check of ``simulate --check``: one line per scaled mean or variance
    of the last intensity that misses its target by more than ``multiplier``
    standard errors.  Regions with no target are skipped; with none, it fails."""
    regions = [rs for rs in payload["per_lambda"][-1]["regions"]
               if rs["target_mean"] is not None]
    if not regions:
        return ["no region has a closed-form target"]
    failures = []
    for rs in regions:
        for key, name in (("mean", "mean"), ("var", "variance")):
            value, target = rs[f"scaled_{key}"], rs[f"target_{key}"]
            se = rs[f"se_scaled_{key}"]
            if abs(value - target) > multiplier * se:
                failures.append(
                    f"region {rs['index']}: scaled {name} {value:.6g} misses "
                    f"target {target:.6g} by more than {multiplier:g} SE "
                    f"({se:.3g})")
    return failures


# ---------------------------------------------------------------------------
# the fixed-n (binomial) scaled variance

def binomial_scaled_variances(plan: ExperimentPlan, lam: float
                              ) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-n "scaled_var" and "se_scaled_var" at lam, per test function.

    The engine's replicates of n = round(lam * total mass) fixed points
    (``run_replicates`` with n); an n outside [k+1, MAX_COUNT) raises
    ValueError first.  On [0, 1] at unit density the directed limit is
    v_alpha, and Poisson input adds delta_alpha^2.
    """
    spec = plan.functional
    n = round(point_process.check_count(lam * plan.density.total_mass,
                                        f"lambda={lam:g}"))
    if n < spec.min_points:
        raise ValueError(f"n={n} points at lambda={lam}: the {spec.family} "
                         f"score needs at least {spec.min_points}")
    _, _, var, se_var = estimate_moments(run_replicates(plan, lam, n=n))
    return var / lam, se_var / lam
