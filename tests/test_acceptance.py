"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Heavy Monte Carlo runs are shared through module-scoped fixtures.  Every
tolerance is pinned here; the runs are deterministic through fixed seeds and
the (seed, stream) replication discipline, so a pass is reproducible bit for
bit.
"""

import json
import math
import warnings

import numpy as np
import pytest

from stabpp import cli
from stabpp import experiments as ex
from stabpp import neighbors as nb
from stabpp import regions as rg
from stabpp import special as sp
from stabpp.functionals import DIRECTED_NN, FunctionalSpec, stabilization_probe
from stabpp.point_process import DensitySpec, sample_poisson
from stabpp.regions import Region


def _report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion:2d} "
          f"{'PASS' if ok else 'FAIL'}: {detail}")


def directed_plan(alpha, intervals, lambda_grid, replicates):
    """The directed plan ``stabpp simulate`` would read: unit density on each
    interval, one indicator region per interval, seed 42."""
    boxes = [{"lower": [a], "upper": [b]} for a, b in intervals]
    return cli.parse_plan({
        "dimension": 1, "density": {"boxes": boxes, "weights": [1.0] * len(boxes)},
        "regions": [[box] for box in boxes],
        "functional": {"family": "nn_directed", "alpha": alpha},
        "lambda_grid": lambda_grid, "replicates": replicates, "seed": 42})


def directed_run(alpha, intervals, lambda_grid, replicates, workers=1):
    """The run of ``directed_plan``."""
    plan = directed_plan(alpha, intervals, lambda_grid, replicates)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ex.run_experiment(plan, workers=workers)


@pytest.fixture(scope="module")
def run_alpha1():
    return directed_run(1.0, [(0.0, 1.0)], [2000.0], 20_000)


@pytest.fixture(scope="module")
def run_alpha2():
    return directed_run(2.0, [(0.0, 1.0)], [2000.0], 20_000)


def test_criterion_1_constants_table():
    """Closed-form constants against the exact table values."""
    v_exact = {1.0: 1.0 / 6.0, 2.0: 85.0 / 108.0, 3.0: 149.0 / 18.0,
               4.0: 135793.0 / 972.0}
    d2_exact = {0.5: math.pi / 32.0, 1.0: 0.0, 2.0: 0.25, 3.0: 2.25, 4.0: 20.25}
    v_half_closed = (0.5 + math.sqrt(2.0) * math.asin(1.0 / math.sqrt(3.0))
                     - 13.0 * math.pi / 32.0)
    ok = True
    worst = 0.0
    for a, target in v_exact.items():
        rel = abs(sp.v_alpha(a) - target) / target
        worst = max(worst, rel)
        ok &= rel <= 1e-12
    ok &= abs(sp.v_alpha(0.5) - v_half_closed) <= 1e-9
    for a, target in d2_exact.items():
        err = abs(sp.delta_alpha_sq(a) - target)
        if target > 0.0:
            err /= target
        worst = max(worst, err)
        ok &= err <= 1e-12
    _report(1, ok, f"constants match their exact closed forms, worst rel err {worst:.2e}")
    assert ok


def test_criterion_2_limiting_mean(run_alpha1):
    """Scaled mean of the weight-1 statistic at lambda=2000, N=20000."""
    rs = run_alpha1["per_lambda"][0]["regions"][0]
    dev = abs(rs["scaled_mean"] - 0.5)
    ok = dev <= 0.005 and 0.005 >= 3.0 * rs["se_scaled_mean"]
    _report(2, ok, f"scaled mean {rs['scaled_mean']:.6f} vs 1/2 "
                   f"(|dev| {dev:.2e} <= 0.005, 3SE {3 * rs['se_scaled_mean']:.2e})")
    assert ok


def test_criterion_3_limiting_variance(run_alpha1, run_alpha2):
    """Scaled variances: alpha=1 against 1/6 +- 0.01, alpha=2 within 3 SE."""
    rs1 = run_alpha1["per_lambda"][0]["regions"][0]
    dev1 = abs(rs1["scaled_var"] - 1.0 / 6.0)
    ok1 = dev1 <= 0.01
    rs2 = run_alpha2["per_lambda"][0]["regions"][0]
    target2 = 85.0 / 108.0 + 0.25
    dev2 = abs(rs2["scaled_var"] - target2)
    ok2 = (dev2 <= 3.0 * rs2["se_scaled_var"]
           and abs(rs2["target_var"] - target2) < 1e-12)
    ok = ok1 and ok2
    _report(3, ok,
            f"alpha=1: lam*var {rs1['scaled_var']:.6f} (|dev| {dev1:.2e} <= 0.01); "
            f"alpha=2: lam^3*var {rs2['scaled_var']:.5f} vs {target2:.5f} "
            f"(|dev| {dev2:.2e} <= 3SE {3 * rs2['se_scaled_var']:.2e})")
    assert ok


def test_criterion_4_multivariate_normality():
    """Two disjoint unit intervals with gap 1: joint normality, no correlation."""
    rep = directed_run(1.0, [(0.0, 1.0), (2.0, 3.0)], [2000.0], 10_000)
    lr = rep["per_lambda"][0]
    corr = abs(lr["correlations"][0][1])
    ok = lr["joint_discrepancy"] <= 0.02 and corr <= 0.04
    _report(4, ok, f"product-form sup {lr['joint_discrepancy']:.4f} <= 0.02, "
                   f"|corr| {corr:.4f} <= 0.04")
    assert ok


def test_criterion_5_rate_band():
    """Log-log slope of the sup discrepancy across the intensity grid.

    The weight exponent is 3 so the per-point contribution is heavy-tailed
    and the normal-approximation error stays resolvable above the Monte Carlo
    noise floor over the whole grid; with alpha=1 the statistic is so close
    to normal that every grid point falls below the floor at N=20000.
    """
    rep = directed_run(3.0, [(0.0, 1.0)], [100.0, 400.0, 1600.0, 6400.0], 20_000)
    fit = rep["rate_fit"]
    ok = fit is not None and -0.8 <= fit["slope"] <= -0.2
    slope = float("nan") if fit is None else fit["slope"]
    r2 = float("nan") if fit is None else fit["r_squared"]
    ds = [lr["joint_discrepancy"] for lr in rep["per_lambda"]]
    _report(5, ok, f"slope {slope:.3f} in [-0.8, -0.2] (R^2 {r2:.3f}, "
                   f"D={['%.4f' % d for d in ds]}, censored {rep['censored_lambdas']})")
    assert ok


def test_criterion_6_exponential_stabilization():
    """Probe tail: negative decay slope with a good fit, monotone tail."""
    density = DensitySpec.homogeneous(Region.interval(0.0, 1.0))
    spec = FunctionalSpec(family=DIRECTED_NN, alpha=1.0)
    res = stabilization_probe(density, 200.0, spec, probe_count=500,
                              resample_count=5, seed=42)
    slope, r2 = res["decay_slope"], res["r_squared"]
    tail_probs = [row["tail_prob"] for row in res["tail"]]
    monotone = bool(np.all(np.diff(tail_probs) <= 1e-12))
    ok = slope < 0.0 and r2 >= 0.9 and monotone
    _report(6, ok, f"decay slope {slope:.3f} < 0, "
                   f"tail R^2 {r2:.3f} >= 0.9, "
                   f"tail nonincreasing {monotone}, "
                   f"censored {res['censored_count']}")
    assert ok


def test_criterion_7_exponential_gap_moments():
    """Interior nearest-neighbour gaps of a unit line process are Exp(2)."""
    line = DensitySpec(Region.interval(0.0, 1000.0), (1.0,))
    gaps = []
    for s in range(50):
        x = np.sort(sample_poisson(line, 1.0, seed=42, stream=s).points[:, 0])
        d = np.minimum(np.r_[np.inf, np.diff(x)], np.r_[np.diff(x), np.inf])
        border = np.minimum(x, 1000.0 - x)
        gaps.append(d[border > d])
    d = np.concatenate(gaps)
    m1, m2 = d.mean(), (d ** 2).mean()
    ok = abs(m1 - 0.5) / 0.5 <= 0.02 and abs(m2 - 0.5) / 0.5 <= 0.02
    _report(7, ok, f"E[D] {m1:.4f}, E[D^2] {m2:.4f}, both within 2% of 1/2 "
                   f"({len(d)} gaps)")
    assert ok


def test_criterion_8_poisson_binomial_excess(run_alpha1, run_alpha2):
    """delta_1 = 0: equal scaled variances at alpha=1; excess 1/4 at alpha=2.

    The Poisson side is criterion 3's runs at lambda=2000; the binomial side
    scores n=2000 fixed points of the same plans, as many replicates."""
    binomial = [ex.binomial_scaled_variances(
        directed_plan(a, [(0.0, 1.0)], [2000.0], 20_000), 2000.0) for a in (1.0, 2.0)]
    poisson = [run["per_lambda"][0]["regions"][0] for run in (run_alpha1, run_alpha2)]
    (x1, se1), (x2, se2) = [
        (rs["scaled_var"] - var[0], math.hypot(rs["se_scaled_var"], se[0]))
        for rs, (var, se) in zip(poisson, binomial)]
    ok1 = abs(x1) <= 3.0 * se1
    ok2 = abs(x2 - 0.25) <= 3.0 * se2 and x2 > 0.0
    ok = ok1 and ok2
    _report(8, ok,
            f"alpha=1 excess {x1:+.4f} (3SE {3 * se1:.4f}); "
            f"alpha=2 excess {x2:+.4f} vs 1/4 (3SE {3 * se2:.4f})")
    assert ok


def test_criterion_9_neighbor_oracle_equivalence():
    """Grid-accelerated kNN equals the quadratic oracle, set for set."""
    rng = np.random.default_rng(42)
    checked = 0
    ok = True
    for d in (1, 2, 3):
        sizes = [50] * 34 + [500] * 33 + [2000] * 33  # 100 instances per d
        for i, n in enumerate(sizes):
            k = (1, 3, 5)[i % 3]
            pts = rng.uniform(-1.0, 1.0, size=(n, d))
            same = np.array_equal(nb.knn_indices(pts, k),
                                  nb.brute_force_knn(pts, k))
            ok &= same
            checked += 1
    _report(9, ok, f"accelerated == brute force on {checked} instances "
                   f"(100 per dimension, n in {{50, 500, 2000}})")
    assert ok


def test_criterion_10_covering_packing_sandwich():
    """Packing count <= dilated volume <= covering count, plus hand counts."""
    unit = Region.interval(0.0, 1.0)
    hand_ok = (len(rg.covering(unit, 1.0)) == 2
               and len(rg.packing(unit, 1.0)) == 0
               and len(rg.covering(unit, 4.0)) == 5
               and len(rg.packing(unit, 4.0)) == 3)
    rng = np.random.default_rng(42)
    sandwich_ok = True
    for trial in range(200):
        d = int(rng.integers(1, 4))
        n_boxes = int(rng.integers(1, 4))
        boxes = []
        cursor = rng.uniform(-2.0, 0.0, size=d)
        for _ in range(n_boxes):
            lo = cursor + rng.uniform(0.0, 0.4, size=d)
            hi = lo + rng.uniform(0.1, 0.9, size=d)
            boxes.append((tuple(lo), tuple(hi)))
            cursor = hi  # staircase placement keeps the boxes disjoint
        region = Region.from_bounds(boxes, dimension=d)
        for lam in (1.0, 10.0, 100.0, 1000.0):
            vol = lam * region.volume
            m = len(rg.packing(region, lam))
            n = len(rg.covering(region, lam))
            sandwich_ok &= m <= vol + 1e-9 and vol <= n + 1e-9
    ok = hand_ok and sandwich_ok
    _report(10, ok, f"hand counts {{n=2,m=0}}/{{n=5,m=3}} and sandwich on "
                    f"200 unions x 4 intensities: {ok}")
    assert ok


def test_criterion_11_worker_determinism():
    """Full pipeline report is byte-identical across 1 and 8 workers."""
    rep1, rep8 = (directed_run(1.0, [(0.0, 1.0)], [100.0, 200.0], 500, workers=w)
                  for w in (1, 8))
    b1 = json.dumps(rep1, sort_keys=True).encode()
    b8 = json.dumps(rep8, sort_keys=True).encode()
    ok = b1 == b8
    _report(11, ok, f"reports identical across 1 and 8 workers "
                    f"({len(b1)} bytes)")
    assert ok
