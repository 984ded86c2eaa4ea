"""Estimators, normality diagnostics, rate fits, and the experiment pipeline."""

import concurrent.futures
import dataclasses
import itertools
import json
import re
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.special import ndtr as scipy_ndtr

from stabpp import cli
from stabpp import experiments as ex
from stabpp.functionals import (DIRECTED_NN, KNN_UNDIRECTED, FunctionalSpec,
                                TestFunctionSpec, t_vector)
from stabpp.neighbors import nn_distances
from stabpp.point_process import (MAX_REPLICATES, DensitySpec, generator,
                                  replicate_streams, sample_binomial,
                                  sample_poisson)
from stabpp.regions import Region
from stabpp.special import ndtr, v_alpha


def small_plan(replicates=50, lambda_grid=(40.0,), seed=1, alpha=1.0):
    region = Region.interval(0.0, 1.0)
    return ex.ExperimentPlan(
        density=DensitySpec.homogeneous(region),
        test_functions=(TestFunctionSpec(region=region),),
        functional=FunctionalSpec(family=DIRECTED_NN, alpha=alpha),
        lambda_grid=lambda_grid,
        replicates=replicates,
        seed=seed,
    )


def directed_report(alpha, kappas, intervals, lam, replicates, seed):
    """The directed run of the plan ``stabpp simulate`` would read: density
    kappa_i on interval i, one indicator region per interval."""
    boxes = [{"lower": [a], "upper": [b]} for a, b in intervals]
    plan = cli.parse_plan({
        "dimension": 1, "density": {"boxes": boxes, "weights": kappas},
        "regions": [[box] for box in boxes],
        "functional": {"family": "nn_directed", "alpha": alpha},
        "lambda_grid": [lam], "replicates": replicates, "seed": seed})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ex.run_experiment(plan)


def matrix(values):
    """One row per sample: scalars become one-column rows."""
    return np.array([np.atleast_1d(np.asarray(v, dtype=float)) for v in values])


class TestEstimators:
    def test_two_point_sample(self):
        mean, se_mean, var, se_var = ex.estimate_moments(matrix([0.0, 2.0]))
        assert mean[0] == 1.0
        assert var[0] == 2.0
        assert se_mean[0] == 1.0  # sqrt(var / n)

    def test_constant_sample(self):
        moments = ex.estimate_moments(matrix([3.0, 3.0, 3.0]))
        assert moments.shape == (4, 1)
        assert moments[2, 0] == 0.0
        assert moments[3, 0] == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ex.estimate_moments(matrix([1.0]))

    def test_gaussian_moments(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal(100_000)
        mean, _, var, _ = ex.estimate_moments(matrix(draws))
        assert abs(mean[0]) <= 0.01
        assert abs(var[0] - 1.0) <= 0.02

    def test_variance_is_the_covariance_diagonal(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((500, 3)) @ np.diag([1.0, 2.0, 0.5])
        var = ex.estimate_moments(matrix(list(data)))[2]
        centred = data - data.mean(axis=0)
        assert np.array_equal(var, np.diag(centred.T @ centred) / (len(data) - 1))


class TestStandardize:
    def test_identities(self):
        rng = np.random.default_rng(5)
        samples = matrix(rng.uniform(size=200))
        mean, _, var, _ = ex.estimate_moments(samples)
        std = ex.standardize(samples, mean, var)
        assert abs(std.mean()) <= 1e-12
        assert abs(std.var(ddof=1) - 1.0) <= 1e-12

    def test_single_value_position(self):
        samples = matrix([0.0, 2.0])
        mean, _, var, _ = ex.estimate_moments(samples)
        std = ex.standardize(samples, mean, var)
        # mean 1, sd sqrt(2): the sample at mean + sd standardizes to 1
        assert std[1, 0] == pytest.approx((2.0 - 1.0) / np.sqrt(2.0))

    def test_degenerate_component(self):
        samples = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        mean, _, var, _ = ex.estimate_moments(samples)
        with pytest.raises(ValueError, match="component 1 has zero sample variance"):
            ex.standardize(samples, mean, var)


class TestKolmogorov:
    def test_point_mass_at_zero(self):
        assert ex.ks_to_normal([0.0] * 10) == pytest.approx(0.5)
        assert ex.ks_to_normal([0.0]) == pytest.approx(0.5)

    def test_gaussian_sample(self):
        rng = np.random.default_rng(7)
        assert ex.ks_to_normal(rng.standard_normal(100_000)) <= 0.01

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            ex.ks_to_normal([])

    def test_same_floats_as_scipy_formula(self):
        rng = np.random.default_rng(29)
        for n in (1, 7, 500, 20_000):
            x = np.sort(rng.standard_normal(n) * 1.3 + 0.1)
            phi = scipy_ndtr(x)
            ref = float(max((np.arange(1, n + 1) / n - phi).max(),
                            (phi - np.arange(0, n) / n).max()))
            assert ex.ks_to_normal(x) == ref


def plain_product_form(std, grid):
    """The product-form discrepancy node by node: the share of samples at or
    below the node on every axis against the product of normal CDFs, and
    the first node in C order where the gap is largest."""
    grid = np.asarray(grid, dtype=float)
    phi = scipy_ndtr(grid)
    best, arg = -1.0, None
    for node in itertools.product(range(len(grid)), repeat=std.shape[1]):
        cdf = np.all(std <= grid[list(node)], axis=1).mean()
        prod = phi[node[0]]
        for i in node[1:]:
            prod = prod * phi[i]
        if abs(cdf - prod) > best:
            best, arg = abs(cdf - prod), node
    return float(best), tuple(float(grid[i]) for i in arg)


class TestProductForm:
    @pytest.mark.parametrize("m, grid, on_nodes", [
        (1, ex.DEFAULT_T_GRID, False),
        (2, ex.DEFAULT_T_GRID, True),
        (3, ex.DEFAULT_T_GRID, False),
        (4, np.linspace(-1.5, 1.5, 7), True),
        (2, [0.5, -1.0, 0.0, 0.5, 1.5], True),
        (3, [0.5, -1.0, 0.0, 0.5, 1.5], False),
        (60, [0.3], False),
    ], ids=["m1", "m2_on_nodes", "m3", "m4_on_nodes", "unsorted_duplicate_m2",
            "unsorted_duplicate_m3", "m60_one_node"])
    def test_counts_equal_the_plain_definition(self, m, grid, on_nodes):
        rng = np.random.default_rng(m)
        std = rng.standard_normal((400, m))
        if on_nodes:
            # every other sample sits exactly on grid nodes
            std[::2] = rng.choice(np.asarray(grid), size=std[::2].shape)
        assert ex.product_form_discrepancy(std, grid) == plain_product_form(std, grid)

    def test_independent_normals(self):
        rng = np.random.default_rng(11)
        std = rng.standard_normal((100_000, 2))
        sup, _ = ex.product_form_discrepancy(std, ex.DEFAULT_T_GRID)
        assert sup <= 0.01

    def test_comonotone_pair_at_origin(self):
        # mirrored sample: the empirical CDF at 0 is exactly 1/2, so the node
        # (0, 0) contributes |1/2 - 1/4|
        rng = np.random.default_rng(13)
        half = rng.standard_normal(5000) + 1e-9
        z = np.concatenate([half, -half])
        std = np.column_stack([z, z])
        sup, argmax_node = ex.product_form_discrepancy(std, t_grid=[0.0])
        assert sup == pytest.approx(0.25, abs=1e-12)
        assert argmax_node == (0.0, 0.0)

    def test_m1_bounded_by_ks(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            z = rng.standard_normal(300)
            sup, _ = ex.product_form_discrepancy(z.reshape(-1, 1), ex.DEFAULT_T_GRID)
            assert sup <= ex.ks_to_normal(z) + 1e-15

    def test_budget_guard(self):
        std = np.zeros((10, 4))
        with pytest.raises(ValueError, match="grid of 13\\^4 nodes exceeds the "
                                             "budget 100000; use a coarser grid"):
            ex.product_form_discrepancy(std, ex.DEFAULT_T_GRID)
        # a coarse grid brings the node count back under budget
        sup, _ = ex.product_form_discrepancy(std, t_grid=[-1.0, 0.0, 1.0])
        assert 0.0 <= sup <= 1.0

    def test_same_floats_as_scipy_formula(self):
        rng = np.random.default_rng(31)
        std = rng.standard_normal((20_000, 2)) @ np.array([[1.0, 0.4], [0.0, 0.9]])
        grid = np.asarray(ex.DEFAULT_T_GRID)
        ind = [(std[:, i][:, None] <= grid[None, :]).astype(float) for i in range(2)]
        phi = scipy_ndtr(grid)
        diff = np.abs(ind[0].T @ ind[1] / len(std) - np.multiply.outer(phi, phi))
        sup, argmax_node = ex.product_form_discrepancy(std, ex.DEFAULT_T_GRID)
        assert sup == float(diff.max())
        i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
        assert argmax_node == (float(grid[i]), float(grid[j]))

    def test_four_component_loop_path(self):
        rng = np.random.default_rng(23)
        std = rng.standard_normal((2000, 4))
        sup, _ = ex.product_form_discrepancy(std, t_grid=[-1.0, 0.0, 1.0])
        assert sup <= 0.08


class TestRateFit:
    def test_exact_power_law(self):
        lams = [1e2, 1e3, 1e4]
        fit, censored, note = ex.fit_rate(lams, [lam ** -0.5 for lam in lams],
                                          1_000_000)
        assert fit["slope"] == pytest.approx(-0.5, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0)
        assert (censored, note) == ((), "")

    def test_constant_discrepancy(self):
        fit, _, _ = ex.fit_rate([10.0, 100.0, 1000.0], [0.25, 0.25, 0.25], 100)
        assert fit["slope"] == pytest.approx(0.0, abs=1e-12)

    def test_zero_dropped_with_warning(self):
        # a zero discrepancy lies below every noise floor: it is censored
        with pytest.warns(UserWarning, match="censored"):
            fit, censored, _ = ex.fit_rate([10.0, 100.0, 1000.0, 10000.0],
                                           [1.0, 0.1, 0.01, 0.0], 10_000)
        assert fit["lambdas_used"] == [10.0, 100.0, 1000.0]
        assert censored == (10000.0,)

    def test_too_few_points(self):
        with pytest.warns(UserWarning):
            fit, censored, note = ex.fit_rate([10.0, 100.0, 1000.0],
                                              [0.1, 0.01, 0.0], 100)
        assert fit is None
        assert censored == (100.0, 1000.0)
        assert note == "only 1 intensities above the noise floor 0.1"

    def test_noise_floor_keeps_values_at_or_above_it(self):
        # the floor 1/sqrt(100) = 0.1 itself is kept
        with pytest.warns(UserWarning, match="noise floor 0.1"):
            fit, censored, _ = ex.fit_rate([10.0, 20.0, 40.0, 80.0],
                                           [0.2, 0.1, 0.05, 0.1], 100)
        assert fit["lambdas_used"] == [10.0, 20.0, 80.0]
        assert censored == (40.0,)


def plain_directed_replicate(plan, lam, r):
    """One 1-d directed replicate written out directly: stream r, then the
    retry streams (1 << 32) + 4r + a; Generator.uniform per box; the O(n^2)
    nearest-neighbour distance of the dilated points; a dot with ones."""
    for stream in [r] + [(1 << 32) + 4 * r + a for a in range(3)]:
        rng = generator(plan.seed, stream)
        parts = []
        for w, box in zip(plan.density.weights, plan.density.region.boxes):
            n = int(rng.poisson(lam * w * box.volume))
            parts.append(rng.uniform(box.lower, box.upper, size=(n, 1)))
        x = np.concatenate(parts)[:, 0]
        if len(x) < 2:
            continue
        masks = [(x >= reg.boxes[0].lower[0]) & (x < reg.boxes[0].upper[0])
                 for reg in plan.regions]
        if not np.logical_or.reduce(masks).any():
            return np.zeros(len(masks))
        xd = x * lam
        gap = np.abs(xd[:, None] - xd[None, :])
        np.fill_diagonal(gap, np.inf)
        scores = gap.min(axis=1) ** plan.functional.alpha
        return np.array([np.dot(scores[m], np.ones(m.sum())) if m.any() else 0.0
                         for m in masks])
    raise AssertionError("reference ran out of retry streams")


class TestRunReplicates:
    def test_deterministic_and_reproducible(self):
        plan = small_plan()
        a = ex.run_replicates(plan, 40.0)
        b = ex.run_replicates(plan, 40.0)
        assert np.array_equal(a, b)
        assert a.shape == (plan.replicates, 1)

    def test_worker_count_does_not_change_results(self):
        plan = small_plan(replicates=64)
        serial = ex.run_replicates(plan, 40.0)
        with ProcessPoolExecutor(max_workers=2) as pool:
            parallel = ex.run_replicates(plan, 40.0, pool=pool, workers=2)
        assert np.array_equal(serial, parallel)

    def test_zero_test_function_is_refused(self):
        # a statistic that is 0 in every replicate has zero sample variance:
        # the plan refuses it, so no zero row is ever drawn
        boxes = Region.from_bounds([((0.0,), (1.0,)), ((1.0,), (2.0,))])
        indicator = TestFunctionSpec(region=Region.interval(0.0, 0.5))
        split = Region.from_bounds([((0.5,), (0.6,)), ((1.0,), (1.5,))])
        for weights, values in (((1.0, 0.0), (0.0, 5.0)),  # 5 where no point falls
                                ((1.0, 1.0), (0.0, 0.0))):
            fields = dict(density=DensitySpec(boxes, weights),
                          functional=FunctionalSpec(family=DIRECTED_NN, alpha=1.0),
                          lambda_grid=(30.0,), replicates=5, seed=0)
            with pytest.raises(ValueError, match=re.escape(
                    "test_functions[1] is 0 on every box that meets a density "
                    "box of positive weight")):
                ex.ExperimentPlan(test_functions=(
                    indicator, TestFunctionSpec(split, values)), **fields)
            # a nonzero value on one box of positive weight suffices
            ex.ExperimentPlan(test_functions=(
                indicator, TestFunctionSpec(split, (1.0, values[1]))), **fields)

    def test_fixed_n_runs_through_the_engine(self):
        # the fixed-n rows are the engine's: any worker count gives the
        # same matrix, and a non-finite statistic is refused
        plan = small_plan(replicates=24)
        serial = ex.run_replicates(plan, 40.0, n=40)
        with ProcessPoolExecutor(max_workers=2) as pool:
            parallel = ex.run_replicates(plan, 40.0, pool=pool, workers=2, n=40)
        assert np.array_equal(serial, parallel)
        region = Region.interval(0.0, 1000.0)
        huge = dataclasses.replace(
            plan, density=DensitySpec(region=region, weights=(0.01,)),
            test_functions=(TestFunctionSpec(region=region),),
            functional=FunctionalSpec(family=KNN_UNDIRECTED, alpha=200.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite statistic at lambda=1.0"):
                ex.binomial_scaled_variances(huge, 1.0)

    def test_retry_exhaustion_aborts_with_diagnostic(self):
        # a 5-NN functional at mean 2 points per draw cannot be evaluated:
        # every retry stream also comes up short and the run must abort
        region = Region.interval(0.0, 1.0)
        plan = ex.ExperimentPlan(
            density=DensitySpec.homogeneous(region),
            test_functions=(TestFunctionSpec(region=region),),
            functional=FunctionalSpec(family="knn_undirected", k=5, alpha=1.0),
            lambda_grid=(2.0,),
            replicates=3,
            seed=0,
        )
        with pytest.raises(RuntimeError, match="retries"):
            ex.run_replicates(plan, 2.0)

    def test_non_finite_statistic_rejected(self):
        # gaps near 100 raised to the power 200 overflow to inf; the kNN
        # family, since the directed family's closed-form targets at this
        # exponent overflow first and refuse the plan
        region = Region.interval(0.0, 1000.0)
        plan = ex.ExperimentPlan(
            density=DensitySpec(region=region, weights=(0.01,)),
            test_functions=(TestFunctionSpec(region=region),),
            functional=FunctionalSpec(family=KNN_UNDIRECTED, alpha=200.0),
            lambda_grid=(1.0,),
            replicates=4,
            seed=0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                ex.run_replicates(plan, 1.0)

    @pytest.mark.parametrize("lam", [5.0, 50.0, 500.0])
    def test_1d_directed_equals_plain_reference(self, lam):
        # two regions over a two-box density, so points outside both regions
        # and (at lambda = 5) retried replicates occur
        support = Region.from_bounds([((0.0,), (1.0,)), ((1.0,), (2.0,))])
        density = DensitySpec(region=support, weights=(1.0, 0.25))
        regions = (Region.interval(0.0, 0.5), Region.interval(0.5, 1.25))
        alpha = 1.5
        plan = ex.ExperimentPlan(
            density=density,
            test_functions=tuple(TestFunctionSpec(region=r) for r in regions),
            functional=FunctionalSpec(family=DIRECTED_NN, alpha=alpha),
            lambda_grid=(lam,), replicates=40, seed=3)
        got = ex.run_replicates(plan, lam)
        for r, vec in enumerate(got):
            assert np.array_equal(vec,
                                  plain_directed_replicate(plan, lam, r))

    def test_knn_rows_equal_new_generator_draws(self):
        # kNN in the plane at a small intensity: many draws have fewer than
        # k+1 points and retry.  Each row must equal t_vector on the draw of
        # a new generator for the same stream, retries included.
        square = Region.from_bounds([((0.0, 0.0), (1.0, 1.0))])
        halves = (Region.from_bounds([((0.0, 0.0), (0.5, 1.0))]),
                  Region.from_bounds([((0.5, 0.0), (1.0, 1.0))]))
        plan = ex.ExperimentPlan(
            density=DensitySpec.homogeneous(square),
            test_functions=tuple(TestFunctionSpec(region=r) for r in halves),
            functional=FunctionalSpec(family=KNN_UNDIRECTED, k=3, alpha=1.5),
            lambda_grid=(6.0,), replicates=40, seed=2)
        spec = plan.functional
        got = ex.run_replicates(plan, 6.0)
        retries = 0
        for r, row in enumerate(got):
            for s in replicate_streams(r):
                config = sample_poisson(plan.density, 6.0, plan.seed, stream=s)
                if len(config) >= spec.min_points:
                    break
                retries += 1
            assert np.array_equal(row, t_vector(config, plan.test_functions, spec, 6.0))
        assert retries >= 3

    def test_short_draw_outside_the_regions_is_redrawn(self):
        # a draw with fewer than k+1 points is redrawn even when none of its
        # points lies in a region: the row is t_vector of the first retry
        # draw with enough points, not a row of zeros
        region = Region.interval(0.0, 0.5)
        plan = ex.ExperimentPlan(
            density=DensitySpec.homogeneous(Region.interval(0.0, 1.0)),
            test_functions=(TestFunctionSpec(region=region),),
            functional=FunctionalSpec(family=DIRECTED_NN, alpha=1.0),
            lambda_grid=(3.0,), replicates=30, seed=0)
        spec = plan.functional
        got = ex.run_replicates(plan, 3.0)
        redrawn = 0
        for r, row in enumerate(got):
            draws = [sample_poisson(plan.density, 3.0, plan.seed, stream=s)
                     for s in replicate_streams(r)]
            first = draws[0]
            if len(first) >= spec.min_points or region.contains(first.points).any():
                continue
            want = next(c for c in draws if len(c) >= spec.min_points)
            assert np.array_equal(row, t_vector(want, plan.test_functions, spec, 3.0))
            redrawn += row.any()
        assert redrawn >= 2

    def test_plan_validation(self):
        region = Region.interval(0.0, 1.0)
        with pytest.raises(ValueError, match="regions 0 and 1 overlap"):
            ex.ExperimentPlan(
                density=DensitySpec.homogeneous(region),
                test_functions=(TestFunctionSpec(region=region),) * 2,
                functional=FunctionalSpec(family=DIRECTED_NN),
                lambda_grid=(10.0,),
                replicates=5,
                seed=0,
            )
        with pytest.raises(ValueError):
            ex.ExperimentPlan(
                density=DensitySpec.homogeneous(region),
                test_functions=(TestFunctionSpec(region=region),),
                functional=FunctionalSpec(family=DIRECTED_NN),
                lambda_grid=(10.0, 10.0),  # not increasing
                replicates=5,
                seed=0,
            )
        for t in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="t_grid values must be finite"):
                dataclasses.replace(small_plan(), t_grid=(0.0, t))
        dataclasses.replace(small_plan(), replicates=MAX_REPLICATES)
        with pytest.raises(ValueError, match="replicates must be an integer"):
            dataclasses.replace(small_plan(), replicates=MAX_REPLICATES + 1)
        for name in ("test_functions", "lambda_grid", "t_grid"):
            fields = dict(density=DensitySpec.homogeneous(region),
                          test_functions=(TestFunctionSpec(region=region),),
                          functional=FunctionalSpec(family=DIRECTED_NN),
                          lambda_grid=(10.0,), replicates=5, seed=0)
            fields[name] = ()
            with pytest.raises(ValueError, match=name):
                ex.ExperimentPlan(**fields)
        square = Region.from_bounds([((0.0, 0.0), (1.0, 1.0))])
        with pytest.raises(ValueError, match=r"regions\[0\] is 2-d, the density 1-d"):
            ex.ExperimentPlan(
                density=DensitySpec.homogeneous(region),
                # a 2-d region over a 1-d density
                test_functions=(TestFunctionSpec(region=square),),
                functional=FunctionalSpec(family=DIRECTED_NN),
                lambda_grid=(10.0,),
                replicates=5,
                seed=0,
            )


class TestPipeline:
    def test_directed_nn_small_run_hits_targets_loosely(self):
        rep = directed_report(1.0, [1.0], [(0.0, 1.0)], 500.0, 800, 10)
        rs = rep["per_lambda"][0]["regions"][0]
        assert rs["target_mean"] == pytest.approx(0.5)
        assert rs["target_var"] == pytest.approx(1.0 / 6.0)
        assert abs(rs["scaled_mean"] - 0.5) <= 5.0 * rs["se_scaled_mean"]
        assert abs(rs["scaled_var"] - 1.0 / 6.0) <= 5.0 * rs["se_scaled_var"]
        # report serializes cleanly
        json.dumps(rep)

    def test_scaled_fields_only_for_directed_1d(self):
        # directed on the line: every scaled field is its moment / lambda,
        # bit for bit, at every intensity
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = ex.run_experiment(small_plan(replicates=30,
                                               lambda_grid=(40.0, 80.0)))
        for lr in rep["per_lambda"]:
            for rs in lr["regions"]:
                assert rs["scaled_mean"] == rs["mean"] / lr["lambda"]
                assert rs["se_scaled_mean"] == rs["se_mean"] / lr["lambda"]
                assert rs["scaled_var"] == rs["var"] / lr["lambda"]
                assert rs["se_scaled_var"] == rs["se_var"] / lr["lambda"]
        # kNN in the plane: no scaled field at any intensity
        square = Region.from_bounds([((0.0, 0.0), (1.0, 1.0))])
        halves = (Region.from_bounds([((0.0, 0.0), (0.5, 1.0))]),
                  Region.from_bounds([((0.5, 0.0), (1.0, 1.0))]))
        plan = ex.ExperimentPlan(
            density=DensitySpec.homogeneous(square),
            test_functions=tuple(TestFunctionSpec(region=r) for r in halves),
            functional=FunctionalSpec(family=KNN_UNDIRECTED, k=3, alpha=1.0),
            lambda_grid=(60.0, 120.0), replicates=6, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = ex.run_experiment(plan)
        for lr in rep["per_lambda"]:
            for rs in lr["regions"]:
                assert (rs["scaled_mean"], rs["se_scaled_mean"], rs["scaled_var"],
                        rs["se_scaled_var"]) == (None, None, None, None)

    def test_one_pool_per_run(self, monkeypatch):
        starts = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        plan = small_plan(replicates=24, lambda_grid=(40.0, 80.0, 160.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = ex.run_experiment(plan)
            assert starts == []
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
            pooled = ex.run_experiment(plan, workers=2)
        assert starts == [2]
        assert (json.dumps(pooled, sort_keys=True)
                == json.dumps(serial, sort_keys=True))

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_refused_before_any_pool(self, monkeypatch, seed):
        # the plan refuses the seed itself, so no worker is forked to fail
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            ex.run_experiment(dataclasses.replace(small_plan(), seed=seed), workers=2)

    def test_binomial_variance_matches_formula_constant(self):
        # Monte Carlo route to the same constant the closed form produces
        (scaled_var,), (se,) = ex.binomial_scaled_variances(
            small_plan(replicates=3000, seed=19), 1500.0)
        assert scaled_var == pytest.approx(v_alpha(1.0), abs=4.0 * se)

    def test_poisson_excess_sign_for_alpha_2(self):
        # the Poisson side is the engine's scaled variance of the same plan
        (rs,) = directed_report(2.0, [1.0], [(0.0, 1.0)], 800.0, 2500,
                                23)["per_lambda"][0]["regions"]
        (binomial_var,), (binomial_se,) = ex.binomial_scaled_variances(
            small_plan(replicates=2500, seed=23, alpha=2.0), 800.0)
        excess = rs["scaled_var"] - binomial_var
        combined_se = np.hypot(rs["se_scaled_var"], binomial_se)
        assert excess > 0.0
        assert excess == pytest.approx(0.25, abs=4.0 * combined_se + 0.02)

    @pytest.mark.parametrize("lam, n", [(0.4, 0), (3.4, 3)])
    def test_too_few_points_fail_fast(self, lam, n):
        # k = 3 needs 4 points: refused before any draw, naming n and lambda
        plan = dataclasses.replace(small_plan(replicates=100_000), functional=
                                   FunctionalSpec(family=KNN_UNDIRECTED, k=3))
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"n={n} points at lambda={lam}"):
            ex.binomial_scaled_variances(plan, lam)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("lam", [1e300, np.inf])
    def test_count_beyond_numpy_refused(self, lam):
        with pytest.raises(ValueError, match=re.escape(f"lambda={lam:g}: a count of")):
            ex.binomial_scaled_variances(small_plan(), lam)

    @pytest.mark.parametrize("family, k", [(DIRECTED_NN, 1), (KNN_UNDIRECTED, 2)])
    def test_binomial_draws_one_stream_per_replicate(self, family, k):
        # replicate r scores binomial stream r with t_vector: here n = 80
        # points on two boxes of weights 3 and 1 in the plane, one region each
        boxes = (((0.0, 0.0), (1.0, 1.0)), ((1.0, 0.0), (2.0, 1.0)))
        plan = ex.ExperimentPlan(
            density=DensitySpec(Region.from_bounds(boxes), (3.0, 1.0)),
            test_functions=tuple(TestFunctionSpec(region=Region.from_bounds([b]))
                                 for b in boxes),
            functional=FunctionalSpec(family=family, k=k, alpha=1.5),
            lambda_grid=(20.0,), replicates=12, seed=3)
        rows = [t_vector(sample_binomial(plan.density, 80, 3, stream=(1 << 36) + r),
                         plan.test_functions, plan.functional, 20.0)
                for r in range(12)]
        _, _, var, se_var = ex.estimate_moments(np.array(rows))
        scaled_var, se_scaled_var = ex.binomial_scaled_variances(plan, 20.0)
        assert np.array_equal(scaled_var, var / 20.0)
        assert np.array_equal(se_scaled_var, se_var / 20.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_binomial_equals_the_gap_reference(self, alpha):
        # on the unit interval at unit density the statistic is
        # n^alpha * sum of nearest-neighbour gaps^alpha, so the scaled
        # variance is n^(2 alpha - 1) Var[sum of gaps^alpha]
        n = 50
        unit = DensitySpec(Region.interval(0.0, 1.0), (1.0,))
        rows = np.ones(n, bool)
        sums = [np.sum(nn_distances(sample_binomial(
                    unit, n, 3, stream=(1 << 36) + r).points, rows) ** alpha)
                for r in range(30)]
        _, _, (var,), (se,) = ex.estimate_moments(matrix(sums))
        (scaled_var,), (se_scaled_var,) = ex.binomial_scaled_variances(
            small_plan(replicates=30, seed=3, alpha=alpha), float(n))
        assert scaled_var == pytest.approx(n ** (2.0 * alpha - 1.0) * var, rel=1e-12)
        assert se_scaled_var == pytest.approx(n ** (2.0 * alpha - 1.0) * se, rel=1e-12)

    def test_fixed_n_excess_in_the_plane(self):
        # Poisson minus fixed-n scaled variance is delta_d^2, with delta_d =
        # omega_d^(-a/d) Gamma(1 + a/d) (1 - a/d) the mean add-one cost of
        # the directed score.  On the unit square at a = 1, delta_2 =
        # pi^(-1/2) Gamma(3/2) (1/2) = pi^(-1/2) (pi^(1/2) / 2) (1/2) = 1/4,
        # so the excess is 1/16, where the line's delta_1^2 is 0.  The
        # Poisson side is the engine's matrix.
        square = Region.from_bounds([((0.0, 0.0), (1.0, 1.0))])
        plan = ex.ExperimentPlan(
            density=DensitySpec(square, (1.0,)),
            test_functions=(TestFunctionSpec(region=square),),
            functional=FunctionalSpec(family=DIRECTED_NN, alpha=1.0),
            lambda_grid=(500.0,), replicates=2000, seed=5)
        _, _, (var,), (se_var,) = ex.estimate_moments(ex.run_replicates(plan, 500.0))
        (binomial,), (se_binomial,) = ex.binomial_scaled_variances(plan, 500.0)
        excess = var / 500.0 - binomial
        se = np.hypot(se_var / 500.0, se_binomial)
        assert abs(excess - 1.0 / 16.0) <= 3.0 * se
        assert excess > 3.0 * se  # the line's value, 0, sits far off
        # a kNN plan in the plane runs through the same path
        knn = dataclasses.replace(plan, replicates=20, functional=FunctionalSpec(
            family=KNN_UNDIRECTED, k=3, alpha=1.0))
        scaled_var, se_scaled_var = ex.binomial_scaled_variances(knn, 500.0)
        assert np.isfinite(scaled_var).all() and (scaled_var > 0.0).all()
        assert np.isfinite(se_scaled_var).all() and (se_scaled_var > 0.0).all()

    def test_normal_cdf_reference(self):
        # ndtr is the Phi used throughout; pin it against the error function
        from math import erf, sqrt
        for t in (-1.5, 0.0, 0.7):
            assert ndtr(t) == pytest.approx(0.5 * (1 + erf(t / sqrt(2))), rel=1e-15)


class TestTargets:
    """The closed-form targets E[D^a] J(1-a) and (v_a + delta_a^2) J(1-2a),
    J(p) the integral of kappa^p over the region, as a report gives them."""

    @staticmethod
    def run(*args):
        return directed_report(*args)["per_lambda"][0]["regions"]

    def test_alpha_3_targets_are_exact(self):
        # unit density on the unit interval at alpha = 3 (the rate-criterion
        # plan): 3!/8 and 149/18 + 9/4, to the last bit
        (rs,) = self.run(3.0, [1.0], [(0.0, 1.0)], 50.0, 5, 1)
        assert rs["target_mean"] == 0.75
        assert rs["target_var"] == 379.0 / 36.0

    def test_two_densities(self):
        # kappa = 2 on [0, 1] and 0.5 on [2, 3] at alpha = 2: the means are
        # kappa^-1 / 2 and the variances (85/108 + 1/4) kappa^-3
        regions = self.run(2.0, [2.0, 0.5], [(0.0, 1.0), (2.0, 3.0)],
                           2000.0, 2000, 12)
        c = 85.0 / 108.0 + 0.25
        assert [rs["target_mean"] for rs in regions] == [0.25, 1.0]
        assert regions[0]["target_var"] == pytest.approx(c / 8.0, rel=1e-12)
        assert regions[1]["target_var"] == pytest.approx(c * 8.0, rel=1e-12)
        # the scaled means carry an O(1/(kappa lambda)) boundary bias, about
        # +0.0005 and +0.005 here; the bands are 4 times that
        assert abs(regions[0]["scaled_mean"] - 0.25) <= 0.002
        assert abs(regions[1]["scaled_mean"] - 1.0) <= 0.02

    def test_interval_of_length_2(self):
        # unit density on [0, 2] at alpha = 2: the variance is additive over
        # the interval, 2 (v_2 + delta_2^2), not 2 v_2 + (2 delta_2)^2
        (rs,) = self.run(2.0, [1.0], [(0.0, 2.0)], 1000.0, 4000, 5)
        target = 2.0 * (85.0 / 108.0 + 0.25)
        assert rs["target_var"] == pytest.approx(target, rel=1e-12)
        assert abs(rs["scaled_var"] - target) <= 0.25

    def test_zero_weight_box_is_skipped(self):
        # a region over a box of zero density: kappa^(1-2a) there would be
        # 0^-3, but the box holds no points and adds nothing
        support = Region.from_bounds([((0.0,), (1.0,)), ((1.0,), (2.0,))])
        region = Region.interval(0.0, 2.0)
        plan = ex.ExperimentPlan(
            density=DensitySpec(region=support, weights=(1.0, 0.0)),
            test_functions=(TestFunctionSpec(region=region),),
            functional=FunctionalSpec(family=DIRECTED_NN, alpha=2.0),
            lambda_grid=(50.0,), replicates=5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (rs,) = ex.run_experiment(plan)["per_lambda"][0]["regions"]
        assert rs["target_mean"] == 0.5
        assert rs["target_var"] == pytest.approx(85.0 / 108.0 + 0.25, rel=1e-12)

    @pytest.mark.parametrize("alpha, weight", [(100.0, 1.0), (50.0, 1e-7)],
                             ids=["constant", "power_of_kappa"])
    def test_targets_beyond_a_double_refuse_the_plan(self, alpha, weight):
        # v_alpha overflows from alpha ~ 84.8; kappa^(1 - 2 alpha) of a small
        # weight overflows long before
        region = Region.interval(0.0, 1.0)
        fields = dict(test_functions=(TestFunctionSpec(region=region),),
                      lambda_grid=(50.0,), replicates=5, seed=1)
        density = DensitySpec(region=region, weights=(weight,))
        with pytest.raises(ValueError, match=f"functional.alpha={alpha:g}: the "
                                             f"closed-form targets overflow"):
            ex.ExperimentPlan(density=density, functional=FunctionalSpec(
                family=DIRECTED_NN, alpha=alpha), **fields)
        # the same exponent on the kNN family has no closed-form targets
        ex.ExperimentPlan(density=density, functional=FunctionalSpec(
            family=KNN_UNDIRECTED, alpha=alpha), **fields)

    def test_piecewise_test_function(self):
        # kappa = 1 on [0, 1] and 3 on [1, 2]; f = 2 on [0.2, 0.6] and -1 on
        # [1.1, 1.7], alpha = 2: the targets are E[D^2] sum_b v_b J_b(-1) =
        # 0.5 (0.8 - 0.2) and (v_2 + delta_2^2) sum_b v_b^2 J_b(-3) =
        # (85/108 + 1/4) (1.6 + 0.6/27)
        boxes = [{"lower": [0.0], "upper": [1.0]}, {"lower": [1.0], "upper": [2.0]}]
        plan = cli.parse_plan({
            "dimension": 1, "density": {"boxes": boxes, "weights": [1.0, 3.0]},
            "regions": [[{"lower": [0.2], "upper": [0.6]},
                         {"lower": [1.1], "upper": [1.7]}]],
            "test_functions": [{"kind": "piecewise", "values": [2.0, -1.0]}],
            "functional": {"family": "nn_directed", "alpha": 2.0},
            "lambda_grid": [500.0], "replicates": 4000, "seed": 0})
        assert plan.regions == (plan.test_functions[0].region,)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            (rs,) = ex.run_experiment(plan)["per_lambda"][0]["regions"]
        target_var = (85.0 / 108.0 + 0.25) * (1.6 + 0.6 / 27.0)
        assert rs["target_mean"] == pytest.approx(0.3, rel=1e-12)
        assert rs["target_var"] == pytest.approx(target_var, rel=1e-12)
        # over 12 seeds of this plan the scaled mean had SE 0.0009 and the
        # scaled variance 0.042, their z-scores an SD of 0.9 and 1.0: the
        # bands are about 4 SE
        assert abs(rs["scaled_mean"] - 0.3) <= 0.004
        assert abs(rs["scaled_var"] - target_var) <= 0.17
