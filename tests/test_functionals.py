"""Scores, region statistics, scaling identities, and the stabilization probe."""

import math

import numpy as np
import pytest

from stabpp import functionals as fn
from stabpp.neighbors import knn_indices
from stabpp.point_process import (PROBE_STREAM_BASE, DensitySpec,
                                  PointConfiguration, generator,
                                  sample_location, sample_poisson_rng)
from stabpp.regions import Region


def line_config(*values):
    return PointConfiguration(dimension=1, points=[[float(v)] for v in values])


THREE = line_config(0, 1, 3)


def unscaled(config, region, spec):
    """The region's statistic at lambda = 1: the plain sum of the scores of
    its points."""
    return fn.t_vector(config, [fn.TestFunctionSpec(region=region)], spec, 1.0)[0]


def directed_sum(points, region, alpha):
    """Sum of alpha-power nearest-neighbour distances over the region's
    points, by brute force: an oracle that shares no code with t_vector."""
    pts = np.asarray(points, dtype=float)
    total = 0.0
    for i in np.flatnonzero(region.contains(pts)):
        d2 = np.sum((np.delete(pts, i, axis=0) - pts[i]) ** 2, axis=1)
        total += math.sqrt(d2.min()) ** alpha
    return total


DIRECTED = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)


class TestElementaryScores:
    # scores of single points, read off the statistic of an indicator region
    # around each point
    def test_nn_distance(self):
        assert unscaled(THREE, Region.interval(-0.5, 0.5), DIRECTED) == 1.0
        assert unscaled(THREE, Region.interval(2.5, 3.5), DIRECTED) == 2.0
        # tie with 0 at distance 1; value unambiguous
        assert unscaled(THREE, Region.interval(0.5, 1.5), DIRECTED) == 1.0

    def test_nn_distance_needs_other_points(self):
        # the probe's score of x among no other point
        with pytest.raises(ValueError):
            fn._xi_at(np.array([0.0]), np.empty((0, 1)), DIRECTED, 1.0)

    def test_xi_knn_three_point_graph(self):
        spec = fn.FunctionalSpec(family=fn.KNN_UNDIRECTED, k=1, alpha=1.0)
        assert unscaled(THREE, Region.interval(0.5, 1.5), spec) == pytest.approx(1.5)
        assert unscaled(THREE, Region.interval(-0.5, 0.5), spec) == pytest.approx(0.5)
        # total edge length of the graph
        assert unscaled(THREE, Region.interval(-1.0, 4.0), spec) == pytest.approx(3.0)

    def test_xi_directed(self):
        at_3 = Region.interval(2.5, 3.5)
        assert unscaled(THREE, Region.interval(-0.5, 0.5), DIRECTED) == 1.0
        assert unscaled(THREE, at_3, fn.FunctionalSpec(alpha=2.0)) == 4.0
        assert unscaled(THREE, at_3, fn.FunctionalSpec(alpha=0.5)) == pytest.approx(
            math.sqrt(2.0))

    def test_l_alpha(self):
        assert unscaled(THREE, Region.interval(-0.5, 2.0), DIRECTED) == pytest.approx(2.0)
        assert unscaled(THREE, Region.interval(10.0, 11.0), DIRECTED) == 0.0
        assert unscaled(THREE, Region.interval(-1.0, 4.0), DIRECTED) == pytest.approx(4.0)

    def test_l_alpha_insufficient(self):
        with pytest.raises(ValueError):
            unscaled(line_config(0.5), Region.interval(0.0, 1.0), DIRECTED)

    @pytest.mark.parametrize("family", [fn.DIRECTED_NN, fn.KNN_UNDIRECTED])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_probe_score_is_the_engines_score(self, family, d):
        # the probe's score of x is the last-row score of the region
        # statistics' scoring of the points with x appended, on the grid path
        # (every row scored) in d >= 2 and the sort path in d = 1
        rng = np.random.default_rng(30 + d)
        for trial in range(40):
            n = int(rng.integers(4, 120))
            k = 1 if family == fn.DIRECTED_NN else int(rng.integers(1, 4))
            spec = fn.FunctionalSpec(family=family, k=k,
                                     alpha=float(rng.uniform(0.3, 3.0)))
            lam = float(rng.uniform(1.0, 500.0))
            pts = rng.uniform(size=(n, d))
            x = rng.uniform(size=d)
            dilated = np.vstack([pts, x]) * lam ** (1.0 / d)
            every = np.ones(n + 1, dtype=bool)
            want = fn._scores(dilated, spec, every)[-1]
            assert fn._xi_at(x, pts, spec, lam ** (1.0 / d)) == want


class TestHalfSumIdentity:
    def test_sum_of_scores_equals_edge_total(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(5, 50))
            k = int(rng.integers(1, 4))
            if n <= k:
                n = k + 2
            alpha = float(rng.uniform(0.5, 2.5))
            pts = rng.uniform(size=(n, d))
            config = PointConfiguration(dimension=d, points=pts)
            spec = fn.FunctionalSpec(family=fn.KNN_UNDIRECTED, k=k, alpha=alpha)
            # a box covering every point: the statistic sums all the scores
            cover = Region.from_bounds([((-1.0,) * d, (2.0,) * d)])
            total = unscaled(config, cover, spec)
            # independent edge-list total from the neighbour matrix
            nbr = knn_indices(pts, k)
            edges = set()
            for i in range(n):
                for j in nbr[i]:
                    edges.add((min(i, int(j)), max(i, int(j))))
            edge_total = math.fsum(
                np.sqrt(((pts[a] - pts[b]) ** 2).sum()) ** alpha for a, b in edges)
            assert total == pytest.approx(edge_total, rel=1e-12)

    def test_half_weights_equal_two_add_at_passes(self):
        # one bincount over both endpoint lists adds each point's halves in
        # the order of np.add.at over eu then ev, so the doubles are equal;
        # rounded coordinates give ties and points shared by many edges
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            for _ in range(20):
                n = int(rng.integers(5, 60))
                k = int(rng.integers(1, 5))
                pts = rng.uniform(size=(n, d))
                if rng.integers(2):
                    pts = np.round(pts * 4.0) / 4.0  # ties and duplicate points
                nbr = knn_indices(pts, k)
                alpha = float(rng.uniform(0.5, 2.5))
                src = np.repeat(np.arange(n), k)
                edges = sorted({(min(a, b), max(a, b))
                                for a, b in zip(src, nbr.ravel().tolist())})
                eu, ev = np.array(edges).T
                w = np.sqrt(np.sum((pts[eu] - pts[ev]) ** 2, axis=1)) ** alpha
                want = np.zeros(n)
                np.add.at(want, eu, 0.5 * w)
                np.add.at(want, ev, 0.5 * w)
                assert np.bincount(np.r_[eu, ev]).max() > 1  # a shared endpoint
                got = fn._incident_half_weights(pts, nbr, alpha)
                assert got.tobytes() == want.tobytes()


class TestScaledStatistics:
    def test_t_statistic_unscaled(self):
        f = fn.TestFunctionSpec(region=Region.interval(-1.0, 4.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        assert fn.t_vector(THREE, [f], spec, 1.0)[0] == pytest.approx(4.0)

    def test_t_statistic_homogeneity_hand_value(self):
        f = fn.TestFunctionSpec(region=Region.interval(-1.0, 4.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        assert fn.t_vector(THREE, [f], spec, 4.0)[0] == pytest.approx(16.0)

    def test_zero_test_function(self):
        f = fn.TestFunctionSpec(region=Region.interval(-1.0, 4.0), values=(0.0,))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        assert fn.t_vector(THREE, [f], spec, 4.0)[0] == 0.0

    def test_homogeneity_identity_1d(self):
        # dilating the configuration multiplies the statistic by lambda^alpha
        rng = np.random.default_rng(2)
        gamma = Region.interval(0.2, 0.8)
        f = fn.TestFunctionSpec(region=gamma)
        for alpha in (0.5, 1.0, 2.0):
            for lam in (3.0, 17.5, 400.0):
                pts = rng.uniform(size=(60, 1))
                config = PointConfiguration(dimension=1, points=pts)
                spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=alpha)
                t = fn.t_vector(config, [f], spec, lam)[0]
                assert t == pytest.approx(
                    lam ** alpha * directed_sum(pts, gamma, alpha), rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(size=(50, 2))
        shift = np.array([13.7, -4.2])
        gamma = Region.from_bounds([((0.1, 0.1), (0.9, 0.9))])
        gamma_shift = Region.from_bounds([(tuple(np.array([0.1, 0.1]) + shift),
                                           tuple(np.array([0.9, 0.9]) + shift))])
        for family, k in ((fn.DIRECTED_NN, 1), (fn.KNN_UNDIRECTED, 2)):
            spec = fn.FunctionalSpec(family=family, k=k, alpha=1.3)
            t0 = fn.t_vector(PointConfiguration(dimension=2, points=pts),
                             [fn.TestFunctionSpec(region=gamma)], spec, 25.0)[0]
            t1 = fn.t_vector(PointConfiguration(dimension=2, points=pts + shift),
                             [fn.TestFunctionSpec(region=gamma_shift)], spec, 25.0)[0]
            assert t1 == pytest.approx(t0, rel=1e-12)

    def test_locality(self):
        # a remote point outside the region that is nobody's nearest neighbour
        # leaves the region sum untouched
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(40, 1))
        gamma = Region.interval(0.0, 1.0)
        spec = fn.FunctionalSpec(alpha=1.5)
        before = unscaled(PointConfiguration(dimension=1, points=pts), gamma, spec)
        extended = np.vstack([pts, [[50.0]]])
        after = unscaled(PointConfiguration(dimension=1, points=extended), gamma, spec)
        assert after == before

    def test_t_vector_single_region(self):
        f = fn.TestFunctionSpec(region=Region.interval(-1.0, 4.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        vec = fn.t_vector(THREE, [f], spec, 1.0)
        assert vec.tolist() == [directed_sum(THREE.points, f.region, 1.0)]

    @pytest.mark.parametrize("family,k", [(fn.DIRECTED_NN, 1), (fn.KNN_UNDIRECTED, 3)])
    def test_t_vector_matches_per_region_statistics(self, family, k):
        # the configuration is scored once and the scores reused per region
        rng = np.random.default_rng(8)
        config = PointConfiguration(dimension=2, points=rng.uniform(size=(300, 2)))
        fs = [fn.TestFunctionSpec(region=Region.from_bounds([((0.0, 0.0), (0.5, 1.0))])),
              fn.TestFunctionSpec(region=Region.from_bounds([((0.5, 0.0), (1.0, 1.0))]),
                                  values=(-2.0,)),
              fn.TestFunctionSpec(region=Region.from_bounds([((5.0, 5.0), (6.0, 6.0))]))]
        spec = fn.FunctionalSpec(family=family, k=k, alpha=1.5)
        expected = [fn.t_vector(config, [f], spec, 300.0)[0] for f in fs]
        assert fn.t_vector(config, fs, spec, 300.0).tolist() == expected
        assert expected[0] > 0.0 and expected[1] < 0.0 and expected[2] == 0.0

    def test_constant_values_scale_the_indicator(self):
        # equal values skip the per-box membership test: 2 on both boxes is
        # exactly twice the indicator, unequal values weigh each box
        rng = np.random.default_rng(3)
        config = PointConfiguration(dimension=1, points=rng.uniform(0, 3, (80, 1)))
        boxes = Region.from_bounds([((0.0,), (1.0,)), ((2.0,), (3.0,))])
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.5)

        def t(region, values=None):
            return fn.t_vector(config, [fn.TestFunctionSpec(region, values)],
                               spec, 50.0)[0]

        assert t(boxes, (2.0, 2.0)) == 2.0 * t(boxes)
        left, right = (Region(1, (b,)) for b in boxes.boxes)
        assert t(boxes, (2.0, -1.0)) == pytest.approx(2.0 * t(left) - t(right),
                                                      rel=1e-12)

    def test_t_vector_empty_config_is_zero(self):
        empty = PointConfiguration(dimension=1, points=np.empty((0, 1)))
        fs = [fn.TestFunctionSpec(region=Region.interval(0.0, 1.0)),
              fn.TestFunctionSpec(region=Region.interval(2.0, 3.0))]
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        assert fn.t_vector(empty, fs, spec, 1.0).tolist() == [0.0, 0.0]

    def test_far_separated_regions_decompose(self):
        # gap far exceeds every nearest-neighbour distance, so the joint
        # statistic equals the per-cluster statistics
        rng = np.random.default_rng(21)
        left = rng.uniform(0.0, 1.0, size=(30, 1))
        right = rng.uniform(100.0, 101.0, size=(25, 1))
        both = PointConfiguration(dimension=1, points=np.vstack([left, right]))
        fs = [fn.TestFunctionSpec(region=Region.interval(0.0, 1.0)),
              fn.TestFunctionSpec(region=Region.interval(100.0, 101.0))]
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        vec = fn.t_vector(both, fs, spec, 9.0)
        t_left = fn.t_vector(PointConfiguration(dimension=1, points=left),
                             fs[:1], spec, 9.0)[0]
        t_right = fn.t_vector(PointConfiguration(dimension=1, points=right),
                              fs[1:], spec, 9.0)[0]
        assert vec[0] == pytest.approx(t_left, rel=1e-12)
        assert vec[1] == pytest.approx(t_right, rel=1e-12)


def replayed_nn_distance(density, lam, seed, i):
    """The dilated distance from probe i's location to its nearest base
    point, replayed from the probe's stream: the location, then the base
    draw (redrawn while it holds fewer than 2 points)."""
    rng = generator(seed, PROBE_STREAM_BASE + i)
    x = sample_location(density, rng)
    base = sample_poisson_rng(density, lam, rng)
    while len(base) < 2:
        base = sample_poisson_rng(density, lam, rng)
    scale = lam ** (1.0 / density.region.dimension)
    return scale * float(np.min(np.sqrt(np.sum((base - x) ** 2, axis=1))))


class TestStabilizationProbe:
    def test_directed_radii_bounded_by_nn_distance(self):
        # the score at x is its nearest-neighbour distance, which a redraw
        # beyond a smaller radius can change: R >= dilated NN distance
        density = DensitySpec.homogeneous(Region.interval(0.0, 1.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        for i in range(40):
            radius, censored = fn._probe_radius(density, 100.0, spec, 3, 60, i)
            assert not censored
            assert radius >= replayed_nn_distance(density, 100.0, 60, i) - 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_directed_radius_within_one_bisection_step_of_nn_distance(self, d):
        # no redraw beyond the nearest-neighbour distance D changes the
        # score, so invariant(r) holds for every r >= D, and the bisection
        # ends within its final width r_max 2^-18 above D; D < r_max, so no
        # probe is censored
        density = DensitySpec.homogeneous(
            Region.from_bounds([((0.0,) * d, (1.0,) * d)]))
        lam, seed = 200.0, 7
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        r_max = lam ** (1.0 / d) * math.sqrt(d) + 1.0
        for i in range(60):
            radius, censored = fn._probe_radius(density, lam, spec, 3, seed, i)
            nn = replayed_nn_distance(density, lam, seed, i)
            assert not censored
            assert radius <= nn * (1.0 + 1e-9) + r_max * 2.0 ** -18

    def test_tail_monotone_and_decaying(self):
        density = DensitySpec.homogeneous(Region.interval(0.0, 1.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        payload = fn.stabilization_probe(density, 150.0, spec, probe_count=150,
                                         resample_count=3, seed=2)
        tail_probs = [row["tail_prob"] for row in payload["tail"]]
        assert np.all(np.diff(tail_probs) <= 1e-12)
        assert payload["decay_slope"] < 0.0
        assert payload["censored_count"] == 0

    def test_line_decay_slope_near_the_radius_law(self):
        # criterion 6's plan: on the line, away from the ends, P[R > t] =
        # exp(-2 kappa t), kappa = 1.  Over seeds 42 and 1-15 the slope ran
        # from -2.194 to -1.555 (mean -1.982, SD 0.206); the band is 3 SD
        density = DensitySpec.homogeneous(Region.interval(0.0, 1.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        payload = fn.stabilization_probe(density, 200.0, spec, probe_count=500,
                                         resample_count=5, seed=42)
        assert abs(payload["decay_slope"] + 2.0) <= 0.6

    def test_plane_decay_slope_near_the_radius_law(self):
        # in the plane the directed law is P[R > t] = exp(-kappa pi t^2), so
        # log P is fitted against t^2 over the payload's window; the slope
        # estimates -kappa pi = -pi.  Over seeds 42 and 1-15 it ran from
        # -3.102 to -2.077 (mean -2.584, SD 0.290; the square's free edges
        # make the tail heavier, 1.9 SD off -pi); the band is 3 SD
        square = Region.from_bounds([((0.0, 0.0), (1.0, 1.0))])
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        payload = fn.stabilization_probe(DensitySpec.homogeneous(square), 200.0,
                                         spec, probe_count=500, resample_count=5,
                                         seed=42)
        lo, hi = payload["fit_window"]
        rows = [row for row in payload["tail"] if lo <= row["t"] <= hi]
        slope, _, _ = fn.fit_line(np.array([row["t"] for row in rows]) ** 2,
                                  np.log([row["tail_prob"] for row in rows]))
        assert abs(slope + math.pi) <= 0.87

    def test_constant_functional_stabilizes_at_zero(self, monkeypatch):
        density = DensitySpec.homogeneous(Region.interval(0.0, 1.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        monkeypatch.setattr(fn, "_xi_at", lambda x, points, s, scale: 1.0)
        payload = fn.stabilization_probe(density, 50.0, spec, probe_count=10,
                                         resample_count=2, seed=3)
        # P[R > 0] = 0 holds exactly when every radius is 0
        assert payload["tail"][0] == {"t": 0.0, "tail_prob": 0.0}

    def test_quantile_equals_numpy(self):
        # the probe's grid end is np.quantile(radii, 0.999) to the last bit
        rng = np.random.default_rng(5)
        inputs = [rng.exponential(size=n) for n in range(1, 400)]
        inputs += [np.round(rng.exponential(size=n) * 3.0) / 3.0
                   for n in (2, 7, 100, 999, 1000, 1001, 5000)]  # ties
        inputs += [np.zeros(n) for n in (1, 2, 1000)]
        far = rng.uniform(size=2000)
        far[17] = 1e12
        inputs.append(far)
        for values in inputs:
            for q in (0.999, 0.0, 0.25, 0.5, 0.9, 1.0):
                assert fn._quantile(values, q) == float(np.quantile(values, q))

    def test_rejects_bad_arguments(self):
        density = DensitySpec.homogeneous(Region.interval(0.0, 1.0))
        spec = fn.FunctionalSpec(family=fn.DIRECTED_NN, alpha=1.0)
        with pytest.raises(ValueError):
            fn.stabilization_probe(density, 50.0, spec, probe_count=0,
                                   resample_count=2, seed=1)
        with pytest.raises(ValueError):
            fn.stabilization_probe(density, 0.5, spec, probe_count=5,
                                   resample_count=2, seed=1)


class TestSpecValidation:
    def test_directed_fixes_k(self):
        with pytest.raises(ValueError):
            fn.FunctionalSpec(family=fn.DIRECTED_NN, k=2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            fn.FunctionalSpec(family="voronoi")

    def test_values_need_one_per_box(self):
        for values in ((), (1.0, 2.0)):
            with pytest.raises(ValueError, match="one value per box"):
                fn.TestFunctionSpec(region=Region.interval(0, 1), values=values)

    def test_values_default_to_the_indicator(self):
        region = Region.from_bounds([((0.0,), (1.0,)), ((2.0,), (3.0,))])
        assert fn.TestFunctionSpec(region=region).values == (1.0, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            fn.TestFunctionSpec(region=region, values=(1.0, np.inf))

    def test_insufficient_points_for_t(self):
        f = fn.TestFunctionSpec(region=Region.interval(0.0, 1.0))
        spec = fn.FunctionalSpec(family=fn.KNN_UNDIRECTED, k=3, alpha=1.0)
        with pytest.raises(ValueError):
            fn.t_vector(line_config(0.5, 0.6), [f], spec, 1.0)
