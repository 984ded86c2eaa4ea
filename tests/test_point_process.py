"""Sampling laws, determinism, and stream independence of the point processes."""

import numpy as np
import pytest

from stabpp import point_process as pp
from stabpp.regions import Box, Region


def unit_density():
    return pp.DensitySpec.homogeneous(Region.interval(0.0, 1.0))


class TestDensitySpec:
    def test_relaxed_mode(self):
        region = Region.from_bounds([((0,), (1,)), ((2,), (3,))])
        spec = pp.DensitySpec(region=region, weights=(1.0, 1.0))
        assert spec.total_mass == pytest.approx(2.0)

    def test_needs_some_mass(self):
        with pytest.raises(ValueError):
            pp.DensitySpec(region=unit_density().region, weights=(0.0,))

    def test_homogeneous_auto_normalizes(self):
        region = Region.from_bounds([((0,), (1,)), ((2,), (4,))])
        spec = pp.DensitySpec.homogeneous(region)
        assert spec.total_mass == pytest.approx(1.0)


class TestFirstWith:
    @staticmethod
    def draws(sizes, drawn):
        for n in sizes:
            drawn.append(n)
            yield np.zeros((n, 1))

    def test_stops_at_the_first_accepted_draw(self):
        drawn = []
        got = pp.first_with(3, self.draws([1, 0, 3, 5], drawn), "replicate 4")
        assert len(got) == 3
        assert drawn == [1, 0, 3]

    def test_never_draws_a_fifth_time(self):
        drawn = []
        with pytest.raises(RuntimeError, match=r"replicate 4\b.*retries"):
            pp.first_with(3, self.draws([2] * 10, drawn), "replicate 4")
        assert drawn == [2] * pp.MAX_DRAWS
        assert pp.MAX_DRAWS == 4 == len(pp.replicate_streams(0))


class TestDeterminism:
    def test_bit_for_bit(self):
        dens = unit_density()
        a = pp.sample_poisson(dens, 500.0, seed=123, stream=7)
        b = pp.sample_poisson(dens, 500.0, seed=123, stream=7)
        assert np.array_equal(a.points, b.points)

    def test_streams_differ(self):
        dens = unit_density()
        a = pp.sample_poisson(dens, 500.0, seed=123, stream=0)
        b = pp.sample_poisson(dens, 500.0, seed=123, stream=1)
        assert len(a) != len(b) or not np.array_equal(a.points, b.points)

    def test_interleaving_does_not_matter(self):
        dens = unit_density()
        direct = pp.sample_poisson(dens, 300.0, seed=5, stream=3)
        pp.sample_poisson(dens, 300.0, seed=5, stream=9)  # unrelated stream
        again = pp.sample_poisson(dens, 300.0, seed=5, stream=3)
        assert np.array_equal(direct.points, again.points)

    def test_uniforms_equal_generator_uniform(self):
        # the sampler's affine uniforms must reproduce Generator.uniform bit
        # for bit on several non-unit boxes
        region = Region.from_bounds([((-1.5, 2.0), (0.5, 2.25)),
                                     ((3.0, -4.0), (7.5, -1.0)),
                                     ((10.0, 0.1), (10.3, 9.9))])
        dens = pp.DensitySpec(region=region, weights=(3.0, 0.4, 1.7))
        for stream in range(20):
            got = pp.sample_poisson(dens, 50.0, seed=11, stream=stream)
            rng = pp.generator(11, stream)
            parts = []
            for w, box in zip(dens.weights, region.boxes):
                n = int(rng.poisson(50.0 * w * box.volume))
                parts.append(rng.uniform(box.lower, box.upper, size=(n, 2)))
            assert np.array_equal(got.points, np.concatenate(parts))


def test_namespaces_end_below_the_next():
    """Up to MAX_REPLICATES replicates, each namespace of the stream map ends
    below the start of the next."""
    last = pp.MAX_REPLICATES - 1
    assert last < pp.replicate_streams(0)[1]
    assert pp.replicate_streams(last)[-1] < pp.BINOMIAL_STREAM_BASE
    assert pp.BINOMIAL_STREAM_BASE + last < pp.PROBE_STREAM_BASE


# streams at the edges of each namespace of the stream map
REKEY_STREAMS = sorted(
    {0, 5, 2 ** 33, 2 ** 40 + 3}
    | {s for r in (0, 1, 7, 999) for s in pp.replicate_streams(r)}
    | {pp.BINOMIAL_STREAM_BASE + r for r in (0, 1, 999)})


def used_generators():
    """Generators left in states a re-key must fully overwrite."""
    half = pp.generator(3, 11)
    half.integers(0, 1 << 32, dtype=np.uint32)  # caches the other 32 bits
    state = half.bit_generator.state
    assert state["has_uint32"] == 1
    mid = pp.generator(4, 12)
    mid.random(5)  # one full 4-word buffer, then one word of the next
    state = mid.bit_generator.state
    assert 0 < state["buffer_pos"] < 4 and state["state"]["counter"][0] > 0
    return {"has_uint32": half, "mid_buffer": mid}


class TestRekey:
    """A re-keyed Philox yields exactly the stream of a new generator."""

    @pytest.mark.parametrize("start", ["has_uint32", "mid_buffer"])
    def test_equals_new_generator(self, start):
        rng = used_generators()[start]
        for stream in REKEY_STREAMS:
            fresh = pp.generator(21, stream)
            again = pp.rekey(rng, 21, stream)
            assert again is rng
            assert np.array_equal(again.poisson(300.0), fresh.poisson(300.0))
            assert np.array_equal(again.random((7, 2)), fresh.random((7, 2)))
            assert np.array_equal(again.integers(0, 1 << 32, 3, dtype=np.uint32),
                                  fresh.integers(0, 1 << 32, 3, dtype=np.uint32))
            # leave the generator mid-buffer with a cached half-word for the
            # next stream
            rng.random(1)
            rng.integers(0, 1 << 32, dtype=np.uint32)

    @pytest.mark.parametrize("start", ["has_uint32", "mid_buffer"])
    def test_samplers_draw_the_same_configuration(self, start):
        rng = used_generators()[start]
        region = Region.from_bounds([((0.0, 0.0), (1.0, 1.0)),
                                     ((1.0, 0.0), (3.0, 0.5))])
        dens = pp.DensitySpec(region=region, weights=(2.0, 0.7))
        for stream in REKEY_STREAMS:
            got = pp.sample_poisson(dens, 40.0, seed=8, stream=stream, rng=rng)
            want = pp.sample_poisson(dens, 40.0, seed=8, stream=stream)
            assert np.array_equal(got.points, want.points)
            got = pp.sample_binomial(dens, 25, seed=8, stream=stream, rng=rng)
            want = pp.sample_binomial(dens, 25, seed=8, stream=stream)
            assert np.array_equal(got.points, want.points)

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            pp.rekey(pp.generator(0, 0), 0, -1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masking would alias -1 to 2^64 - 1 and 2^64 to 0
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            pp.generator(seed, 0)
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
            pp.rekey(pp.generator(0, 0), seed, 0)


class TestPoissonLaw:
    def test_count_limit_is_numpys_largest_poisson_mean(self):
        # one count is drawn, not that many points: numpy takes a mean of
        # MAX_COUNT and refuses the next double, and MAX_COUNT fits an int64
        rng = pp.generator(0, 0)
        assert rng.poisson(pp.MAX_COUNT) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(pp.MAX_COUNT, np.inf))
        assert pp.MAX_COUNT < 2.0 ** 63

    def test_zero_weight_box_stays_empty(self):
        region = Region.from_bounds([((0,), (1,)), ((2,), (3,))])
        dens = pp.DensitySpec(region=region, weights=(0.0, 1.0))
        for stream in range(20):
            cfg = pp.sample_poisson(dens, 50.0, seed=2, stream=stream)
            assert np.all(cfg.points[:, 0] >= 2.0)

    def test_mean_and_dispersion(self):
        # counts over 1000 streams: mean within 1000 +- 3 sqrt(1000/1000)*sqrt(1000)
        dens = unit_density()
        counts = np.array([len(pp.sample_poisson(dens, 1000.0, seed=77, stream=s))
                           for s in range(1000)])
        assert abs(counts.mean() - 1000.0) <= 3.0
        assert 0.9 <= counts.var(ddof=1) / counts.mean() <= 1.1

    def test_stream_independence_chi_squared(self):
        # paired counts from distinct streams are independent at the 0.001 level
        stats = pytest.importorskip("scipy.stats")
        dens = unit_density()
        draws = 10_000
        c1 = np.empty(draws, dtype=int)
        c2 = np.empty(draws, dtype=int)
        for i in range(draws):
            c1[i] = len(pp.sample_poisson(dens, 5.0, seed=31, stream=2 * i))
            c2[i] = len(pp.sample_poisson(dens, 5.0, seed=31, stream=2 * i + 1))
        edges = [-0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 30.5]
        table, _, _ = np.histogram2d(c1, c2, bins=[edges, edges])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 0.001

    def test_thinning_consistency(self):
        # piecewise {1 on (0,1/2), 1 on (1/2,1)} equals homogeneous on (0,1)
        stats = pytest.importorskip("scipy.stats")
        split_region = Region.from_bounds([((0.0,), (0.5,)), ((0.5,), (1.0,))])
        split = pp.DensitySpec(region=split_region, weights=(1.0, 1.0))
        whole = unit_density()
        draws = 10_000
        lam = 5.0
        counts_a = np.empty(draws, dtype=int)
        counts_b = np.empty(draws, dtype=int)
        coords_a, coords_b = [], []
        for i in range(draws):
            a = pp.sample_poisson(split, lam, seed=8, stream=i)
            b = pp.sample_poisson(whole, lam, seed=9, stream=i)
            counts_a[i] = len(a)
            counts_b[i] = len(b)
            coords_a.append(a.points[:, 0])
            coords_b.append(b.points[:, 0])
        _, p_counts = stats.ks_2samp(counts_a, counts_b)
        _, p_coords = stats.ks_2samp(np.concatenate(coords_a),
                                     np.concatenate(coords_b))
        assert p_counts > 0.001
        assert p_coords > 0.001


def two_unit_boxes(weights):
    """Weights on [0, 1] and [2, 3]."""
    region = Region.from_bounds([((0,), (1,)), ((2,), (3,))])
    return pp.DensitySpec(region=region, weights=weights)


class TestBinomial:
    def test_exact_count(self):
        dens = unit_density()
        cfg = pp.sample_binomial(dens, 1, seed=0)
        assert len(cfg) == 1
        assert 0.0 <= cfg.points[0, 0] < 1.0
        empty = pp.sample_binomial(dens, 0, seed=0)
        assert empty.points.shape == (0, 1)

    def test_uniform_mean(self):
        cfg = pp.sample_binomial(unit_density(), 100_000, seed=4)
        # 3 sigma CLT band with sigma = 1/sqrt(12)
        assert abs(cfg.points[:, 0].mean() - 0.5) <= 0.003

    def test_two_box_proportion(self):
        cfg = pp.sample_binomial(two_unit_boxes((0.5, 0.5)), 100_000, seed=4)
        frac = (cfg.points[:, 0] < 1.0).mean()
        assert abs(frac - 0.5) <= 0.005

    def test_box_chosen_by_mass(self):
        # weights (3, 1) on equal boxes: box 0 holds 3/4 of the points
        n = 100_000
        cfg = pp.sample_binomial(two_unit_boxes((3.0, 1.0)), n, seed=4)
        frac = (cfg.points[:, 0] < 1.0).mean()
        se = np.sqrt(0.75 * 0.25 / n)
        assert abs(frac - 0.75) <= 4.0 * se

    def test_zero_weight_box_stays_empty(self):
        dens = two_unit_boxes((1.0, 0.0))
        for stream in range(20):
            cfg = pp.sample_binomial(dens, 100, seed=2, stream=stream)
            assert len(cfg) == 100
            assert np.all(cfg.points[:, 0] < 1.0)


def unit_line(intensity, window, seed, stream):
    """A homogeneous Poisson process of the given intensity on a 1-d window:
    a unit-weight density on the window, drawn at lambda = intensity."""
    unit = pp.DensitySpec(Region(dimension=1, boxes=(window,)), (1.0,))
    return pp.sample_poisson(unit, intensity, seed, stream)


class TestHomogeneousLine:
    def test_expected_counts(self):
        window = Box((0.0,), (1.0,))
        counts = [len(unit_line(1.0, window, seed=3, stream=s))
                  for s in range(2000)]
        assert abs(np.mean(counts) - 1.0) < 0.1
        window10 = Box((0.0,), (10.0,))
        counts = [len(unit_line(2.0, window10, seed=3, stream=s))
                  for s in range(2000)]
        assert abs(np.mean(counts) - 20.0) < 0.5

    def test_interior_gap_moment(self):
        # nearest-neighbour gap of a unit line process is Exp(2): mean 1/2
        window = Box((0.0,), (1000.0,))
        gaps = []
        for s in range(5):
            x = np.sort(unit_line(1.0, window, seed=12, stream=s).points[:, 0])
            d = np.minimum(np.r_[np.inf, np.diff(x)], np.r_[np.diff(x), np.inf])
            border = np.minimum(x - 0.0, 1000.0 - x)
            gaps.append(d[border > d])
        mean = np.concatenate(gaps).mean()
        assert abs(mean - 0.5) / 0.5 < 0.02

    def test_equals_inline_formula(self):
        # a one-box sample_poisson of unit weight is the inline formula of a
        # line process: a Poisson count, then Generator.uniform
        windows = [Box((0.0,), (1.0,)), Box((-3.5,), (2.25,)),
                   Box((1e-3,), (2e-3,)), Box((7.0,), (7.5,))]
        for window in windows:
            lo, hi = window.lower[0], window.upper[0]
            for intensity in (0.5, 1.0, 7.3, 2000.0):
                for s in range(20):
                    rng = pp.generator(9, s)
                    n = int(rng.poisson(intensity * (hi - lo)))
                    expected = rng.uniform(lo, hi, size=(n, 1))
                    got = unit_line(intensity, window, seed=9, stream=s)
                    assert np.array_equal(got.points, expected)
