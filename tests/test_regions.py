"""Geometry: membership, volumes, and the cube lattices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabpp import regions as rg


def unit_interval():
    return rg.Region.interval(0.0, 1.0)


class TestBoxRegion:
    def test_volumes(self):
        assert unit_interval().volume == 1.0
        square = rg.Region.from_bounds([((0, 0), (1, 1))])
        assert square.volume == 1.0
        union = rg.Region.from_bounds([((0,), (1,)), ((2,), (3.5,))])
        assert union.volume == pytest.approx(2.5)

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            rg.Box((0.0,), (0.0,))

    def test_overlapping_boxes_rejected(self):
        with pytest.raises(ValueError):
            rg.Region.from_bounds([((0,), (2,)), ((1,), (3,))])

    def test_adjacent_boxes_allowed(self):
        r = rg.Region.from_bounds([((0,), (1,)), ((1,), (2,))])
        assert r.volume == 2.0

    def test_half_open_membership(self):
        r = unit_interval()
        assert r.contains([[0.0]])[0]
        assert not r.contains([[1.0]])[0]


class TestCoveringPacking:
    def test_hand_counts(self):
        r = unit_interval()
        cov4 = rg.covering(r, 4.0)
        assert cov4.dtype == np.int64 and cov4.shape == (5, 1)
        assert cov4.ravel().tolist() == [0, 1, 2, 3, 4]
        assert rg.covering(r, 1.0).ravel().tolist() == [0, 1]
        assert rg.packing(r, 4.0).ravel().tolist() == [1, 2, 3]
        empty = rg.packing(r, 1.0)
        assert empty.dtype == np.int64 and empty.shape == (0, 1)

    def test_straddling_cube_counts_in_packing(self):
        # cube [0.5, 1.5] spans both boxes of (0, 1.2) U (1.2, 3)
        r = rg.Region.from_bounds([((0,), (1.2,)), ((1.2,), (3,))])
        assert 1 in rg.packing(r, 1.0).ravel().tolist()
        # a gap, however small in appearance, breaks containment
        r_gap = rg.Region.from_bounds([((0,), (1.2,)), ((1.3,), (3,))])
        assert 1 not in rg.packing(r_gap, 1.0).ravel().tolist()

    def test_packing_subset_of_covering(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(1, 3))
            lo = rng.uniform(-2, 1, size=d)
            hi = lo + rng.uniform(0.3, 2.0, size=d)
            region = rg.Region.from_bounds([(tuple(lo), tuple(hi))])
            lam = float(rng.choice([1.0, 10.0, 100.0]))
            cov = {tuple(z) for z in rg.covering(region, lam)}
            pk = {tuple(z) for z in rg.packing(region, lam)}
            assert pk <= cov

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(min_value=1, max_value=3),
        lam=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
        data=st.data(),
    )
    def test_sandwich(self, d, lam, data):
        lo = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
        extent = data.draw(st.lists(st.floats(0.05, 1.5), min_size=d, max_size=d))
        hi = [a + e for a, e in zip(lo, extent)]
        region = rg.Region.from_bounds([(tuple(lo), tuple(hi))])
        scaled_volume = lam * region.volume
        assert len(rg.packing(region, lam)) <= scaled_volume + 1e-9
        assert len(rg.covering(region, lam)) >= scaled_volume - 1e-9

    def test_covering_count_growth_bounded(self):
        # (n - lam |B|) / lam^((d-1)/d) stays within a ten-fold band over octaves
        region = rg.Region.from_bounds([((0, 0), (1.3, 0.7)), ((0, 0.7), (0.6, 1.9))])
        ratios = []
        for j in range(6):
            lam = 20.0 * 2.0 ** j
            n = len(rg.covering(region, lam))
            excess = n - lam * region.volume
            ratios.append(excess / lam ** 0.5)
        assert max(ratios) / min(ratios) < 10.0

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            rg.covering(unit_interval(), 0.0)
