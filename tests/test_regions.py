"""Geometry: membership, volumes, and the cube lattices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stabpp import regions as rg


# ---------------------------------------------------------------------------
# reference containment test: subtract every box from the cube, piece by piece

def _subtract(piece, cut):
    """Closed box minus closed box, as a list of closed boxes with positive extent."""
    plo, phi = piece
    clo = np.maximum(plo, cut[0])
    chi = np.minimum(phi, cut[1])
    if np.any(clo >= chi):
        return [piece]  # no positive-measure overlap
    out = []
    lo = plo.copy()
    hi = phi.copy()
    for j in range(len(plo)):
        if lo[j] < clo[j]:
            left_hi = hi.copy()
            left_hi[j] = clo[j]
            out.append((lo.copy(), left_hi))
        if chi[j] < hi[j]:
            right_lo = lo.copy()
            right_lo[j] = chi[j]
            out.append((right_lo, hi.copy()))
        lo[j] = clo[j]
        hi[j] = chi[j]
    return out


def _reference_covered_by(piece, cuts) -> bool:
    """True if the closed box `piece` is covered by the closed boxes `cuts`
    (up to measure zero)."""
    pieces = [piece]
    for cut in cuts:
        pieces = [q for p in pieces for q in _subtract(p, cut)]
    return not pieces


def reference_packing(region, lam):
    """The covering's centers whose closed cube the subtraction leaves empty."""
    scaled = rg._scaled_boxes(region, lam)
    centers = rg.covering(region, lam)
    keep = [_reference_covered_by((z - 0.5, z + 0.5), scaled) for z in centers]
    return centers[np.array(keep, dtype=bool).reshape(len(centers))]


# grid lines on each axis: faces of adjacent cells coincide, and at lambda = 1
# the half-integers among them are unit-cube faces
_GRID = (-1.0, -0.5, -0.25, 0.0, 0.3, 0.5, 0.75, 1.0, 1.5)


@st.composite
def grid_unions(draw):
    """(region, lambda): up to four cells of a per-axis grid, so boxes share
    faces and touch at corners; a cell may give up a small gap on one face."""
    d = draw(st.integers(min_value=1, max_value=3))
    lines = [draw(st.lists(st.sampled_from(_GRID), min_size=2, max_size=4,
                           unique=True).map(sorted)) for _ in range(d)]
    cells = draw(st.lists(
        st.tuples(*(st.integers(0, len(axis) - 2) for axis in lines)),
        min_size=1, max_size=4, unique=True))
    bounds = []
    for cell in cells:
        lo = [lines[j][i] for j, i in enumerate(cell)]
        hi = [lines[j][i + 1] for j, i in enumerate(cell)]
        gap = draw(st.sampled_from([0.0, 0.0, 1e-9, 0.01]))
        axis = draw(st.integers(0, d - 1))
        hi[axis] -= gap  # lines lie at least 0.2 apart: the box stays proper
        bounds.append((tuple(lo), tuple(hi)))
    lam = draw(st.sampled_from([1.0, 2.0 ** d, 10.0, 100.0]))
    return rg.Region.from_bounds(bounds), lam


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

    def test_cube_tiled_by_four_quarters_counts_in_packing(self):
        # the cube [0.5, 1.5]^2 is tiled by four quarter-boxes, none holding it
        quarters = [((a, b), (a + 0.5, b + 0.5)) for a in (0.5, 1.0) for b in (0.5, 1.0)]
        packed = rg.packing(rg.Region.from_bounds(quarters), 1.0)
        assert packed.tolist() == [[1, 1]]
        empty = rg.packing(rg.Region.from_bounds(quarters[:3]), 1.0)
        assert empty.dtype == np.int64 and empty.shape == (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(case=grid_unions())
    def test_packing_equals_the_subtraction_reference(self, case):
        region, lam = case
        got, want = rg.packing(region, lam), reference_packing(region, lam)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

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
