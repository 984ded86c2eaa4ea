"""Accelerated neighbour search against the quadratic reference."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stabpp import neighbors as nb


@st.composite
def lattice_clouds(draw):
    """Small-integer lattice points (ties, exact duplicates) and a k.

    The cloud may have one axis collapsed to a constant or be a single
    repeated point, and n may be exactly k+1.
    """
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    n = draw(st.one_of(st.just(k + 1), st.integers(k + 1, 40)))
    pts = draw(hnp.arrays(np.float64, (n, d), elements=st.integers(-2, 2).map(float)))
    shape = draw(st.sampled_from(["lattice", "flat", "identical"]))
    if shape == "flat":
        pts[:, draw(st.integers(0, d - 1))] = draw(st.integers(-2, 2))
    elif shape == "identical":
        pts[:] = pts[0]
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 7.0]))
    return pts * scale, k


def per_row_oracle(points, k):
    """The oracle as a loop: each row's distances, one lexsort by (distance,
    index) per row.  The reference of the blocked ``brute_force_knn``."""
    n = len(points)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        diff = points - points[i]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        d[i] = np.inf
        out[i] = np.lexsort((np.arange(n), d))[:k]
    return out


class TestOracle:
    @settings(max_examples=200, deadline=None)
    @given(lattice_clouds())
    def test_lattices_match_per_row_loop(self, cloud):
        pts, k = cloud
        assert np.array_equal(nb.brute_force_knn(pts, k), per_row_oracle(pts, k))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["uniform", "lattice", "identical"])
    def test_across_blocks(self, d, shape):
        # 300 rows: two full blocks of the oracle and a partial one
        rng = np.random.default_rng(d)
        if shape == "uniform":
            pts = rng.uniform(-1.0, 1.0, size=(300, d))
        elif shape == "lattice":
            pts = rng.integers(0, 4, size=(300, d)).astype(float)
        else:
            pts = np.full((300, d), 0.5)
        for k in (1, 5):
            assert np.array_equal(nb.brute_force_knn(pts, k), per_row_oracle(pts, k))


class TestEquivalence:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_instances(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(25):
            n = int(rng.integers(10, 300))
            k = int(rng.integers(1, 5))
            pts = rng.uniform(-1.0, 1.0, size=(n, d))
            assert np.array_equal(nb.knn_indices(pts, k), nb.brute_force_knn(pts, k))

    def test_clustered_points(self):
        # tight clusters: the grid spans the gaps between them, yet every
        # row finishes in its first block; test_rows_redone_after_first_pass
        # covers rows that go round again
        rng = np.random.default_rng(5)
        centers = rng.uniform(0, 10, size=(6, 2))
        pts = np.concatenate([c + 0.01 * rng.standard_normal((40, 2))
                              for c in centers])
        assert np.array_equal(nb.knn_indices(pts, 3), nb.brute_force_knn(pts, 3))

    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_redone_after_first_pass(self, d):
        # clusters of 6 with duplicates: each row's 8 nearest reach into
        # other clusters, beyond the first block, so many rows go round again
        rng = np.random.default_rng(20 + d)
        centers = rng.uniform(0, 10, size=(40, d))
        pts = np.concatenate([c + 0.01 * rng.integers(0, 2, size=(6, d))
                              for c in centers])
        assert np.array_equal(nb.knn_indices(pts, 8), nb.brute_force_knn(pts, 8))

    @pytest.mark.parametrize("lattice", ["1d_0.2_lattice", "2d_integer_lattice"])
    def test_kth_distances_tie_across_a_row(self, lattice):
        rng = np.random.default_rng(9)
        if lattice == "1d_0.2_lattice":
            pts = (rng.integers(0, 400, size=2000) * 0.2).reshape(-1, 1)
        else:
            pts = rng.integers(0, 45, size=(2000, 2)).astype(float)
        assert np.array_equal(nb.knn_indices(pts, 5), nb.brute_force_knn(pts, 5))

    def test_identical_points_across_chunks(self):
        # 300 candidates per row put _TABLE // 300 = 109 rows in each chunk
        pts = np.full((300, 2), 0.25)
        assert np.array_equal(nb.knn_indices(pts, 5), nb.brute_force_knn(pts, 5))

    @pytest.mark.parametrize("d", [2, 3])
    def test_identical_points_stay_within_memory(self, d):
        # every row has all n points as candidates; the table budget bounds
        # the rows held at once
        pts = np.full((2000, d), 0.25)
        tracemalloc.start()
        try:
            got = nb.knn_indices(pts, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20
        assert np.array_equal(got, nb.brute_force_knn(pts, 5))

    def test_spread_points_stay_within_memory(self):
        # 40 000 uniform 3-d points: 9 runs per block and thousands of rows;
        # the runs of a chunk of rows are held at once, not those of all rows
        pts = np.random.default_rng(4).uniform(size=(40_000, 3))
        tracemalloc.start()
        try:
            got = nb.knn_indices(pts, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * pts.nbytes
        for i in np.random.default_rng(5).choice(len(pts), 20, replace=False):
            dist = nb._pair_dists(pts, pts[i])
            dist[i] = np.inf
            assert np.array_equal(got[i], np.lexsort((np.arange(len(pts)), dist))[:3])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("budget", [40, 100, 300])
    def test_small_tables_across_chunk_edges(self, d, budget, monkeypatch):
        # a budget of a few hundred entries splits every round into many
        # chunks of runs and of tables, and the clusters send rows round again
        monkeypatch.setattr(nb, "_TABLE", budget)
        rng = np.random.default_rng(40 + d)
        centers = rng.uniform(0, 10, size=(20, d))
        pts = np.concatenate([c + 0.01 * rng.integers(0, 2, size=(6, d))
                              for c in centers])
        rows = np.flatnonzero(rng.uniform(size=len(pts)) < 0.5)
        oracle = nb.brute_force_knn(pts, 8)
        assert np.array_equal(nb.knn_indices(pts, 8), oracle)
        assert np.array_equal(nb._knn(pts, 8, rows)[0], oracle[rows])

    def test_lattice_ties_break_by_index(self):
        # (1,0) and (0,1) tie at distance 1 from the origin
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        got = nb.knn_indices(pts, 2)
        assert got[0].tolist() == [1, 2]
        assert np.array_equal(got, nb.brute_force_knn(pts, 2))

    def test_1d_ties_with_duplicates_to_the_left(self):
        pts = np.array([[0.0], [5.0], [0.0], [1.0]])
        assert nb.knn_indices(pts, 1).tolist() == [[2], [3], [0], [0]]

    def test_collinear_input_finishes(self):
        x = np.linspace(0.0, 1.0, 2000)
        pts = np.c_[x, 2.0 * x]
        started = time.perf_counter()
        got = nb.knn_indices(pts, 3)
        assert time.perf_counter() - started < 1.0
        assert np.array_equal(got, nb.brute_force_knn(pts, 3))

    def test_far_outlier_finishes(self):
        # cells come from quantiles, so the outlier cannot put every other
        # point into one cell
        rng = np.random.default_rng(8)
        pts = np.vstack([rng.uniform(size=(1999, 2)), [[100.0, 100.0]]])
        started = time.perf_counter()
        got = nb.knn_indices(pts, 3)
        assert time.perf_counter() - started < 0.2
        assert np.array_equal(got, nb.brute_force_knn(pts, 3))

    @settings(max_examples=300, deadline=None)
    @given(lattice_clouds())
    def test_lattices_match_oracle(self, cloud):
        pts, k = cloud
        assert np.array_equal(nb.knn_indices(pts, k), nb.brute_force_knn(pts, k))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            nb.knn_indices(np.zeros((3, 2)), 3)

    @pytest.mark.parametrize("search", [
        nb.knn_indices, nb.brute_force_knn,
        lambda pts, k: nb.nn_distances(pts, subset=np.arange(len(pts)) == 1)],
        ids=["knn_indices", "brute_force_knn", "nn_distances_one_row"])
    def test_overflowing_distances_rejected(self, search):
        # finite coordinates whose squared differences overflow to inf: no
        # distance can be compared, so every search refuses the input
        pts = np.array([[0.0, 0.0], [1e200, 1e200], [2e200, 0.0], [3e200, 1.0]])
        with pytest.raises(ValueError, match="squared distances overflow"):
            search(pts, 2)


class TestNNDistances:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force(self, d):
        rng = np.random.default_rng(42 + d)
        pts = rng.uniform(size=(200, d))
        nn = nb.brute_force_knn(pts, 1)[:, 0]
        diff = pts - pts[nn]
        expected = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        assert np.array_equal(nb.nn_distances(pts, np.ones(len(pts), bool)),
                              expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_subset_matches_brute_force(self, d):
        rng = np.random.default_rng(70 + d)
        pts = rng.integers(0, 50, size=(2000, d)) * 0.1
        nn = nb.brute_force_knn(pts, 1)[:, 0]
        diff = pts - pts[nn]
        expected = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        # a mask of one row takes the one-query pass: rows with and without
        # a duplicate, and the first and last rows
        masks = [rng.uniform(size=2000) < 0.3]
        for row in (0, 1999, int(np.argmin(expected)), int(np.argmax(expected))):
            masks.append(np.arange(2000) == row)
        for mask in masks:
            out = nb.nn_distances(pts, subset=mask)
            assert np.array_equal(out[mask], expected[mask])
            assert np.all(np.isnan(out[~mask]))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cloud", ["clusters", "outlier"])
    def test_subset_rows_redone_after_first_pass(self, d, cloud):
        # clusters of 6 with duplicates (test_rows_redone_after_first_pass)
        # and a far outlier: rows of a subset whose neighbours lie beyond
        # the first block go round again
        rng = np.random.default_rng(30 + d)
        if cloud == "clusters":
            centers = rng.uniform(0, 10, size=(40, d))
            pts = np.concatenate([c + 0.01 * rng.integers(0, 2, size=(6, d))
                                  for c in centers])
        else:
            pts = np.vstack([rng.uniform(size=(1999, d)), np.full((1, d), 100.0)])
        mask = rng.uniform(size=len(pts)) < 0.3
        mask[-1] = True
        rows = np.flatnonzero(mask)
        for k in (1, 8):
            oracle = nb.brute_force_knn(pts, k)[rows]
            diff = pts[oracle] - pts[rows, None, :]
            expected = np.sqrt(np.einsum("bij,bij->bi", diff, diff))
            idx, dist = nb._knn(pts, k, rows)
            assert np.array_equal(idx, oracle)
            assert np.array_equal(dist, expected)
        # the first of the 8 nearest is the nearest
        out = nb.nn_distances(pts, subset=mask)
        assert np.array_equal(out[mask], expected[:, 0])
        assert np.all(np.isnan(out[~mask]))

    def test_subset_mask(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(50, 2))
        mask = np.zeros(50, dtype=bool)
        mask[::5] = True
        out = nb.nn_distances(pts, subset=mask)
        full = nb.nn_distances(pts, np.ones(50, bool))
        assert np.allclose(out[mask], full[mask])
        assert np.all(np.isnan(out[~mask]))

    def test_1d_tie_groups_with_subset(self):
        # an unstable sort permutes tied points; no distance may change
        rng = np.random.default_rng(12)
        ties = rng.integers(0, 80, size=400) * 0.37
        pts = np.r_[ties, rng.uniform(0.0, 30.0, size=200)].reshape(-1, 1)
        mask = rng.uniform(size=len(pts)) < 0.4
        nn = nb.brute_force_knn(pts, 1)[:, 0]
        diff = pts - pts[nn]
        expected = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        out = nb.nn_distances(pts, subset=mask)
        assert np.array_equal(out[mask], expected[mask])
        assert np.all(np.isnan(out[~mask]))

    @settings(max_examples=200, deadline=None)
    @given(lattice_clouds())
    def test_lattices_match_oracle_distance(self, cloud):
        pts, _ = cloud
        nn = nb.brute_force_knn(pts, 1)[:, 0]
        diff = pts - pts[nn]
        expected = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        assert np.array_equal(nb.nn_distances(pts, np.ones(len(pts), bool)),
                              expected)
