"""Nearest-neighbour search: one vectorized grid kernel for every dimension.

The kernel must return exactly the same neighbour sets, in the same order, as
the O(n^2) reference (`brute_force_knn`), which is kept as the test oracle.
Distance ties are broken by the canonical point order (generation index), so
both compute distances with the same formula and order by (distance, index).

The kernel buckets the points into a grid of about (k+1)/2 points per cell,
or k+1 when at most one axis has several cells.  On each axis the grid
spans the order statistics of zero-based ranks c and n-1-c,
c = (n-1) // 100, which bracket the 1% and 99% quantiles; one
``np.partition`` finds both.  Spanning these rather than the bounding box
keeps a few far outliers from crowding all other points into one cell;
points beyond them are clamped into the edge cells.  Each axis has its own
cell width; an axis of zero extent, or thinner than a cell, gets a single
cell, so collinear and thin inputs cannot shrink the cells.  All queries
gather their candidates from the block of cells within r cells of their own
at once.  A point outside the block is farther than r times the smallest
width of an axis with several cells (a clamped point lies even farther out
than its cell says), so a row whose k-th distance is below that bound is
final; the rows that fail are redone with r doubled.  A final row's k
neighbours are picked in k passes of ``np.minimum.reduceat`` over its
candidates, without sorting them: each pass takes the least distance, then
the least index among the candidates at that distance.
Queries go in chunks so that the candidate arrays stay bounded: all-duplicate
input puts n^2 candidates into one cell.
"""

from __future__ import annotations

import numpy as np

__all__ = ["brute_force_knn", "knn_indices", "nn_distances"]

# candidates plus block cells gathered at once; larger chunks were no faster
# and raised the peak resident set
_CHUNK = 1 << 12
_NO_INDEX = np.iinfo(np.int64).max
# rows of the oracle's distance matrix held at once: 6 MB of differences
# at n = 2000, d = 3
_ORACLE_BLOCK = 128


def _pair_dists(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = points - x
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _check_span(pts: np.ndarray) -> None:
    """Raise ValueError unless every squared distance of the points is finite."""
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    cols = pts.T.copy()  # numpy reduces contiguous rows much faster for small d
    with np.errstate(over="ignore"):
        span = cols.max(axis=1) - cols.min(axis=1)
        if not np.isfinite(span @ span):
            raise ValueError(
                f"squared distances overflow: the points span {span.max():.3g}")


def brute_force_knn(points: np.ndarray, k: int) -> np.ndarray:
    """Reference kNN: full pairwise distances, (n, k) neighbour indices.

    Rows go in blocks of ``_ORACLE_BLOCK``, each with every distance of the
    formula of ``_pair_dists``.  ``np.partition`` finds each row's k-th least
    distance, and one ``lexsort`` orders the entries at or below it by (row,
    distance, index); a row's first k of them are its neighbours.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n - 1 < k:
        raise ValueError(f"need at least k+1={k + 1} points, got {n}")
    _check_span(pts)
    out = np.empty((n, k), dtype=np.int64)
    for s in range(0, n, _ORACLE_BLOCK):
        rows = np.arange(s, min(s + _ORACLE_BLOCK, n))
        diff = pts - pts[rows, None, :]
        dist = np.sqrt(np.einsum("bij,bij->bi", diff, diff))
        dist[np.arange(len(rows)), rows] = np.inf
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
        row, idx = np.nonzero(dist <= kth)
        order = np.lexsort((idx, dist[row, idx], row))
        count = np.bincount(row, minlength=len(rows))
        start = np.cumsum(count) - count
        out[rows] = idx[order][start[:, None] + np.arange(k)]
    return out


def _grid_shape(ext: np.ndarray, cells: float) -> np.ndarray:
    """Cells per axis: about ``cells`` in all, one on axes thinner than a cell."""
    shape = np.ones(len(ext), dtype=np.int64)
    live = ext > 0
    while live.any():
        # geometric mean in logs, so tiny or huge extents cannot under/overflow
        width = np.exp((np.log(ext[live]).sum() - np.log(cells)) / live.sum())
        thin = live & (ext < width)
        if not thin.any():
            shape[live] = np.maximum(np.floor(ext[live] / width), 1)
            break
        live &= ~thin
    return shape


def _select(cand, dist, have, k, out_idx, out_dist, rows):
    """Write the k least (distance, index) candidates of each row, in order.

    The candidates come grouped by row, ``have`` (>= k) per row, and a row
    holds each index at most once.  Each pass takes a row's least distance,
    then the least index among the candidates at that distance, and sets
    the chosen candidate's distance to inf.  ``dist`` is overwritten.
    """
    start = np.cumsum(have) - have
    for j in range(k):
        least = np.minimum.reduceat(dist, start)
        tied = dist == np.repeat(least, have)
        if np.count_nonzero(tied) > len(start):
            # several candidates at some row's least distance
            pick = np.minimum.reduceat(np.where(tied, cand, _NO_INDEX), start)
            tied &= cand == np.repeat(pick, have)
        chosen = np.flatnonzero(tied)
        out_idx[rows, j] = cand[chosen]
        out_dist[rows, j] = least
        dist[chosen] = np.inf


def _knn(pts: np.ndarray, k: int, rows: np.ndarray):
    """k nearest other points of each point in ``rows``: (indices, distances),
    each row sorted by (distance, index)."""
    n, d = pts.shape
    _check_span(pts)
    cut = (n - 1) // 100
    part = np.partition(pts, (cut, n - 1 - cut), axis=0)
    lo, hi = part[cut], part[n - 1 - cut]
    ext = hi - lo
    shape = _grid_shape(ext, 2 * n / (k + 1))
    if (shape > 1).sum() < 2:
        # along a line the points within one cell width of a query fill
        # about two cells, k+1 at (k+1)/2 per cell: too few on a lattice,
        # where most rows would go round again
        shape = _grid_shape(ext, n / (k + 1))
    width = np.where(shape > 1, ext / shape, np.inf)
    cell = np.clip(np.floor((pts - lo) / width), 0, shape - 1).astype(np.int64)
    strides = np.cumprod(np.r_[shape[1:], 1][::-1])[::-1]
    cell_id = cell @ strides
    order = np.argsort(cell_id, kind="stable")
    starts = np.r_[0, np.cumsum(np.bincount(cell_id, minlength=int(shape.prod())))]
    # slack for rounding in the cell assignment
    wmin = width.min() * (1.0 - 1e-9)

    out_idx = np.empty((len(rows), k), dtype=np.int64)
    out_dist = np.empty((len(rows), k))
    todo = np.arange(len(rows))
    r = 1
    while todo.size:
        reach = np.minimum(r, shape - 1)
        bound = np.inf if (reach == shape - 1).all() else r * wmin
        offsets = np.stack(np.meshgrid(*[np.arange(-a, a + 1) for a in reach],
                                       indexing="ij"), axis=-1).reshape(-1, d)
        nblock = len(offsets)
        failed = []
        step = max(1, _CHUNK // nblock)
        for s in range(0, len(todo), step):
            block = cell.take(rows[todo[s:s + step]], axis=0)[:, None, :] + offsets
            inside = ((block >= 0) & (block < shape)).all(axis=2)
            ids = np.where(inside, block @ strides, 0)
            first = np.where(inside, starts[ids], 0)
            count = np.where(inside, starts[ids + 1], 0) - first
            cost = np.cumsum(count.sum(axis=1) + nblock)
            cuts = np.searchsorted(cost, np.arange(_CHUNK, cost[-1], _CHUNK))
            for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(cost)]):
                if a == b:
                    continue
                mine = todo[s + a:s + b]
                lens = count[a:b].ravel()
                pos = (np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
                       + np.repeat(first[a:b].ravel(), lens))
                cand = order[pos]
                owner = np.repeat(np.arange(b - a), count[a:b].sum(axis=1))
                query = rows[mine][owner]
                # take gathers rows about 10 times faster than pts[cand]
                diff = pts.take(cand, axis=0) - pts.take(query, axis=0)
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                # a row is final once k candidates lie within the bound
                keep = (cand != query) & (dist < bound)
                cand, owner, dist = cand[keep], owner[keep], dist[keep]
                have = np.bincount(owner, minlength=b - a)
                ok = have >= k
                if not ok.all():
                    live = ok[owner]
                    cand, dist, have = cand[live], dist[live], have[ok]
                _select(cand, dist, have, k, out_idx, out_dist, mine[ok])
                failed.append(mine[~ok])
        todo = np.concatenate(failed)
        r *= 2
    return out_idx, out_dist


def knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) neighbour-index matrix, each row sorted by (distance, index)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n - 1 < k:
        raise ValueError(f"need at least k+1={k + 1} points, got {n}")
    return _knn(pts, k, np.arange(n))[0]


def nn_distances(points: np.ndarray, subset: np.ndarray | None = None) -> np.ndarray:
    """Distance from each point to its nearest other point.

    With ``subset`` (a boolean mask) only those rows are filled; the rest are
    NaN.  Neighbours are always searched in the full configuration.

    A one-row subset is one pass of the oracle's formula, no sort or grid, so
    its distance is the oracle's; it refuses the points only if a distance it
    computes is not finite, the grid whenever their span overflows.
    In one dimension the nearest neighbour is adjacent in sorted order.  The
    sort need not be stable: equal coordinates form one contiguous run of the
    sorted array and each member of the run is at distance 0 from a
    neighbour in it, so the order within a run cannot change any distance.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n < 2:
        raise ValueError("need at least 2 points")
    if subset is not None and np.count_nonzero(subset) == 1:
        i = int(subset.argmax())
        dist = _pair_dists(pts, pts[i])
        if not np.isfinite(dist).all():
            _check_span(pts)  # raises: a coordinate or the span is not finite
        dist[i] = np.inf
        out = np.full(n, np.nan)
        out[i] = dist.min()
        return out
    if d == 1:
        x = pts[:, 0]
        order = np.argsort(x)
        xs = x[order]
        gaps = xs[1:] - xs[:-1]
        nn_sorted = np.empty(n)
        nn_sorted[0], nn_sorted[-1] = gaps[0], gaps[-1]
        np.minimum(gaps[:-1], gaps[1:], out=nn_sorted[1:-1])
        out = np.empty(n)
        out[order] = nn_sorted
        if subset is not None:
            out[np.logical_not(subset)] = np.nan
        return out
    rows = np.nonzero(subset)[0] if subset is not None else np.arange(n)
    out = np.full(n, np.nan)
    out[rows] = _knn(pts, 1, rows)[1][:, 0]
    return out
