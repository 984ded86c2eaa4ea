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
cell, so collinear and thin inputs cannot shrink the cells.  Cells are
numbered row-major and the points sorted by cell, so the block of cells within
r cells of a query's own is (2r+1)^(d-1) contiguous runs of the sorted points,
one along the last axis per offset on the leading axes (one run in d = 1).  A
point outside the block is farther than r times the smallest width of an axis
with several cells (a clamped point lies even farther out than its cell says),
so a row with k candidates below that bound is final; the others go round
again with r doubled, on the same grid.  A final row's candidates below the
bound fill a dense table, one row per query padded with inf, and its k
neighbours are picked in k passes of ``argmin``: each pass takes the least
distance and, only where some row has ties at it, the least index among the
tied candidates.  Queries go in chunks that bound the memory.
"""

from __future__ import annotations

import numpy as np

__all__ = ["brute_force_knn", "knn_indices", "nn_distances"]

# entries per chunk: the runs of _TABLE // (runs per block) queries are found
# at once, and _TABLE // (the most candidates of one of them) rows fill a table
_TABLE = 1 << 15
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
    strides = np.cumprod(np.concatenate(([1], shape[:0:-1])))[::-1]
    cell_id = cell @ strides
    order = np.argsort(cell_id, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(cell_id, minlength=shape.prod()))))
    spts = pts.take(order, axis=0)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # slack for rounding in the cell assignment
    wmin = width.min() * (1.0 - 1e-9)

    out_idx = np.empty((len(rows), k), dtype=np.int64)
    out_dist = np.empty((len(rows), k))
    todo, r = np.arange(len(rows)), 1
    while todo.size:
        reach = np.minimum(r, shape - 1)
        bound = np.inf if (reach == shape - 1).all() else r * wmin
        # the block is one run of cells along the last axis per offset on the
        # leading axes; the middle run, runs // 2, holds the query's own cell
        side = 2 * reach[:-1] + 1
        runs = side.prod()
        lead = np.indices(side).reshape(d - 1, runs).T - reach[:-1]
        redo = np.zeros(len(rows), dtype=bool)
        batch = max(1, _TABLE // runs)
        for t in range(0, len(todo), batch):
            part = todo[t:t + batch]
            c = cell.take(rows[part], axis=0)
            block = c[:, None, :-1] + lead
            inside = ((block >= 0) & (block < shape[:-1])).all(axis=2)
            base = block @ strides[:-1]
            first = starts[np.where(inside, base + np.maximum(c[:, -1:] - r, 0), 0)]
            lens = starts[np.where(
                inside, base + np.minimum(c[:, -1:] + r, shape[-1] - 1) + 1, 0)] - first
            have = lens.sum(axis=1)
            step = max(1, _TABLE // have.max())
            for s in range(0, len(have), step):
                mine, size = part[s:s + step], have[s:s + step]
                head, count = first[s:s + step], lens[s:s + step]
                # each run's offset in the flat candidate list, row after row
                flat = (np.cumsum(count) - count.ravel()).reshape(count.shape)
                pos = np.arange(size.sum()) + np.repeat((head - flat).ravel(), count.ravel())
                query = rows[mine]
                diff = spts.take(pos, axis=0)
                diff -= pts.take(np.repeat(query, size), axis=0)
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                # the query itself, in the run of its own cell
                dist[flat[:, runs // 2] + rank[query] - head[:, runs // 2]] = np.inf
                # a row is final once k candidates lie within the bound
                keep = dist < bound
                kept = np.add.reduceat(keep, np.cumsum(size) - size, dtype=np.int64)
                ok = kept >= k
                if not ok.all():
                    redo[mine[~ok]] = True
                    keep &= np.repeat(ok, size)
                    mine, kept = mine[ok], kept[ok]
                # the kept candidates, one row per query, padded with inf
                mask = np.arange(kept.max(initial=k)) < kept[:, None]
                table = np.full(mask.shape, np.inf)
                table[mask] = dist.compress(keep)
                cand = np.full(mask.shape, _NO_INDEX)
                cand[mask] = order.take(pos.compress(keep))
                at = np.arange(len(mine))
                for j in range(k):
                    col = table.argmin(axis=1)
                    least = table[at, col]
                    tied = table == least[:, None]
                    if np.count_nonzero(tied) > len(at):
                        # several candidates at some row's least distance
                        col = np.where(tied, cand, _NO_INDEX).argmin(axis=1)
                    out_idx[mine, j] = cand[at, col]
                    out_dist[mine, j] = least
                    table[at, col] = np.inf
        todo = np.flatnonzero(redo)
        r *= 2
    return out_idx, out_dist


def knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) neighbour-index matrix, each row sorted by (distance, index)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n - 1 < k:
        raise ValueError(f"need at least k+1={k + 1} points, got {n}")
    return _knn(pts, k, np.arange(n))[0]


def nn_distances(points: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """Distance from each row of the boolean mask ``subset`` to its nearest
    other point; the other rows are NaN.  Neighbours are always searched in
    the full configuration.

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
    if np.count_nonzero(subset) == 1:
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
        out[np.logical_not(subset)] = np.nan
        return out
    rows = np.nonzero(subset)[0]
    out = np.full(n, np.nan)
    out[rows] = _knn(pts, 1, rows)[1][:, 0]
    return out
