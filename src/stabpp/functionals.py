"""Per-point scores and region statistics for nearest-neighbour graphs.

Two functional families are provided:

* ``nn_directed`` -- the score of a point is its nearest-neighbour distance
  raised to the weight exponent; the region statistic sums scores over points
  of the region (neighbours may lie outside it).
* ``knn_undirected`` -- the score is half the alpha-weighted length of the
  undirected k-nearest-neighbour-graph edges incident to the point, so the
  scores sum to the total alpha-weighted edge length of the graph.

The intensity-scaled statistic dilates the whole configuration by
lambda^(1/d) around the origin before scoring, then integrates the scores
against a bounded piecewise-constant test function evaluated at the original
locations.  In one dimension with an indicator test function the directed
statistic equals lambda^alpha times the unscaled region sum (homogeneity).

The stabilization probe estimates, per sampled location, the smallest dilated
radius such that rerandomizing the configuration outside the corresponding
ball leaves the score unchanged, and fits the exponential decay rate of the
radius tail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import neighbors
from .point_process import (PROBE_STREAM_BASE, DensitySpec,
                            PointConfiguration, first_with, generator,
                            sample_location, sample_poisson_rng)
from .regions import Region

__all__ = [
    "DIRECTED_NN",
    "KNN_UNDIRECTED",
    "FunctionalSpec",
    "TestFunctionSpec",
    "t_vector",
    "stabilization_probe",
    "fit_line",
]

DIRECTED_NN = "nn_directed"
KNN_UNDIRECTED = "knn_undirected"


@dataclass(frozen=True)
class FunctionalSpec:
    """The score xi: functional family, neighbour count and weight exponent.

    The intensity is not part of it; it is an argument wherever a
    configuration is scored or drawn.
    """

    family: str = DIRECTED_NN
    k: int = 1
    alpha: float = 1.0

    def __post_init__(self):
        if self.family not in (DIRECTED_NN, KNN_UNDIRECTED):
            raise ValueError(f"unknown functional family {self.family!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.family == DIRECTED_NN and self.k != 1:
            raise ValueError("directed nearest-neighbour functional fixes k = 1")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("alpha must be > 0 and finite")

    @property
    def min_points(self) -> int:
        return self.k + 1


@dataclass(frozen=True)
class TestFunctionSpec:
    """Bounded piecewise-constant test function supported on one region: one
    finite value per box, 1 on every box when none are given (the region's
    indicator)."""

    __test__ = False  # keep pytest from collecting this as a test class

    region: Region
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        n = len(self.region.boxes)
        values = tuple(map(float, (1.0,) * n if self.values is None else self.values))
        if len(values) != n:
            raise ValueError("piecewise test function needs one value per box")
        if not np.isfinite(values).all():
            raise ValueError(f"piecewise values must be finite, got {list(values)}")
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# scores

def _incident_half_weights(points: np.ndarray, nbr: np.ndarray,
                           alpha: float) -> np.ndarray:
    """Half the alpha-weighted incident edge length of the kNN graph, per point."""
    n, k = nbr.shape
    src = np.repeat(np.arange(n), k)
    dst = nbr.ravel()
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    # np.unique without its lazy numpy.ma import: sorted keys, repeats dropped
    keys = np.sort(u * n + v)
    edges = keys[np.r_[True, keys[1:] != keys[:-1]]]
    eu, ev = edges // n, edges % n
    w = np.sqrt(np.sum((points.take(eu, axis=0) - points.take(ev, axis=0)) ** 2,
                       axis=1)) ** alpha
    half = 0.5 * w
    # every eu half, then every ev half, each added in turn to its point
    return np.bincount(np.concatenate([eu, ev]),
                       weights=np.concatenate([half, half]), minlength=n)


def _scores(dilated: np.ndarray, spec: FunctionalSpec,
            rows: np.ndarray) -> np.ndarray:
    """The scores of the dilated points, for the region statistics and the
    probe alike: the directed family scores only the rows of the boolean
    mask ``rows`` (NaN elsewhere), the kNN family every point."""
    if spec.family == DIRECTED_NN:
        scores = neighbors.nn_distances(dilated, subset=rows)
        scores **= spec.alpha
        return scores
    nbr = neighbors.knn_indices(dilated, spec.k)
    return _incident_half_weights(dilated, nbr, spec.alpha)


# ---------------------------------------------------------------------------
# scaled region statistics

def t_vector(config: PointConfiguration, fs, spec: FunctionalSpec,
             lam: float) -> np.ndarray:
    """Per test function f of the sequence ``fs``, the sum of dilated scores
    weighted by f.

    The configuration is dilated by lam^(1/d) and scored once for all
    test functions; f is evaluated at the original locations, so only points
    of f's region contribute.  When some region holds a point, fewer points
    than the neighbour search needs raise its ValueError.
    """
    pts = config.points
    masks = [f.region.contains(pts) for f in fs]
    out = np.zeros(len(fs))
    union = masks[0]
    for m in masks[1:]:
        union = union | m
    if not union.any():
        return out
    scores = _scores(pts * lam ** (1.0 / config.dimension), spec, union)
    for i, (f, mask) in enumerate(zip(fs, masks)):
        if mask.any():
            if min(f.values) == max(f.values):
                # constant on its region: no second membership test
                weights = np.full(np.count_nonzero(mask), f.values[0])
            else:
                inside = pts[mask]
                weights = np.zeros(len(inside))
                for box, v in zip(f.region.boxes, f.values):
                    weights[box.contains(inside)] = v
            out[i] = np.dot(scores[mask], weights)
    return out


# ---------------------------------------------------------------------------
# stabilization probe

def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept: (slope, intercept, R^2).

    R^2 is 1 when y is constant.  The rate fit and the probe's decay fit
    both use it.
    """
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2


def _xi_at(x: np.ndarray, points: np.ndarray, spec: FunctionalSpec,
           scale: float) -> float:
    """The score of x added to the points as their last row, all dilated by
    ``scale`` (lambda^(1/d))."""
    dilated = np.vstack([points, x]) * scale
    last = np.arange(len(dilated)) == len(points)
    return float(_scores(dilated, spec, last)[-1])


_PROBE_REL_TOL = 1e-12  # a score counts as unchanged within this relative gap


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` (linear method), to the last bit.

    One ``np.partition`` at the virtual index (n - 1) q, then numpy's lerp:
    a + (b - a) t, or b - (b - a)(1 - t) once t >= 0.5.  np.quantile itself
    imports numpy.ma on first use, partway through a run.
    """
    n = len(values)
    pos = (n - 1) * q
    lo = int(pos)
    if lo >= n - 1:
        return float(values.max())
    a, b = np.partition(values, (lo, lo + 1))[lo:lo + 2]
    t = pos - lo
    diff = b - a
    return float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)


def _probe_radius(density: DensitySpec, lam: float, spec: FunctionalSpec,
                  resample_count: int, seed: int, i: int) -> tuple[float, bool]:
    """Probe i's dilated stabilization radius, and whether it is censored.

    Probe i draws, from stream ``PROBE_STREAM_BASE + i``, its location x,
    then its base configuration, then every redraw of the radius search.
    """
    scale = lam ** (1.0 / density.region.dimension)
    lo, hi = density.region.bounding_box()
    r_max = scale * float(np.sqrt(np.sum((hi - lo) ** 2))) + 1.0
    rng = generator(seed, PROBE_STREAM_BASE + i)
    x = sample_location(density, rng)
    draws = (sample_poisson_rng(density, lam, rng) for _ in itertools.count())
    base = first_with(spec.min_points, draws,
                      f"probe {i} at probe.lambda={lam} with functional.k={spec.k}")
    xi0 = _xi_at(x, base, spec, scale)
    diff = base - x
    base_d2 = np.einsum("ij,ij->i", diff, diff)

    def invariant(r: float) -> bool:
        ball = base_d2 <= (r / scale) ** 2
        for _ in range(resample_count):
            fresh = sample_poisson_rng(density, lam, rng)
            fd = fresh - x
            outside = np.einsum("ij,ij->i", fd, fd) > (r / scale) ** 2
            mixed = np.vstack([base[ball], fresh[outside]])
            if len(mixed) < spec.min_points:
                return False
            xi1 = _xi_at(x, mixed, spec, scale)
            if abs(xi1 - xi0) > _PROBE_REL_TOL * max(1.0, abs(xi0)):
                return False
        return True

    if invariant(0.0):
        return 0.0, False
    hi_r = max(r_max / 1024.0, 1e-6)
    while hi_r < r_max and not invariant(hi_r):
        hi_r *= 2.0
    if hi_r >= r_max and not invariant(r_max):
        return r_max, True
    hi_r = min(hi_r, r_max)
    lo_r = 0.0
    for _ in range(18):
        mid = 0.5 * (lo_r + hi_r)
        if invariant(mid):
            hi_r = mid
        else:
            lo_r = mid
    return hi_r, False


def stabilization_probe(density: DensitySpec, lam: float, spec: FunctionalSpec,
                        probe_count: int, resample_count: int,
                        seed: int) -> dict:
    """Estimate the stabilization-radius distribution by rerandomization.

    For each probe location x (drawn from the density), searches for the
    smallest dilated radius r such that the score at x is unchanged under
    ``resample_count`` independent redraws of every point outside the ball of
    radius r * lambda^(-1/d) around x.  Searches that hit the dilated region
    diameter without stabilizing are flagged censored and enter the tail
    estimate as lower bounds.  A base draw with fewer than k+1 points is
    redrawn, and after 3 retries the probe raises RuntimeError naming
    ``probe.lambda`` and ``functional.k``.  Returns the payload of
    ``stab-probe``: "tail" (rows {"t", "tail_prob"}), the decay fit's
    "decay_slope", "r_squared" and "fit_window", and "censored_count".
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    if resample_count < 1:
        raise ValueError("resample_count must be >= 1")
    if not lam >= 1.0:
        raise ValueError("probe requires lambda >= 1")
    radii, censored = np.array([
        _probe_radius(density, lam, spec, resample_count, seed, i)
        for i in range(probe_count)]).T

    t_grid = np.linspace(0.0, _quantile(radii, 0.999), 41)
    tail_probs = np.array([(radii > t).mean() for t in t_grid])

    # fit log P[R > t] ~ slope * t over the informative tail
    sel = (tail_probs <= 0.5) & (tail_probs >= 5.0 / probe_count)
    if sel.sum() < 3:
        sel = tail_probs > 0.0
    slope, r2, window = 0.0, 1.0, [0.0, 0.0]
    if sel.sum() >= 2:  # else every probe stabilized at one radius: no tail
        ts = t_grid[sel]
        slope, _, r2 = fit_line(ts, np.log(tail_probs[sel]))
        window = [float(ts[0]), float(ts[-1])]
    return {"decay_slope": slope, "r_squared": r2, "fit_window": window,
            "censored_count": int(censored.sum()),
            "tail": [{"t": float(t), "tail_prob": float(p)}
                     for t, p in zip(t_grid, tail_probs)]}
