"""Reproducible sampling of Poisson and binomial point processes.

All samplers are pure functions of (seed, stream): the random stream is a
counter-based Philox generator keyed by the seed and the stream id, so
distinct streams can be drawn concurrently with no coordination and replaying
a (seed, stream) pair reproduces the configuration bit for bit.  The stream
map below is the one place that assigns stream ids.

Densities are piecewise constant over the boxes of a region.  A Poisson
sample draws an independent Poisson count per box with mean
lambda * weight * |box| and scatters that many uniform points in the box;
boxes are processed in their canonical order and the configuration keeps
generation order.

A uniform point in a box is ``lo + (hi - lo) * random()``, row by row: the
same doubles and the same arithmetic as ``Generator.uniform(lo, hi)``, so
the stream is unchanged, without its slower broadcasting path.

Building a Philox generator costs 12-17 us (2-vCPU x86, numpy 2.4), because
numpy first seeds a ``SeedSequence`` from OS entropy that the explicit key
then overrides; setting the state of an existing one costs 1.5-4 us.  The
replicate engine therefore builds one generator per block of replicates and
re-keys it for each stream (``rekey``).  Philox is counter-based, so the
generator keyed to (seed, stream) at counter 0 with an empty buffer is the
one ``generator(seed, stream)`` returns, and the streams are the same bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np
import numpy.random  # noqa: F401  numpy would import it on the first draw

from .regions import Box, Region

__all__ = [
    "DensitySpec",
    "PointConfiguration",
    "BINOMIAL_STREAM_BASE",
    "PROBE_STREAM_BASE",
    "replicate_streams",
    "first_with",
    "generator",
    "sample_poisson",
    "sample_binomial",
]

# The stream map.  Each use owns a namespace far above any replicate count,
# which is at most MAX_REPLICATES (2^32), so each namespace ends below the next:
#   r                        replicate r, at every intensity of a plan (common
#                            random numbers: the intensities are not independent)
#   RETRY_STREAM_BASE+4r+a   retry a = 0, 1, 2 of replicate r (too few points)
#   BINOMIAL_STREAM_BASE+r   the fixed-n draw of replicate r (Poisson vs binomial)
#   PROBE_STREAM_BASE+i      probe i of the stabilization probe, all its draws
RETRY_STREAM_BASE = 1 << 32
BINOMIAL_STREAM_BASE = 1 << 36
PROBE_STREAM_BASE = 1 << 40
MAX_REPLICATES = RETRY_STREAM_BASE

MAX_DRAWS = 4  # a first draw and 3 retries: len(replicate_streams(r))

# numpy's largest Poisson mean (``Generator.poisson`` refuses any above it);
# it is below 2^63, so a count under it also fits a multinomial draw's int64
MAX_COUNT = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


def check_count(count, where: str):
    """``count``, a number of points to draw (a Poisson mean or a fixed n),
    when it lies below ``MAX_COUNT``; else ValueError naming ``where``."""
    if not count < MAX_COUNT:
        raise ValueError(f"{where}: a count of {count:.4g} points is at or "
                         f"above the limit {MAX_COUNT:.4g}")
    return count


def replicate_streams(r: int) -> tuple[int, ...]:
    """Stream r, then its 3 reserved retry streams."""
    base = RETRY_STREAM_BASE + 4 * r
    return (r, base, base + 1, base + 2)


def first_with(min_points: int, draws, what: str):
    """The first of the lazy ``draws`` (configurations or point arrays) with
    at least ``min_points`` points, wherever they lie.  At most ``MAX_DRAWS``
    are taken; when all are short, raises RuntimeError naming ``what``."""
    for draw in islice(draws, MAX_DRAWS):
        if len(draw) >= min_points:
            return draw
    raise RuntimeError(f"{what}: no draw with {min_points} or more points "
                       f"after {MAX_DRAWS - 1} retries")


def _key(seed: int, stream: int) -> tuple[int, int]:
    """The Philox key of (seed, stream), taken as it is: a seed outside
    [0, 2^64) would alias another, so it is refused, as is a negative stream."""
    seed, stream = int(seed), int(stream)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")
    if stream < 0:
        raise ValueError("stream id must be nonnegative")
    return seed, stream


def generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator addressed by (seed, stream)."""
    key = np.array(_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_FRESH = (0, 0, 0, 0)  # Philox counter and buffer words of a new generator


def rekey(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """Reset a Philox generator to (seed, stream) at counter 0, in place.

    Whatever ``rng`` drew before, it then yields exactly the stream of
    ``generator(seed, stream)``: counter, key, buffer and the cached 32-bit
    half-word are all set as a new generator sets them.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _FRESH, "key": _key(seed, stream)},
        "buffer": _FRESH, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _stream(seed: int, stream: int, rng) -> np.random.Generator:
    """``rng`` re-keyed to (seed, stream), or a new generator if it is None."""
    return generator(seed, stream) if rng is None else rekey(rng, seed, stream)


@dataclass(frozen=True)
class DensitySpec:
    """Piecewise-constant density on a region: one nonnegative weight per box.

    Any finite nonnegative profile with positive mass is accepted, e.g.
    constant 1 per box over several unit intervals: the Poisson sampler
    draws lambda times it, the fixed-n samplers by relative box mass.
    """

    region: Region
    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) != len(self.region.boxes):
            raise ValueError("need exactly one weight per region box")
        if any(v < 0.0 for v in w):
            raise ValueError("density weights must be nonnegative")
        if not any(v > 0.0 for v in w):
            raise ValueError("density must be positive somewhere")
        if not np.isfinite(self.total_mass):
            raise ValueError(f"density must have finite mass, got {self.total_mass}")

    @classmethod
    def homogeneous(cls, region: Region) -> "DensitySpec":
        """Uniform probability density on the region: weight 1/volume per box."""
        w = 1.0 / region.volume
        return cls(region=region, weights=(w,) * len(region.boxes))

    @property
    def box_masses(self) -> np.ndarray:
        return np.array([w * b.volume for w, b in zip(self.weights, self.region.boxes)])

    @property
    def total_mass(self) -> float:
        return float(self.box_masses.sum())


@dataclass(frozen=True)
class PointConfiguration:
    """Finite point set with deterministic (generation) order."""

    dimension: int
    points: np.ndarray  # (n, d) float64, read-only

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_2d(np.asarray(self.points, dtype=float)))
        if pts.size == 0:
            pts = pts.reshape(0, self.dimension)
        if pts.shape[1] != self.dimension:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {self.dimension}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def _uniform_in_box(rng: np.random.Generator, box: Box, n: int) -> np.ndarray:
    lo, hi = box.bounds
    u = rng.random((n, box.dimension))
    u *= hi - lo  # in place: the same products and sums, no n-row temporaries
    u += lo
    return u


def sample_poisson_rng(density: DensitySpec, lam: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Poisson sample drawn from an existing generator (points only)."""
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    parts = []
    for w, box in zip(density.weights, density.region.boxes):
        mean = lam * w * box.volume
        n = int(rng.poisson(mean)) if mean > 0.0 else 0
        parts.append(_uniform_in_box(rng, box, n))
    # a region has at least one box
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def sample_poisson(density: DensitySpec, lam: float, seed: int, stream: int = 0,
                   rng: np.random.Generator | None = None) -> PointConfiguration:
    """Poisson point process with intensity lambda * density on the region.

    A given Philox ``rng`` is re-keyed to (seed, stream) and drawn from
    instead of building a new generator; the configuration is the same.
    """
    pts = sample_poisson_rng(density, lam, _stream(seed, stream, rng))
    return PointConfiguration(dimension=density.region.dimension, points=pts)


def sample_binomial(density: DensitySpec, n: int, seed: int, stream: int = 0,
                    rng: np.random.Generator | None = None) -> PointConfiguration:
    """Exactly n i.i.d. points with the density: the fixed-n sample.

    The box of each point is chosen with probability proportional to box
    mass, then the point is uniform within the box; output keeps box-major
    generation order.  A given ``rng`` is re-keyed as in ``sample_poisson``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = _stream(seed, stream, rng)
    masses = density.box_masses
    counts = rng.multinomial(n, masses / masses.sum())
    boxes = density.region.boxes
    parts = [_uniform_in_box(rng, box, int(c)) for box, c in zip(boxes, counts)]
    return PointConfiguration(density.region.dimension, np.concatenate(parts))


def sample_location(density: DensitySpec, rng: np.random.Generator) -> np.ndarray:
    """One point distributed according to the density."""
    masses = density.box_masses
    probs = masses / masses.sum()
    idx = int(rng.choice(len(probs), p=probs))
    return _uniform_in_box(rng, density.region.boxes[idx], 1)[0]
