"""Axis-aligned box-union geometry: membership, volumes, cube lattices.

Regions are finite unions of pairwise-disjoint axis-aligned boxes in d-space.
Membership is half-open ([lower, upper) per axis) so adjacent boxes tile
without double counting.  The integer-lattice covering of a dilated region
collects every unit cube that meets it; the packing collects every unit cube
contained in the closed union.  Cube counts sandwich the dilated volume:

    packing count  <=  lambda * |B|  <=  covering count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Box",
    "Region",
    "covering",
    "packing",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with strictly positive extent on every axis."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or len(lo) == 0:
            raise ValueError("box lower/upper must share a positive dimension")
        for a, b in zip(lo, hi):
            if not a < b:
                raise ValueError(f"box requires lower < upper per axis, got {lo} / {hi}")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    @property
    def volume(self) -> float:
        v = 1.0
        for a, b in zip(self.lower, self.upper):
            v *= b - a
        return v

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) as read-only float arrays, built once per box."""
        lo, hi = np.array(self.lower), np.array(self.upper)
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Half-open membership test for an (n, d) array (or a single point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if len(self.lower) == 1:
            x = pts[:, 0]
            return (x >= self.lower[0]) & (x < self.upper[0])
        lo, hi = self.bounds
        return np.all((pts >= lo) & (pts < hi), axis=1)


def _boxes_overlap(a: Box, b: Box) -> bool:
    # positive-measure overlap; shared faces do not count
    return all(max(al, bl) < min(au, bu)
               for al, au, bl, bu in zip(a.lower, a.upper, b.lower, b.upper))


@dataclass(frozen=True)
class Region:
    """Union of pairwise-disjoint boxes in a common dimension."""

    dimension: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        boxes = tuple(self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if not boxes:
            raise ValueError("region needs at least one box")
        for b in boxes:
            if b.dimension != self.dimension:
                raise ValueError("box dimension mismatch in region")
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _boxes_overlap(boxes[i], boxes[j]):
                    raise ValueError(f"region boxes {i} and {j} overlap")

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[Sequence[float], Sequence[float]]],
                    dimension: int | None = None) -> "Region":
        boxes = tuple(Box(tuple(lo), tuple(hi)) for lo, hi in bounds)
        d = dimension if dimension is not None else boxes[0].dimension
        return cls(dimension=d, boxes=boxes)

    @classmethod
    def interval(cls, a: float, b: float) -> "Region":
        return cls(dimension=1, boxes=(Box((a,), (b,)),))

    @property
    def volume(self) -> float:
        return sum(b.volume for b in self.boxes)

    def contains(self, points) -> np.ndarray:
        first, *rest = self.boxes
        mask = first.contains(points)
        for b in rest:
            mask |= b.contains(points)
        return mask

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.min([b.lower for b in self.boxes], axis=0)
        hi = np.max([b.upper for b in self.boxes], axis=0)
        return lo, hi

    def disjoint_from(self, other: "Region") -> bool:
        return not any(_boxes_overlap(a, b) for a in self.boxes for b in other.boxes)


# ---------------------------------------------------------------------------
# the exact containment test of the packing

def _covered_by(lo, hi, boxes) -> bool:
    """True if the closed box [lo, hi] lies in the union of the closed `boxes`
    (up to measure zero).

    Each axis is cut at the box faces strictly inside [lo, hi], so every cell
    of the grid lies in a box or meets it in measure zero; the box is covered
    exactly when every cell lies in some box.  Only comparisons touch the
    coordinates.
    """
    cuts = []
    for j in range(len(lo)):
        inner = {f for blo, bhi in boxes for f in (blo[j], bhi[j]) if lo[j] < f < hi[j]}
        cuts.append(sorted({lo[j], hi[j]} | inner))
    cells = itertools.product(*(zip(c, c[1:]) for c in cuts))
    return all(any(all(blo[j] <= a and b <= bhi[j] for j, (a, b) in enumerate(cell))
                   for blo, bhi in boxes)
               for cell in cells)


# ---------------------------------------------------------------------------
# unit-cube lattices of the dilated region

def _scaled_boxes(region: Region, lam: float):
    scale = float(lam) ** (1.0 / region.dimension)
    return [(scale * b.bounds[0], scale * b.bounds[1]) for b in region.boxes]


def _center_range(lo: float, hi: float) -> range:
    # closed cube [z-1/2, z+1/2] meets half-open [lo, hi) iff lo <= z+1/2 and z-1/2 < hi
    z_lo = math.ceil(lo - 0.5)
    z_hi = math.ceil(hi + 0.5) - 1
    return range(z_lo, z_hi + 1)


def covering(region: Region, lam: float) -> np.ndarray:
    """The sorted (count, d) int64 integer centers whose closed unit cube meets
    the lambda^(1/d)-dilated region."""
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    d = region.dimension
    centers: set[tuple[int, ...]] = set()
    for lo, hi in _scaled_boxes(region, lam):
        ranges = [_center_range(lo[j], hi[j]) for j in range(d)]
        centers.update(itertools.product(*ranges))
    return np.array(sorted(centers), dtype=np.int64).reshape(len(centers), d)


def packing(region: Region, lam: float) -> np.ndarray:
    """The sorted (count, d) int64 integer centers whose closed unit cube lies
    inside the closed dilated union.

    A cube spanning several adjacent boxes counts when the closed union covers
    it; the test is exact up to measure-zero face slivers.  Every such cube
    meets the region, so the covering's centers are the candidates.
    """
    scaled = _scaled_boxes(region, lam)
    centers = covering(region, lam)
    keep = np.zeros(len(centers), dtype=bool)
    for lo, hi in scaled:  # the cubes inside one box
        keep |= np.all((centers - 0.5 >= lo) & (centers + 0.5 <= hi), axis=1)
    if len(scaled) > 1:  # and those that only the union covers
        keep[~keep] = [_covered_by(z - 0.5, z + 0.5, scaled)
                       for z in centers[~keep]]
    return centers[keep]
