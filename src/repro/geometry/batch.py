"""Vectorized geometry kernels over structure-of-arrays batches.

The scalar :class:`~repro.geometry.rect.Rect` predicates are the
semantic oracle; every kernel here is the literal array transcription
of one scalar predicate, comparison for comparison, so a batch verdict
is bit-identical to looping the scalar code (asserted by the
differential test suite).  Three rules keep that true:

* **Same comparisons.**  Closed predicates use ``<=``, interior
  predicates use ``<`` — exactly the operators in ``rect.py``.  IEEE
  float64 comparisons are identical in numpy and CPython, so there is
  no tolerance to re-derive.
* **Same arithmetic, same order.**  Where a kernel recomputes derived
  coordinates (e.g. the quadrant offsets in ``saferegion.packed``), it
  mirrors the scalar expression's operation order so rounding matches.
* **Tolerant comparisons route through eps.py.**  The array forms
  :func:`~repro.geometry.eps.feq_array` / ``fzero_array`` carry the
  single EPS; nothing here spells its own epsilon.

Layout: a batch is a structure of arrays (one contiguous float64 array
per coordinate), the population-level representation that lets one
interpreter dispatch test thousands of subscribers.  Batches do not
copy their input arrays; treat them as frozen after construction.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from .eps import EPS, feq_array
from .point import Point
from .rect import Rect

FloatArray = NDArray[np.float64]
BoolArray = NDArray[np.bool_]
IntArray = NDArray[np.int64]

#: Initial block length for the run-scan helpers; doubles per block up
#: to :data:`MAX_SCAN_BLOCK` so short runs stay cheap and long runs
#: amortize to one vector op per ~4k samples.
INITIAL_SCAN_BLOCK = 64
MAX_SCAN_BLOCK = 4096


def as_float_array(values: Sequence[float]) -> FloatArray:
    """A float64 array view/copy of ``values``."""
    return np.asarray(values, dtype=np.float64)


class PointBatch:
    """A population of points as parallel coordinate arrays."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: FloatArray, ys: FloatArray) -> None:
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("coordinate arrays must be equal-length 1-D")
        self.xs = xs
        self.ys = ys

    @classmethod
    def from_points(cls, points: Sequence[Point]) -> "PointBatch":
        xs = np.empty(len(points), dtype=np.float64)
        ys = np.empty(len(points), dtype=np.float64)
        for index, point in enumerate(points):
            xs[index] = point.x
            ys[index] = point.y
        return cls(xs, ys)

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    def point(self, index: int) -> Point:
        """The scalar :class:`Point` at ``index``."""
        return Point(float(self.xs[index]), float(self.ys[index]))

    def slice(self, start: int, stop: int) -> "PointBatch":
        """A zero-copy view of rows ``[start, stop)``."""
        return PointBatch(self.xs[start:stop], self.ys[start:stop])


class RectBatch:
    """A population of axis-aligned rectangles as four edge arrays."""

    __slots__ = ("min_xs", "min_ys", "max_xs", "max_ys")

    def __init__(self, min_xs: FloatArray, min_ys: FloatArray,
                 max_xs: FloatArray, max_ys: FloatArray) -> None:
        if not (min_xs.shape == min_ys.shape == max_xs.shape
                == max_ys.shape) or min_xs.ndim != 1:
            raise ValueError("edge arrays must be equal-length 1-D")
        self.min_xs = min_xs
        self.min_ys = min_ys
        self.max_xs = max_xs
        self.max_ys = max_ys

    @classmethod
    def from_rects(cls, rects: Sequence[Rect]) -> "RectBatch":
        count = len(rects)
        min_xs = np.empty(count, dtype=np.float64)
        min_ys = np.empty(count, dtype=np.float64)
        max_xs = np.empty(count, dtype=np.float64)
        max_ys = np.empty(count, dtype=np.float64)
        for index, rect in enumerate(rects):
            min_xs[index] = rect.min_x
            min_ys[index] = rect.min_y
            max_xs[index] = rect.max_x
            max_ys[index] = rect.max_y
        return cls(min_xs, min_ys, max_xs, max_ys)

    def __len__(self) -> int:
        return int(self.min_xs.shape[0])

    def rect(self, index: int) -> Rect:
        """The scalar :class:`Rect` at ``index``."""
        return Rect(float(self.min_xs[index]), float(self.min_ys[index]),
                    float(self.max_xs[index]), float(self.max_ys[index]))

    def rects(self) -> List[Rect]:
        return [self.rect(index) for index in range(len(self))]


# ----------------------------------------------------------------------
# Point-in-rect kernels
# ----------------------------------------------------------------------
def contains(rect: Rect, points: PointBatch) -> BoolArray:
    """Closed containment per point; mirrors ``Rect.contains_point``."""
    result: BoolArray = ((rect.min_x <= points.xs)
                         & (points.xs <= rect.max_x)
                         & (rect.min_y <= points.ys)
                         & (points.ys <= rect.max_y))
    return result


def interior_contains(rect: Rect, points: PointBatch) -> BoolArray:
    """Open containment per point; ``Rect.interior_contains_point``."""
    result: BoolArray = ((rect.min_x < points.xs)
                         & (points.xs < rect.max_x)
                         & (rect.min_y < points.ys)
                         & (points.ys < rect.max_y))
    return result


def any_interior_contains(rects: RectBatch,
                          points: PointBatch) -> BoolArray:
    """Per point: does *any* rectangle strictly contain it?

    The optimal strategy's "entered an alarm region" test over a whole
    run of samples.  Broadcasts ``len(rects) x len(points)``; callers
    bound the point count per call (the run scanners pass blocks of at
    most :data:`MAX_SCAN_BLOCK`).
    """
    if len(rects) == 0:
        return np.zeros(len(points), dtype=np.bool_)
    inside = ((rects.min_xs[:, None] < points.xs[None, :])
              & (points.xs[None, :] < rects.max_xs[:, None])
              & (rects.min_ys[:, None] < points.ys[None, :])
              & (points.ys[None, :] < rects.max_ys[:, None]))
    result: BoolArray = inside.any(axis=0)
    return result


# ----------------------------------------------------------------------
# Rect-vs-rect kernels
# ----------------------------------------------------------------------
def intersects(rects: RectBatch, other: Rect) -> BoolArray:
    """Closed intersection per rect; mirrors ``Rect.intersects``."""
    result: BoolArray = ((rects.min_xs <= other.max_x)
                         & (other.min_x <= rects.max_xs)
                         & (rects.min_ys <= other.max_y)
                         & (other.min_y <= rects.max_ys))
    return result


def interior_intersects(rects: RectBatch, other: Rect) -> BoolArray:
    """Open intersection per rect; ``Rect.interior_intersects``."""
    result: BoolArray = ((rects.min_xs < other.max_x)
                         & (other.min_x < rects.max_xs)
                         & (rects.min_ys < other.max_y)
                         & (other.min_y < rects.max_ys))
    return result


def interior_intersects_matrix(a: RectBatch, b: RectBatch) -> BoolArray:
    """Pairwise open intersection: result ``[i, j]`` tests a[i] vs b[j]."""
    result: BoolArray = ((a.min_xs[:, None] < b.max_xs[None, :])
                         & (b.min_xs[None, :] < a.max_xs[:, None])
                         & (a.min_ys[:, None] < b.max_ys[None, :])
                         & (b.min_ys[None, :] < a.max_ys[:, None]))
    return result


def clip(rects: RectBatch, bounds: Rect) -> Tuple[RectBatch, BoolArray]:
    """Clamp every rectangle to ``bounds``; mirrors ``Rect.intersection``.

    Returns the clipped batch plus a validity mask: where the mask is
    False the pair was disjoint (the scalar method returns ``None``)
    and the clipped edges are meaningless.
    """
    min_xs = np.maximum(rects.min_xs, bounds.min_x)
    min_ys = np.maximum(rects.min_ys, bounds.min_y)
    max_xs = np.minimum(rects.max_xs, bounds.max_x)
    max_ys = np.minimum(rects.max_ys, bounds.max_y)
    valid: BoolArray = (min_xs <= max_xs) & (min_ys <= max_ys)
    return RectBatch(min_xs, min_ys, max_xs, max_ys), valid


def rects_feq(rects: RectBatch, other: Rect,
              eps: float = EPS) -> BoolArray:
    """Tolerant per-rect equality via the shared EPS.

    The batch form of the server's four-way :func:`feq` rectangle
    match; every tolerant comparison routes through
    :func:`~repro.geometry.eps.feq_array` so the tolerance cannot
    drift from the scalar path.
    """
    result: BoolArray = (feq_array(rects.min_xs, other.min_x, eps)
                         & feq_array(rects.min_ys, other.min_y, eps)
                         & feq_array(rects.max_xs, other.max_x, eps)
                         & feq_array(rects.max_ys, other.max_y, eps))
    return result


# ----------------------------------------------------------------------
# Run scanning
# ----------------------------------------------------------------------
def first_violation(silent: Callable[[int, int], BoolArray],
                    length: int, start: int) -> int:
    """First index in ``[start, length)`` where ``silent`` turns False.

    ``silent(i, j)`` returns per-sample flags for the slice ``[i, j)``;
    the scan evaluates geometrically growing blocks so a run that ends
    immediately costs one small kernel call while a run spanning the
    whole trace costs one call per :data:`MAX_SCAN_BLOCK` samples.
    Returns ``length`` when every remaining sample is silent.
    """
    index = start
    block = INITIAL_SCAN_BLOCK
    while index < length:
        stop = min(index + block, length)
        flags = silent(index, stop)
        if not bool(flags.all()):
            return index + int(np.argmin(flags))
        index = stop
        block = min(block * 2, MAX_SCAN_BLOCK)
    return length


def first_outside(rect: Rect, points: PointBatch, start: int) -> int:
    """First index at/after ``start`` whose point leaves ``rect``.

    The rectangular strategies' silent-run scanner: closed containment,
    exactly ``Rect.contains_point``.  Returns ``len(points)`` when the
    whole remaining trace stays inside.
    """
    return first_violation(
        lambda i, j: contains(rect, points.slice(i, j)),
        len(points), start)
