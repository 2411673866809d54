"""Planar points and small vector helpers.

All coordinates throughout the library are metric (meters) in a local
tangent plane over the Universe of Discourse.  The simulation world is on
the order of tens of kilometers across, so float64 precision is far more
than sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from ..values import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class Point:
    """An immutable 2-D point (or vector) in meters.

    ``Point`` supports the handful of vector operations the safe-region
    algorithms need: addition/subtraction, scaling, Euclidean distance,
    heading computation and rotation.  It is hashable so it can be used
    in sets (e.g. candidate-point deduplication in the MWPSR algorithm).
    """

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scale: float) -> "Point":
        return Point(self.x * scale, self.y * scale)

    __rmul__ = __mul__

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other`` in meters."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance; avoids the sqrt for comparisons."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def norm(self) -> float:
        """Euclidean length when the point is interpreted as a vector."""
        return math.hypot(self.x, self.y)

    def heading_to(self, other: "Point") -> float:
        """Heading angle from this point to ``other`` in ``(-pi, pi]``.

        The angle is measured counter-clockwise from the positive x-axis,
        matching :mod:`math.atan2` conventions.  Used by the steady-motion
        model to derive the current direction of travel from two
        consecutive trace samples (``l_s(t')`` to ``l_s(t)`` in Fig. 1(a)
        of the paper).
        """
        return math.atan2(other.y - self.y, other.x - self.x)

    def rotated(self, angle: float) -> "Point":
        """Return this vector rotated counter-clockwise by ``angle`` rad."""
        cos_a = math.cos(angle)
        sin_a = math.sin(angle)
        return Point(self.x * cos_a - self.y * sin_a,
                     self.x * sin_a + self.y * cos_a)

    def midpoint(self, other: "Point") -> "Point":
        """Midpoint of the segment between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def is_finite(self) -> bool:
        """True when both coordinates are finite numbers."""
        return math.isfinite(self.x) and math.isfinite(self.y)


ORIGIN = Point(0.0, 0.0)


def normalize_angle(angle: float) -> float:
    """Normalize an angle to the interval ``(-pi, pi]``.

    The steady-motion pdf of the paper is defined over the deviation
    ``phi`` from the current heading in ``[-pi, pi]``; every angular
    quantity is pushed through this helper before evaluation so wrap-around
    at the +/- pi boundary is handled in exactly one place.
    """
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped
