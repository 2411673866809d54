"""Safe-region abstractions (paper Section 2.1).

A safe region ``Psi_s`` for mobile user ``s`` satisfies:

(i)  while the user's position lies within the safe region, the
     probability of entering any relevant spatial alarm region is zero;
(ii) if the user is inside one or more alarm regions, the intersection
     of those regions is the safe region (no *other* alarm can fire
     there).

Consequently, as long as the client observes itself inside its safe
region, no alarm evaluation — client- or server-side — is necessary.
The client performs a cheap *containment probe* on every position fix;
probes are the unit of the client energy model, and the serialized size
of the region is the unit of the downstream bandwidth model.

Trigger semantics note: alarms fire on *interior* containment ("entering
the spatial region"), so safe regions may legitimately share boundary
with alarm regions.  All safety invariants in this package are stated as
"the safe region's interior is disjoint from every relevant alarm
region's interior".
"""

from __future__ import annotations

import abc
from typing import Iterable, Tuple

from ..geometry import Point, Rect

FLOAT_BITS = 64  # coordinates travel as float64 in the protocol


class SafeRegion(abc.ABC):
    """Interface of a client-monitorable safe region.

    ``probe_xy``, ``size_bits`` and ``area`` are abstract: a subclass
    missing one cannot be instantiated, so it fails where it is built,
    not mid-replay at its first probe.
    """

    @abc.abstractmethod
    def probe_xy(self, x: float, y: float) -> Tuple[bool, int]:
        """Check whether ``(x, y)`` is inside; returns ``(inside, ops)``.

        ``ops`` is the number of elementary comparisons the client's
        monitoring loop performed — the energy model charges per op.
        Coordinates, not a :class:`Point`: a client probes every fix of
        its trace and builds a point only for the report it sends.
        """

    def probe(self, p: Point) -> Tuple[bool, int]:
        """:meth:`probe_xy` of a :class:`Point`."""
        return self.probe_xy(p.x, p.y)

    @abc.abstractmethod
    def size_bits(self) -> int:
        """Serialized payload size in bits (excluding transport headers)."""

    @abc.abstractmethod
    def area(self) -> float:
        """Area of the region in square meters."""


class RectangularSafeRegion(SafeRegion):
    """A single axis-aligned rectangle — the MWPSR representation.

    The most compact representation the paper considers: four float64
    coordinates, one rectangle comparison per probe.
    """

    __slots__ = ("rect",)

    def __init__(self, rect: Rect) -> None:
        self.rect = rect

    def probe_xy(self, x: float, y: float) -> Tuple[bool, int]:
        rect = self.rect
        return (rect.min_x <= x <= rect.max_x
                and rect.min_y <= y <= rect.max_y, 1)

    def size_bits(self) -> int:
        return 4 * FLOAT_BITS

    def area(self) -> float:
        return self.rect.area

    def __repr__(self) -> str:
        return "RectangularSafeRegion(%r)" % (self.rect,)


def region_is_safe(rect: Rect, obstacles: Iterable[Rect],
                   tolerance: float = 1e-9) -> bool:
    """Invariant check: ``rect`` interior avoids every obstacle interior.

    Used by tests and optional runtime validation; the safe-region
    producers must only emit rectangles for which this holds.
    ``tolerance`` (meters) absorbs the floating-point slack of
    reconstructing absolute edges from subscriber-relative extents: an
    overlap is a violation only when it penetrates more than the
    tolerance along *both* axes.
    """
    for obstacle in obstacles:
        dx = (min(rect.max_x, obstacle.max_x)
              - max(rect.min_x, obstacle.min_x))
        if dx <= tolerance:
            continue
        dy = (min(rect.max_y, obstacle.max_y)
              - max(rect.min_y, obstacle.min_y))
        if dy > tolerance:
            return False
    return True
