"""Rectilinear polygons represented as unions of axis-aligned rectangles.

The bitmap-encoded safe regions of the paper (GBSR/PBSR, Section 4) are
rectilinear polygons: unions of grid/pyramid cells fully outside every
relevant alarm region.  For our purposes a sorted-rectangle union with a
small lookup index is the right representation — cells arriving from the
pyramid decomposition are already pairwise interior-disjoint, so area and
containment are exact without any sweep-line machinery.
"""

from __future__ import annotations

import bisect
from dataclasses import FrozenInstanceError
from typing import Iterable, List, Optional, Sequence, Tuple

from .eps import fzero
from .point import Point
from .rect import Rect


class RectilinearRegion:
    """A union of pairwise interior-disjoint axis-aligned rectangles.

    The class does *not* verify disjointness on construction (the
    producers — grid and pyramid decompositions — guarantee it, and the
    check is quadratic); :meth:`validate_disjoint` performs the check
    explicitly and is exercised by the test suite.

    Containment queries are served from a simple x-sorted index: pieces
    are sorted by ``min_x`` and a binary search bounds the candidate
    range.  For bitmap safe regions the number of pieces is modest
    (hundreds at pyramid height 7) and this is entirely sufficient;
    clients in the actual protocol use the O(h) pyramid bit-probe path in
    :mod:`repro.saferegion.pbsr` instead of this generic geometry.

    Immutable like the frozen :class:`Point` and :class:`Rect` it is
    built from: an attribute write or delete after ``__init__`` raises
    :class:`~dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("_pieces", "_min_xs", "_bounds")

    _pieces: List[Rect]
    _min_xs: List[float]
    _bounds: Optional[Rect]

    def __init__(self, pieces: Iterable[Rect]) -> None:
        ordered = sorted(pieces, key=lambda r: (r.min_x, r.min_y))
        init = object.__setattr__
        init(self, "_pieces", ordered)
        init(self, "_min_xs", [r.min_x for r in ordered])
        init(self, "_bounds", Rect.bounding(ordered) if ordered else None)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self) -> Tuple[type, Tuple[List[Rect]]]:
        # Slot state would be restored through __setattr__; rebuild instead.
        return RectilinearRegion, (self._pieces,)

    # ------------------------------------------------------------------
    @property
    def pieces(self) -> Sequence[Rect]:
        """The disjoint rectangles composing the region (x-sorted)."""
        return tuple(self._pieces)

    @property
    def bounds(self) -> Optional[Rect]:
        """Minimum bounding rectangle, or ``None`` for the empty region."""
        return self._bounds

    @property
    def area(self) -> float:
        """Exact area (pieces are interior-disjoint by contract)."""
        return sum(r.area for r in self._pieces)

    def is_empty(self) -> bool:
        return not self._pieces

    def __len__(self) -> int:
        return len(self._pieces)

    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        """Closed containment: True when any piece contains ``p``.

        Pieces with ``min_x`` beyond ``p.x`` cannot contain the point, so
        the x-sorted order lets us cut the scan with a binary search.
        """
        if self._bounds is None or not self._bounds.contains_point(p):
            return False
        hi = bisect.bisect_right(self._min_xs, p.x)
        for index in range(hi - 1, -1, -1):
            piece = self._pieces[index]
            if piece.contains_point(p):
                return True
        return False

    def interior_intersects_rect(self, rect: Rect) -> bool:
        """True when any piece's interior overlaps ``rect``'s interior."""
        if self._bounds is None or not self._bounds.interior_intersects(rect):
            return False
        return any(piece.interior_intersects(rect) for piece in self._pieces)

    def coverage_of(self, container: Rect) -> float:
        """Fraction of ``container`` covered by this region.

        This is the paper's coverage metric ``eta(Psi_s)`` (Section 4.2):
        the ratio of safe-region area to grid-cell area.  Pieces are
        clipped to the container so a region extending past it (which the
        safe-region producers never generate) is not over-counted.
        """
        if fzero(container.area):
            # Sub-tolerance containers have no meaningful coverage ratio
            # (and exact zero would divide by zero below).
            return 0.0
        covered = sum(piece.intersection_area(container)
                      for piece in self._pieces)
        return covered / container.area

    def validate_disjoint(self) -> None:
        """Raise ``ValueError`` if any two pieces overlap in their interiors.

        Quadratic; intended for tests and debugging, not the hot path.
        """
        for i, first in enumerate(self._pieces):
            for second in self._pieces[i + 1:]:
                if second.min_x >= first.max_x and second.min_x > first.min_x:
                    # pieces are x-sorted; once min_x clears first.max_x the
                    # remaining pieces cannot overlap first
                    break
                if first.interior_intersects(second):
                    raise ValueError(
                        "overlapping pieces: %r and %r" % (first, second))

