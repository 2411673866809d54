"""Pyramid Bitmap Encoded Safe Region (paper Section 4.2).

PBSR refines GBSR by splitting only the *unsafe* (bit 0) cells, level by
level, up to a client-chosen pyramid height ``h``.  The height trades
bitmap size against coverage (Proposition 3): powerful clients request
tall pyramids and get finer safe regions; weak clients request short
ones.

Server-side optimization (Section 4.2, last paragraph): the safe-region
structure induced by *public* alarms is identical for every user, so the
computer shares it across users — a per-base-cell cache keyed by the set
of public alarms that are still pending for the user in that cell.  A
user with no private/shared alarms in the cell (the common case, since
public alarms dominate per-user alarm density) reuses the cached region
outright.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..geometry import Rect
from ..index import DEFAULT_FAN, Pyramid
from .bitmap import BitmapSafeRegion, PyramidBitmap


class PBSRComputer:
    """Builds pyramid bitmap safe regions of a configurable height."""

    def __init__(self, height: int = 5, fan: int = DEFAULT_FAN,
                 share_public: bool = True) -> None:
        if height < 1:
            raise ValueError("height must be at least 1")
        self.height = height
        self.fan = fan
        self.share_public = share_public
        # cell key -> (public obstacle tuple, shared region); hit only when
        # the user's pending public set in the cell matches exactly.
        self._public_cache: Dict[Tuple[float, float],
                                 Tuple[Tuple[Rect, ...],
                                       BitmapSafeRegion]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def compute(self, cell: Rect, public_obstacles: Sequence[Rect],
                personal_obstacles: Sequence[Rect] = ()
                ) -> BitmapSafeRegion:
        """Safe region of ``cell``.

        ``public_obstacles`` are the user's pending public alarm regions
        in the cell; ``personal_obstacles`` the pending private/shared
        ones.  The split exists purely to enable the shared-public cache;
        callers indifferent to the optimization may pass everything as
        public.
        """
        if (self.share_public and not personal_obstacles):
            public_key = tuple(sorted(
                (r.min_x, r.min_y, r.max_x, r.max_y)
                for r in public_obstacles))
            cache_key = (cell.min_x, cell.min_y)
            cached = self._public_cache.get(cache_key)
            if cached is not None and cached[0] == public_key:
                self.cache_hits += 1
                return cached[1]
            self.cache_misses += 1
            region = self._build(cell, list(public_obstacles))
            self._public_cache[cache_key] = (public_key, region)
            return region
        return self._build(cell,
                           list(public_obstacles) + list(personal_obstacles))

    def _build(self, cell: Rect,
               obstacles: List[Rect]) -> BitmapSafeRegion:
        pyramid = Pyramid(cell, fan_cols=self.fan, fan_rows=self.fan,
                          height=self.height)
        return BitmapSafeRegion(PyramidBitmap.from_obstacles(pyramid,
                                                            obstacles))

    def clear_cache(self) -> None:
        self._public_cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
