"""The server's shared memo of public-alarm bitmap safe regions.

The paper's §4.2 optimisation: "PBSR approach can be optimized by
precomputing the bitmap at each level for public alarms".  The region
public alarms carve out of a grid cell is the same for every
subscriber, so it is state of the *cell*, not of whoever asked.  This
memo holds it: one bitmap per ``(cell, pyramid shape, pending public
alarm ids)``, built on the first request and handed by reference to
every later subscriber whose pending set over the cell is exactly those
alarms.

* The key carries the pyramid's ``(height, fan)``: one server holds one
  memo for every policy, and the paper lets "each client specify the
  maximum height of the pyramid", so a PBSR(h=2) subscriber must never
  be handed an h=6 bitmap of the same cell and alarms.

* Only **public-only** pending sets are memoised.  A subscriber with a
  private or shared alarm pending in the cell gets a fresh build that
  never enters the memo, so a region carved from someone's private
  alarm cannot be shared — by construction, not by fingerprint.
* A subscriber who already fired one of the cell's public alarms has a
  smaller pending set, hence a different key and its own entry.
* The key names every alarm its region was carved from, so an *install*
  can stale nothing (the new alarm's id is in no existing key) and only
  the removal or relocation of a named alarm can.  The memo subscribes
  to the registry's mutation hook and drops exactly those entries,
  found through an index by alarm id — not through the grid, whose
  half-open ``cell_of`` assigns an alarm edge lying on a cell boundary
  to one side only while the closed ``cell_rect`` touches it from both.
  It is therefore bounded by cells × live public pending sets and needs
  no capacity limit.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..alarms import AlarmRegistry
from ..geometry import Rect
from ..index import CellId
from .bitmap import BitmapSafeRegion

#: (cell, pyramid (height, fan), ids of the pending public alarms the
#: region was carved from, ascending)
MemoKey = Tuple[CellId, Tuple[int, int], Tuple[int, ...]]


class SafeRegionCache:
    """Memoised public-alarm bitmap regions, consistent under alarm churn.

    The regions are immutable (the bitmap types expose only probes), so
    a memoised region is shared by reference, never copied.
    """

    def __init__(self, registry: AlarmRegistry) -> None:
        self.registry = registry
        self._regions: Dict[MemoKey, BitmapSafeRegion] = {}
        #: alarm id -> the held keys that name it
        self._naming: Dict[int, Set[MemoKey]] = {}
        registry.add_listener(self._on_mutation)

    def lookup(self, key: MemoKey) -> Optional[BitmapSafeRegion]:
        """The memoised region for ``key``, or ``None``."""
        return self._regions.get(key)

    def store(self, key: MemoKey, region: BitmapSafeRegion) -> None:
        """Memoise a freshly built region under the alarms it names."""
        self._regions[key] = region
        for alarm_id in key[2]:
            self._naming.setdefault(alarm_id, set()).add(key)

    def _on_mutation(self, alarm_id: int, old_region: Optional[Rect],
                     new_region: Optional[Rect]) -> None:
        """Registry hook: drop the entries naming a removed or moved alarm."""
        if old_region is None:  # an install: its id is in no key yet
            return
        for key in self._naming.pop(alarm_id, ()):
            del self._regions[key]
            for other_id in key[2]:
                if other_id != alarm_id:
                    self._naming[other_id].discard(key)

    def detach(self) -> None:
        """Unsubscribe from the registry and drop every entry (end of run)."""
        self.registry.remove_listener(self._on_mutation)
        self._regions.clear()
        self._naming.clear()

    def entries(self) -> Dict[MemoKey, BitmapSafeRegion]:
        """A snapshot of what is held (inspection and tests)."""
        return dict(self._regions)
