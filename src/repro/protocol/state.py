"""The explicit server-side state store behind the request handlers.

The refactored server is *stateless request handlers over explicit
state*: every mutable thing the server knows — per-user one-shot fired
sets, the optional per-cell alarm cache, the optional shared safe-region
memo, and per-policy scratch state — lives in one :class:`ServerState`
object that the handlers receive and operate on.  Nothing hides in
handler closures, which is what makes the handlers shardable (the
parallel engine builds one state per shard) and the state inspectable
in tests.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Set

from ..alarms import AlarmRegistry
from ..index import GridOverlay
from ..saferegion.cache import SafeRegionCache


class ServerState:
    """All mutable server-side state for one simulation run.

    ``fired`` is a ``defaultdict`` so the per-user one-shot set
    materializes on first touch; ``scratch`` is a namespaced dict for
    per-policy server-side memory (e.g. the rectangular policy's
    last-reported positions) so policies stay free of instance state;
    ``region_cache`` is the §4.2 memo of public-alarm bitmaps, which
    subscribes to registry mutations and must be detached at end of run
    — :meth:`close` does that and is idempotent, so engine ``finally``
    blocks and explicit teardown can both call it safely.
    """

    __slots__ = ("registry", "grid", "fired", "region_cache", "scratch",
                 "_closed")

    def __init__(self, registry: AlarmRegistry, grid: GridOverlay) -> None:
        self.registry = registry
        self.grid = grid
        # One-shot bookkeeping: alarm ids already fired, per user.
        self.fired: Dict[int, Set[int]] = defaultdict(set)
        self.region_cache = SafeRegionCache(registry)
        self.scratch: Dict[str, Any] = {}
        self._closed = False

    def fired_for(self, user_id: int) -> Set[int]:
        """Alarm ids already fired for ``user_id`` (mutable view)."""
        return self.fired[user_id]

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release run-scoped resources; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self.region_cache.detach()
        self.scratch.clear()
