"""The alarm-processing server.

One :class:`AlarmServer` instance plays the server role for a single
simulation run: it evaluates client location reports against the alarm
index, fires alarms with one-shot semantics, and counts its two work
components — *alarm processing* (trigger evaluation per location report)
and *safe-region computation* (everything a policy does to produce a
safe region or safe period) — which are the bars of the paper's
server-load figures (Fig. 4(b), Fig. 6(d)).  Their wall time is read
only under enabled telemetry and written only to the registry's stage
histograms (``trigger_eval_cost_us``, ``saferegion_compute_cost_us``
and, nested in the latter, ``index_lookup_cost_us``); an untraced run
reads no clock here.

The request handlers are stateless: every mutable thing the server
knows — the per-user one-shot fired sets, the shared safe-region memo
and the per-policy scratch space — is an attribute of this class,
requests arrive as typed messages through
:func:`~repro.protocol.handlers.handle_request`, and all message/byte
accounting happens at the transport boundary
(:mod:`repro.protocol.transport`) — this class owns no traffic
counter.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from ..alarms import AlarmRegistry, SpatialAlarm
from ..geometry import Point, Rect
from ..index import GridOverlay
from ..saferegion.bitmap import BitmapSafeRegion
from ..saferegion.cache import MemoKey, SafeRegionCache
from ..telemetry.facade import DISABLED, Telemetry
from .metrics import Metrics, TriggerEvent
from .network import MessageSizes


class AlarmServer:
    """Server-side processing and accounting for one simulation run."""

    def __init__(self, registry: AlarmRegistry, grid: GridOverlay,
                 metrics: Metrics,
                 sizes: MessageSizes = MessageSizes(),
                 telemetry: Optional[Telemetry] = None) -> None:
        self.registry = registry
        self.grid = grid
        self.metrics = metrics
        self.sizes = sizes
        # Structured telemetry facade; the shared DISABLED singleton
        # (never None) keeps every hot-path guard a plain attribute
        # check instead of an `is None` test plus a method call.
        self.telemetry = telemetry if telemetry is not None else DISABLED
        # One-shot bookkeeping: alarm ids already fired, per user; a
        # user's set materializes on first touch.
        self.fired: Dict[int, Set[int]] = defaultdict(set)
        # The §4.2 memo of public-alarm bitmaps.  It listens to registry
        # mutations until close() detaches it.
        self.region_cache = SafeRegionCache(registry)
        # Per-policy server-side memory, namespaced by key (e.g. the
        # rectangular policy's last-reported positions), so policies
        # keep no instance state.
        self.scratch: Dict[str, Any] = {}
        self.closed = False

    # ------------------------------------------------------------------
    # One-shot state
    # ------------------------------------------------------------------
    def fired_for(self, user_id: int) -> Set[int]:
        """Alarm ids already fired for ``user_id`` (mutable view)."""
        return self.fired[user_id]

    # ------------------------------------------------------------------
    # Alarm processing
    # ------------------------------------------------------------------
    def process_location(self, user_id: int, time_s: float,
                         position: Point) -> List[SpatialAlarm]:
        """Evaluate a location report; fire and return triggered alarms.

        Fires every pending relevant alarm whose region interior contains
        ``position`` and records a trigger notification per firing.  With
        telemetry enabled the evaluation's wall time feeds the
        ``trigger_eval_cost_us`` histogram, the *alarm processing* column
        of the server-load figures.  (The ``location_report`` event and
        the uplink byte accounting belong to the transport that delivered
        the report, not to this method — it can be called directly in
        tests without touching a traffic counter.)
        """
        fired = self.fired[user_id]
        telemetry = self.telemetry
        metrics = self.metrics
        registry = self.registry
        stats = registry.stats
        accesses_before = stats.node_accesses
        started = time.perf_counter() if telemetry.enabled else 0.0
        try:
            triggered = registry.triggered_at(user_id, position,
                                              exclude_ids=fired)
        finally:
            metrics.index_node_accesses += (
                stats.node_accesses - accesses_before)
        metrics.alarm_evaluations += 1
        if telemetry.enabled:
            telemetry.trigger_eval((time.perf_counter() - started) * 1e6)
        if not triggered:
            return triggered
        for alarm in triggered:
            fired.add(alarm.alarm_id)
            metrics.triggers.append(
                TriggerEvent(time=time_s, user_id=user_id,
                             alarm_id=alarm.alarm_id))
            metrics.trigger_notifications += 1
            if telemetry.enabled:
                telemetry.alarm_fired(time_s, user_id, alarm.alarm_id)
        return triggered

    # ------------------------------------------------------------------
    # Safe-region inputs
    # ------------------------------------------------------------------
    def current_cell(self, position: Point) -> Rect:
        return self.grid.cell_rect_of_point(position)

    def pending_alarms_in(self, user_id: int,
                          rect: Rect) -> List[SpatialAlarm]:
        """Pending (unfired) relevant alarms interior-overlapping ``rect``."""
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        pending = self.registry.relevant_intersecting(
            user_id, rect, exclude_ids=self.fired_for(user_id))
        if telemetry.enabled:
            telemetry.index_lookup((time.perf_counter() - started) * 1e6,
                                   fanout=len(pending))
        return pending

    def pending_nearest_distance(self, user_id: int,
                                 position: Point) -> float:
        """Distance to the nearest pending relevant alarm region."""
        telemetry = self.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        distance = self.registry.nearest_relevant_distance(
            user_id, position, exclude_ids=self.fired_for(user_id))
        if telemetry.enabled:
            telemetry.index_lookup((time.perf_counter() - started) * 1e6)
        return distance

    # ------------------------------------------------------------------
    # Shared safe-region memo (public-alarm bitmaps, paper §4.2)
    # ------------------------------------------------------------------
    def shared_region(self, user_id: int, key: MemoKey,
                      build: Callable[[], BitmapSafeRegion]
                      ) -> BitmapSafeRegion:
        """The bitmap region of a public-only pending set, built once.

        ``key`` names the cell, the pyramid shape and every pending
        alarm, all public, that ``build`` carves the region from; the
        first subscriber to ask pays for the build and every later one
        with the same key is handed the same region.  ``user_id`` is the
        subscriber asking.  Counts the hit or miss in the telemetry
        registry — the sanctioned path for policies, which may not touch
        it directly (rule RL008).
        """
        memo = self.region_cache
        region = memo.lookup(key)
        hit = region is not None
        if region is None:
            region = build()
            memo.store(key, region)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.saferegion_cache(hit)
        return region

    def close(self) -> None:
        """Release run-scoped resources; safe to call more than once.

        Detaches the memo from the registry and clears the scratch
        space, so engine ``finally`` blocks and explicit teardown can
        both call it.
        """
        if self.closed:
            return
        self.closed = True
        self.region_cache.detach()
        self.scratch.clear()

    # ------------------------------------------------------------------
    # The safe-region stage
    # ------------------------------------------------------------------
    @contextmanager
    def timed_saferegion(self, user_id: int,
                         time_s: float) -> Iterator[None]:
        """Count a block as one *safe-region computation*.

        Policies wrap their safe-region (or safe-period) production in
        this context manager so Fig. 4(b)/6(d) can split server load.
        ``user_id``/``time_s`` identify the computation for telemetry;
        with telemetry enabled the block's wall time goes into
        ``saferegion_compute_cost_us`` — through the
        ``saferegion_computed`` event when the facade keeps events —
        exactly when the ``safe_region_computations`` counter increments
        (on clean exit).  The counter is one per safe region *served* to
        a client: a bitmap handed out of the shared memo counts like one
        built for the occasion, which keeps it identical between a serial
        run and a sharded one whose shards each fill a memo of their own.
        """
        telemetry = self.telemetry
        stats = self.registry.stats
        accesses_before = stats.node_accesses
        started = time.perf_counter() if telemetry.enabled else 0.0
        try:
            yield
        finally:
            self.metrics.index_node_accesses += (
                stats.node_accesses - accesses_before)
        self.metrics.safe_region_computations += 1
        if telemetry.enabled:
            telemetry.saferegion_computed(
                time_s, user_id, (time.perf_counter() - started) * 1e6)
