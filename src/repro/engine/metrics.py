"""Run metrics: the quantities the paper's figures report.

One :class:`Metrics` object accumulates over a full simulation run of one
processing strategy.  Raw counters live here, and only counters: every
scalar is a count, so a serial and a sharded run agree on all of them.
Derived quantities (energy in mWh, downstream bandwidth in Mbps) are
computed by the energy model and the reporting layer so the counters
stay model-independent; server wall time is the telemetry registry's
(see :class:`~repro.experiments.report.ServerTime`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence, Set, Tuple

from ..values import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class TriggerEvent:
    """One alarm firing: ``alarm_id`` fired for ``user_id`` at ``time``."""

    time: float
    user_id: int
    alarm_id: int


@dataclass
class Metrics:
    """Counters accumulated over one simulation run."""

    # Client -> server traffic (the paper's headline metric, Fig. 4a/5a/6a).
    uplink_messages: int = 0
    uplink_bytes: int = 0
    # Server -> client traffic (downstream bandwidth, Fig. 6b).
    downlink_messages: int = 0
    downlink_bytes: int = 0
    trigger_notifications: int = 0
    # Client-side monitoring work (client energy, Fig. 5b/6c).
    containment_checks: int = 0
    containment_ops: int = 0
    # Server-side work (Fig. 4b/6d read its wall time from the
    # telemetry registry's stage histograms, not from here).
    alarm_evaluations: int = 0
    safe_region_computations: int = 0
    index_node_accesses: int = 0
    # Simulated transport loss (zero on the reliable in-process path).
    # Dropped attempts are *charged* — a retransmission consumes real
    # uplink/downlink bandwidth — and additionally counted here.
    uplink_drops: int = 0
    downlink_drops: int = 0
    # Outcomes.
    triggers: List[TriggerEvent] = field(default_factory=list)

    # ------------------------------------------------------------------
    def downstream_bandwidth_mbps(self, duration_s: float) -> float:
        """Average downstream bandwidth over the run, in megabits/second."""
        if duration_s <= 0:
            return 0.0
        return self.downlink_bytes * 8.0 / duration_s / 1e6

    def fired_pairs(self) -> Set[Tuple[int, int]]:
        """The set of ``(user_id, alarm_id)`` pairs that fired."""
        return {(event.user_id, event.alarm_id) for event in self.triggers}

    def checks_per_second(self, duration_s: float,
                          client_count: int) -> float:
        """Average containment detections per client per second (Fig. 5b)."""
        if duration_s <= 0 or client_count <= 0:
            return 0.0
        return self.containment_checks / duration_s / client_count

    # ------------------------------------------------------------------
    # Merge contract (the parallel engine's reduction step)
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Every scalar counter, by field name.

        Excludes only the trigger list (compared structurally) — this is
        the signature the differential tests assert bit-identical across
        serial and sharded runs.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "triggers"}

    @classmethod
    def merged(cls, parts: Sequence["Metrics"]) -> "Metrics":
        """Combine per-shard metrics into one run's metrics.

        The contract the parallel engine relies on:

        * every scalar counter is the exact sum of the parts' counters;
        * trigger events are concatenated in part order — shards are
          contiguous slices of the serial replay order, so part-order
          concatenation reproduces the serial trigger sequence exactly;
        * one-shot semantics survive the merge: a ``(user, alarm)`` pair
          fired in two different parts means two shards processed the
          same subscriber, which violates the vehicle-major sharding
          precondition and raises ``ValueError``.
        """
        merged = cls()
        fired: Set[Tuple[int, int]] = set()
        for part in parts:
            for f in fields(cls):
                if f.name == "triggers":
                    continue
                setattr(merged, f.name,
                        getattr(merged, f.name) + getattr(part, f.name))
            for event in part.triggers:
                key = (event.user_id, event.alarm_id)
                if key in fired:
                    raise ValueError(
                        "one-shot violation in merge: alarm %d re-fired "
                        "for user %d across shards" % (event.alarm_id,
                                                       event.user_id))
                fired.add(key)
                merged.triggers.append(event)
        return merged

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold ``other`` into a new :class:`Metrics` (see :meth:`merged`)."""
        return Metrics.merged([self, other])
