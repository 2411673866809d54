"""Ground-truth alarm triggers and accuracy verification.

The paper's accuracy contract: "the parameters adopted for each
processing approach ensure 100% of the alarms are triggered in all
scenarios.  The sequence of alarms to be triggered is determined by a
very high frequency trace of the motion pattern of the vehicles."

We compute that reference sequence directly from the trace: for every
(subscriber, relevant alarm) pair, the first sample whose position lies
strictly inside the alarm region is the expected trigger (one-shot
semantics).  The sweep is written out on plain coordinates: the oracle
shares no point-query code with the server it judges (its per-sample
definition lives in ``tests/engine/test_groundtruth.py``).  Every
strategy run is then scored for recall (missed alarms), precision
(spurious alarms — impossible by construction, but verified anyway) and
timeliness (trigger at exactly the expected sample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..alarms import AlarmRegistry, AlarmScope, SpatialAlarm
from ..geometry import Rect
from ..mobility import Trace, TraceSet
from .metrics import Metrics

TriggerKey = Tuple[int, int]  # (user_id, alarm_id)


#: Samples per swept chunk: an alarm is tested against a chunk's samples
#: only when it open-overlaps the chunk's bounding box.
CHUNK_SAMPLES = 32


#: A trace cut for the sweep: the bounding box of each chunk of fixes.
_Chunks = List[Tuple[float, float, float, float]]

#: An alarm as it stood — where it stood — over steps ``[from, to)``.
Lifetime = Tuple[SpatialAlarm, int, int]


def _chunked(trace: Trace) -> _Chunks:
    chunks = []
    for start in range(0, len(trace), CHUNK_SAMPLES):
        xs = trace.xs[start:start + CHUNK_SAMPLES]
        ys = trace.ys[start:start + CHUNK_SAMPLES]
        chunks.append((min(xs), min(ys), max(xs), max(ys)))
    return chunks


def _first_inside(trace: Trace, chunks: _Chunks, region: Rect, begin: int,
                  end: int) -> Optional[float]:
    """Time of the first of fixes ``[begin, end)`` strictly inside
    ``region``."""
    x0, y0, x1, y1 = region.min_x, region.min_y, region.max_x, region.max_y
    xs, ys = trace.xs, trace.ys
    for index in range(begin // CHUNK_SAMPLES, -(-end // CHUNK_SAMPLES)):
        cx0, cy0, cx1, cy1 = chunks[index]
        if not (x0 < cx1 and cx0 < x1 and y0 < cy1 and cy0 < y1):
            continue
        base = index * CHUNK_SAMPLES
        for fix in range(max(begin, base),
                         min(end, base + CHUNK_SAMPLES)):
            if x0 < xs[fix] < x1 and y0 < ys[fix] < y1:
                return trace.times[fix]
    return None


def compute_ground_truth(registry: AlarmRegistry,
                         traces: TraceSet) -> Dict[TriggerKey, float]:
    """Expected triggers: ``(user_id, alarm_id) -> first trigger time``.

    One range query per trace collects the relevant alarms overlapping
    its bounding box; each is then swept along the trace chunk by chunk
    to its first strictly-interior sample.
    """
    expected: Dict[TriggerKey, float] = {}
    for trace in traces:
        if not len(trace):
            continue
        chunks = _chunked(trace)
        for alarm in registry.relevant_intersecting(trace.vehicle_id,
                                                    trace.bounding_rect()):
            hit = _first_inside(trace, chunks, alarm.region, 0, len(trace))
            if hit is not None:
                expected[(trace.vehicle_id, alarm.alarm_id)] = hit
    return expected


def sweep_lifetimes(lifetimes: Iterable[Lifetime],
                    traces: TraceSet) -> Dict[TriggerKey, float]:
    """Expected triggers of a world whose alarms come, go and move.

    The same sweep, each alarm tested only against the samples of its
    lifetime; an alarm with several lifetimes (a moving target) fires at
    the earliest hit of any of them.
    """
    public: List[Lifetime] = []
    personal: Dict[int, List[Lifetime]] = {}
    for lifetime in lifetimes:
        alarm = lifetime[0]
        if alarm.scope is AlarmScope.PUBLIC:
            public.append(lifetime)
        else:
            for user_id in alarm.subscriber_set(frozenset()):
                personal.setdefault(user_id, []).append(lifetime)
    expected: Dict[TriggerKey, float] = {}
    for trace in traces:
        if not len(trace):
            continue
        chunks = _chunked(trace)
        box = trace.bounding_rect()
        for alarm, begin, end in public + personal.get(trace.vehicle_id, []):
            if not alarm.region.interior_intersects(box):
                continue
            hit = _first_inside(trace, chunks, alarm.region, begin,
                                min(end, len(trace)))
            key = (trace.vehicle_id, alarm.alarm_id)
            if hit is not None and hit < expected.get(key, math.inf):
                expected[key] = hit
    return expected


@dataclass(frozen=True)
class AccuracyReport:
    """How a strategy run compares to the ground truth."""

    expected: int
    delivered: int
    missed: int
    spurious: int
    late: int

    @property
    def recall(self) -> float:
        """Fraction of expected triggers delivered (the paper's accuracy)."""
        if self.expected == 0:
            return 1.0
        return (self.expected - self.missed) / self.expected

    @property
    def perfect(self) -> bool:
        """100% recall, nothing spurious, every trigger on time."""
        return self.missed == 0 and self.spurious == 0 and self.late == 0


def verify_accuracy(expected: Dict[TriggerKey, float],
                    metrics: Metrics) -> AccuracyReport:
    """Score a run's delivered triggers against the ground truth."""
    delivered: Dict[TriggerKey, float] = {}
    for event in metrics.triggers:
        key = (event.user_id, event.alarm_id)
        if key not in delivered:
            delivered[key] = event.time
    missed = sum(1 for key in expected if key not in delivered)
    spurious = sum(1 for key in delivered if key not in expected)
    late = sum(1 for key, time_s in delivered.items()
               if key in expected and time_s != expected[key])
    return AccuracyReport(expected=len(expected), delivered=len(delivered),
                          missed=missed, spurious=spurious, late=late)
