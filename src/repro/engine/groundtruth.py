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

from dataclasses import dataclass
from typing import Dict, Tuple

from ..alarms import AlarmRegistry
from ..mobility import TraceSet
from .metrics import Metrics

TriggerKey = Tuple[int, int]  # (user_id, alarm_id)


#: Samples per swept chunk: an alarm is tested against a chunk's samples
#: only when it open-overlaps the chunk's bounding box.
CHUNK_SAMPLES = 32


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
        chunks = []
        for start in range(0, len(trace), CHUNK_SAMPLES):
            chunk = trace.samples[start:start + CHUNK_SAMPLES]
            xs = [sample.position.x for sample in chunk]
            ys = [sample.position.y for sample in chunk]
            chunks.append((min(xs), min(ys), max(xs), max(ys), chunk))
        for alarm in registry.relevant_intersecting(trace.vehicle_id,
                                                    trace.bounding_rect()):
            region = alarm.region
            x0, y0 = region.min_x, region.min_y
            x1, y1 = region.max_x, region.max_y
            for cx0, cy0, cx1, cy1, chunk in chunks:
                if not (x0 < cx1 and cx0 < x1 and y0 < cy1 and cy0 < y1):
                    continue
                hit = next((sample for sample in chunk
                            if x0 < sample.position.x < x1
                            and y0 < sample.position.y < y1), None)
                if hit is not None:
                    expected[(trace.vehicle_id, alarm.alarm_id)] = hit.time
                    break
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
