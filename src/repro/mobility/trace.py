"""Mobility trace containers.

A *trace* is the high-frequency sequence of position samples for one
vehicle over the simulated period.  The paper's evaluation pipeline is
trace-driven: the same trace feeds every processing strategy (so
comparisons are paired) and also defines the ground-truth alarm triggers
("the sequence of alarms to be triggered is determined by a very high
frequency trace of the motion pattern of the vehicles", Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

from ..geometry import Point, Rect


@dataclass(frozen=True)
class TraceSample:
    """One position fix: where a vehicle is at a point in time."""

    time: float      # seconds since trace start
    position: Point  # meters, universe coordinates
    heading: float   # radians, direction of travel
    speed: float     # meters/second


class Trace:
    """The ordered sample sequence of a single vehicle."""

    __slots__ = ("vehicle_id", "samples")

    def __init__(self, vehicle_id: int,
                 samples: Sequence[TraceSample]) -> None:
        self.vehicle_id = vehicle_id
        self.samples: List[TraceSample] = list(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[TraceSample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> TraceSample:
        return self.samples[index]

    @property
    def duration(self) -> float:
        """Seconds covered by the trace (0 for traces under two samples)."""
        if len(self.samples) < 2:
            return 0.0
        return self.samples[-1].time - self.samples[0].time

    def max_speed(self) -> float:
        """Fastest sampled speed; the safe-period bound builds on this."""
        if not self.samples:
            return 0.0
        return max(sample.speed for sample in self.samples)

    def bounding_rect(self) -> Rect:
        """Bounding rectangle of all sampled positions."""
        if not self.samples:
            raise ValueError("empty trace has no bounds")
        xs = [s.position.x for s in self.samples]
        ys = [s.position.y for s in self.samples]
        return Rect(min(xs), min(ys), max(xs), max(ys))


class TraceSet:
    """Traces for the whole vehicle population, keyed by vehicle id."""

    def __init__(self, traces: Dict[int, Trace],
                 sample_interval: float) -> None:
        if sample_interval <= 0:
            raise ValueError("sample interval must be positive")
        self.traces = dict(traces)
        self.sample_interval = sample_interval

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces.values())

    def __getitem__(self, vehicle_id: int) -> Trace:
        return self.traces[vehicle_id]

    def vehicle_ids(self) -> List[int]:
        return sorted(self.traces)

    @property
    def total_samples(self) -> int:
        """Total location fixes across all vehicles.

        This is the paper's "60 million location messages" denominator:
        the message count the periodic strategy would send.
        """
        return sum(len(trace) for trace in self.traces.values())

    def max_speed(self) -> float:
        """System-wide maximum vehicle speed (safe-period pessimism)."""
        speeds = [trace.max_speed() for trace in self.traces.values()]
        return max(speeds) if speeds else 0.0

    def duration(self) -> float:
        """Longest trace duration in seconds."""
        durations = [trace.duration for trace in self.traces.values()]
        return max(durations) if durations else 0.0
