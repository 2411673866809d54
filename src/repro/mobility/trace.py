"""Mobility trace containers.

A *trace* is the high-frequency sequence of position samples for one
vehicle over the simulated period.  The paper's evaluation pipeline is
trace-driven: the same trace feeds every processing strategy (so
comparisons are paired) and also defines the ground-truth alarm triggers
("the sequence of alarms to be triggered is determined by a very high
frequency trace of the motion pattern of the vehicles", Section 5).

A trace is stored as five parallel ``array('d')`` columns — 40 bytes a
fix, against ~310 for a :class:`TraceSample` holding a ``Point`` — and
everything that visits every fix (the replay loops, the ground-truth
sweep, persistence) reads the columns.  :class:`TraceSample` is the
public value of one fix, built on demand by indexing or iterating.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from ..geometry import Point, Rect
from ..values import slot_init


@slot_init
@dataclass(frozen=True, slots=True)
class TraceSample:
    """One position fix: where a vehicle is at a point in time."""

    time: float      # seconds since trace start
    position: Point  # meters, universe coordinates
    heading: float   # radians, direction of travel
    speed: float     # meters/second


class Trace:
    """The ordered fixes of a single vehicle, one column per field."""

    __slots__ = ("vehicle_id", "times", "xs", "ys", "headings", "speeds")

    def __init__(self, vehicle_id: int,
                 samples: Iterable[TraceSample] = ()) -> None:
        self.vehicle_id = vehicle_id
        self.times = array("d")
        self.xs = array("d")
        self.ys = array("d")
        self.headings = array("d")
        self.speeds = array("d")
        for sample in samples:
            self.append(sample.time, sample.position.x, sample.position.y,
                        sample.heading, sample.speed)

    def append(self, time: float, x: float, y: float, heading: float,
               speed: float) -> None:
        """Add one fix at the end of every column."""
        self.times.append(time)
        self.xs.append(x)
        self.ys.append(y)
        self.headings.append(heading)
        self.speeds.append(speed)

    def __len__(self) -> int:
        return len(self.times)

    def rows(self) -> Iterator[Tuple[float, float, float, float, float]]:
        """Every fix as a plain ``(time, x, y, heading, speed)`` tuple."""
        return zip(self.times, self.xs, self.ys, self.headings, self.speeds)

    def __iter__(self) -> Iterator[TraceSample]:
        for time, x, y, heading, speed in self.rows():
            yield TraceSample(time, Point(x, y), heading, speed)

    def __getitem__(self, index: int) -> TraceSample:
        return TraceSample(self.times[index],
                           Point(self.xs[index], self.ys[index]),
                           self.headings[index], self.speeds[index])

    @property
    def duration(self) -> float:
        """Seconds covered by the trace (0 for traces under two samples)."""
        if len(self.times) < 2:
            return 0.0
        return self.times[-1] - self.times[0]

    def max_speed(self) -> float:
        """Fastest sampled speed; the safe-period bound builds on this."""
        return max(self.speeds, default=0.0)

    def bounding_rect(self) -> Rect:
        """Bounding rectangle of all sampled positions."""
        if not self.times:
            raise ValueError("empty trace has no bounds")
        return Rect(min(self.xs), min(self.ys), max(self.xs), max(self.ys))


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
