"""A sampling speed probe: how fast is the machine running right now?

The sandbox this benchmark was calibrated on (a 2-vCPU microVM) switches
between speeds 25-80% apart every few seconds to minutes — no steal
time is reported, CPU time moves with wall time, pinning does not help;
it looks like a busy hyperthread sibling.  Ten runs of one commit
spread by 10-30% on raw wall time, whatever is done with the passes
(median, fastest pass, fastest slice).

So every timed interval is read together with the machine's speed
during it.  An interval timer (``ITIMER_REAL``) makes the interpreter
run a fixed pure-Python loop every :data:`PERIOD_S`; the loop's
duration is one *reading*.  An interval's *speed factor* is the mean
reading inside it over :data:`REFERENCE_S`, the reading of the
undisturbed sandbox, and its corrected duration is its wall time, less
the readings themselves, divided by that factor: the time the interval
would have taken at the reference speed.  Measured here: 88 whole
``replay_mwpsr`` passes, raw coefficient of variation 12.0%, corrected
3.1%; 21 ``replay_gbsr`` passes, 8.1% and 2.3%.

The signal handler runs in the main thread between two bytecodes, so it
neither competes for the interpreter lock nor needs anything from the
program under test; it costs ~3% of the time.  On a machine whose
undisturbed reading differs from :data:`REFERENCE_S` every corrected
time is scaled by the same constant — for every commit measured there.
"""

from __future__ import annotations

import bisect
import signal
import time
from types import FrameType
from typing import List, Optional, Tuple

#: Iterations of the probe loop, and how often it runs.
LOOPS = 40000
PERIOD_S = 0.05
#: The probe's reading on the calibration sandbox left undisturbed
#: (5th percentile over a minute, 2026-09-29).
REFERENCE_S = 1.5e-3


class SpeedProbe:
    """Readings of the probe loop, taken on a timer while running."""

    def __init__(self) -> None:
        self._started: List[float] = []
        self._readings: List[float] = []
        self._previous: object = None

    def _sample(self, signum: int, frame: Optional[FrameType]) -> None:
        started = time.perf_counter()
        total = 0
        for value in range(LOOPS):
            total += value * value % 7
        self._readings.append(time.perf_counter() - started)
        self._started.append(started)

    def start(self) -> None:
        """Begin sampling (main thread only: it installs a signal handler)."""
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling and put the previous handler back (idempotent)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]
            self._previous = None

    def samples(self) -> List[Tuple[float, float]]:
        """(``perf_counter`` start, duration) of every reading so far."""
        return list(zip(self._started, self._readings))


def corrected(samples: List[Tuple[float, float]], started: float,
              ended: float) -> Tuple[float, float]:
    """(corrected duration, speed factor) of the interval.

    ``samples`` must be in time order.  An interval that holds no
    reading (shorter than the period) borrows the two readings around
    it; with no readings at all the factor is 1.
    """
    starts = [sample[0] for sample in samples]
    low = bisect.bisect_left(starts, started)
    high = bisect.bisect_right(starts, ended)
    inside = [duration for _start, duration in samples[low:high]]
    near = inside or [duration for _start, duration
                      in samples[max(0, low - 1):high + 1]]
    if not near:
        return ended - started, 1.0
    factor = (sum(near) / len(near)) / REFERENCE_S
    return (ended - started - sum(inside)) / factor, factor
