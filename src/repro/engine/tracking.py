"""Moving alarm targets under distributed safe-region processing.

The paper's third alarm class — moving subscriber with *moving target*
("alert me when the school bus is near") — requires server-side
coordination: a client holding a safe region computed against the
target's old position knows nothing about the target's movement.  The
naive answer is to fall back to periodic processing; this module makes
the distributed architecture handle the class instead:

* a :class:`TargetTrack` gives an alarm's region per time step (e.g.
  derived from the target vehicle's own trace);
* :class:`TrackMutation` is a set of tracks as a
  :class:`~repro.engine.simulation.WorldMutation`: each step it
  relocates the tracked alarms through the run's private registry, and
  the session's time-major loop *push-invalidates* exactly the clients
  whose footprint the region left or the region reached touches;
* :func:`run_tracking_simulation` is the session with that mutation;
* :func:`compute_tracking_ground_truth` scores the run against the
  moving reference, so the accuracy contract (zero misses, zero
  spurious, on-time) is *verified*, not assumed, for every strategy.

The economics are the interesting part (see
``tests/engine/test_tracking.py`` and EXPERIMENTS.md, "Mutating
worlds"): safe-period clients degenerate toward periodic reporting
under tracking (their bound is global, so every target move invalidates
every subscriber), bitmap and OPT clients are woken per cell, and an
MWPSR client only when the target's old or new region touches its own
rectangle — on the golden tracking world 1,675, 528/438 and 98 uplinks
of 1,810 fixes.  The distributed architecture's advantage survives, and
it is measured: the tests bound MWPSR at a quarter of safe-period's
uplinks and count the pushes of single moves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..alarms import AlarmRegistry, SpatialAlarm
from ..geometry import Point, Rect
from ..mobility import Trace
from ..telemetry.facade import Telemetry
from .simulation import (GroundTruth, SimulationResult, StepChanges, World,
                         compute_mutating_ground_truth, in_process_link,
                         run_session)

if TYPE_CHECKING:  # runtime import would cycle through strategies.base
    from ..strategies.base import ProcessingStrategy


@dataclass(frozen=True)
class TargetTrack:
    """Per-step regions of one moving alarm target.

    ``regions[k]`` is the alarm's region during step ``k``; steps past
    the end keep the final region (the target parked).
    """

    alarm_id: int
    regions: Tuple[Rect, ...]

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("a track needs at least one region")

    def region_at(self, step: int) -> Rect:
        if step < 0:
            raise ValueError("step must be non-negative")
        return self.regions[min(step, len(self.regions) - 1)]

    @classmethod
    def following_trace(cls, alarm_id: int, trace: Trace,
                        width: float, height: float) -> "TargetTrack":
        """A track keeping the region centered on a vehicle's trace."""
        regions = tuple(Rect.from_center(Point(x, y), width, height)
                        for x, y in zip(trace.xs, trace.ys))
        return cls(alarm_id=alarm_id, regions=regions)


class TrackMutation:
    """A set of tracks bound to one run's registry."""

    def __init__(self, tracks: Sequence[TargetTrack],
                 registry: AlarmRegistry, sample_interval: float) -> None:
        self.tracks = tracks
        self.registry = registry

    def apply(self, step: int) -> StepChanges:
        """Relocate the targets that moved; returns them with both regions."""
        moved: List[Tuple[SpatialAlarm, Tuple[Rect, ...]]] = []
        for track in self.tracks:
            old_region = self.registry.get(track.alarm_id).region
            new_region = track.region_at(step)
            if new_region != old_region:
                alarm = self.registry.relocate(track.alarm_id, new_region)
                moved.append((alarm, (old_region, new_region)))
        return moved, ()


def compute_tracking_ground_truth(world: World,
                                  tracks: Sequence[TargetTrack]
                                  ) -> GroundTruth:
    """Expected triggers with tracked alarms at their per-step regions."""
    return compute_mutating_ground_truth(
        world, functools.partial(TrackMutation, tracks))


def run_tracking_simulation(world: World, strategy: "ProcessingStrategy",
                            tracks: Sequence[TargetTrack],
                            telemetry: Optional[Telemetry] = None
                            ) -> SimulationResult:
    """Time-major replay with per-step target moves and invalidation."""
    return run_session(
        world, strategy, in_process_link, telemetry=telemetry,
        mutation=functools.partial(TrackMutation, tracks),
        ground_truth=lambda: compute_tracking_ground_truth(world, tracks))
