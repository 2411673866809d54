"""Dynamic alarm lifecycle: installing and removing alarms mid-run.

The paper evaluates a static alarm population, but a deployed spatial
alarm service installs and cancels alarms continuously.  Distributing
safe regions makes this a coordination problem: a client silently
cruising inside its safe region knows nothing about an alarm installed
in front of it.  This module supplies the missing machinery:

* an :class:`AlarmSchedule` of timed install/remove actions;
* :class:`ScheduleMutation`, the schedule as a
  :class:`~repro.engine.simulation.WorldMutation`: each step it applies
  the due actions to the run's private registry, and the session's
  time-major loop *push-invalidates* exactly the clients whose
  footprint — the area their installed state answers for: an MWPSR
  rectangle, a bitmap's or OPT list's cell — an installed region
  touches, or who locally hold a removed alarm; only a safe-period
  timer, whose bound is global, is woken by every relevant install;
* :func:`run_dynamic_simulation`, the session with that mutation;
* :func:`compute_dynamic_ground_truth`, the reference trigger set under
  alarm lifetimes (an alarm can only fire while installed), swept once
  per trace rather than queried once per fix.

Invalidation is counted as one downlink push (header-sized) per client;
see :func:`~repro.engine.simulation.replay_time_major` for why the
accuracy contract (zero misses, on-time triggers) survives it.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from ..alarms import AlarmRegistry, AlarmScope, SpatialAlarm
from ..geometry import Rect
from .simulation import (GroundTruth, SimulationResult, StepChanges, World,
                         compute_mutating_ground_truth, in_process_link,
                         run_session)

if TYPE_CHECKING:  # runtime import would cycle through strategies.base
    from ..strategies.base import ProcessingStrategy


@dataclass(frozen=True)
class InstallAction:
    """Install a new alarm at ``time`` (seconds into the run)."""

    time: float
    region: Rect
    scope: AlarmScope
    owner_id: int
    subscribers: Tuple[int, ...] = ()
    label: Optional[str] = None


@dataclass(frozen=True)
class RemoveAction:
    """Remove an alarm at ``time``.

    ``install_index`` refers to the position of the corresponding
    :class:`InstallAction` in the schedule (actions create alarms with
    run-local ids, so references are by schedule position); use ``None``
    in ``alarm_id`` -mode to remove a pre-installed alarm by its id.
    """

    time: float
    install_index: Optional[int] = None
    alarm_id: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.install_index is None) == (self.alarm_id is None):
            raise ValueError(
                "specify exactly one of install_index / alarm_id")


#: Either lifecycle action kind; schedules hold a mix of both.
ScheduleAction = Union[InstallAction, RemoveAction]


class AlarmSchedule:
    """A time-ordered list of alarm lifecycle actions."""

    def __init__(self, actions: Iterable[ScheduleAction]) -> None:
        actions = list(actions)
        for action in actions:
            if not isinstance(action, (InstallAction, RemoveAction)):
                raise TypeError("unknown schedule action: %r" % (action,))
        self.actions = sorted(actions, key=lambda action: action.time)
        self._times = [action.time for action in self.actions]
        install_count = -1
        for action in self.actions:
            if isinstance(action, InstallAction):
                install_count += 1
            elif isinstance(action, RemoveAction):
                if (action.install_index is not None
                        and action.install_index > install_count):
                    raise ValueError(
                        "removal at t=%g references install #%d which is "
                        "not yet scheduled" % (action.time,
                                               action.install_index))

    def due(self, start: float, end: float) -> List[ScheduleAction]:
        """Actions with ``start <= time < end``, in order."""
        return self.actions[bisect_left(self._times, start):
                            bisect_left(self._times, end)]

    def __len__(self) -> int:
        return len(self.actions)


class ScheduleMutation:
    """The schedule bound to one run's registry and sample clock.

    Step ``k`` applies the actions due up to half an interval past its
    sample time (and after the previous step's window), so an action
    stamped on a sample time takes effect at that sample.  Installs get
    run-local alarm ids, which ``RemoveAction.install_index`` resolves
    through ``installed_ids``.
    """

    def __init__(self, schedule: AlarmSchedule, registry: AlarmRegistry,
                 sample_interval: float) -> None:
        self.schedule = schedule
        self.registry = registry
        self.sample_interval = sample_interval
        self.installed_ids: List[int] = []
        self._applied_until = float("-inf")

    def apply(self, step: int) -> StepChanges:
        """Apply due actions; returns (installs with region, removed ids)."""
        start = self._applied_until
        end = step * self.sample_interval + self.sample_interval / 2.0
        self._applied_until = end
        installed: List[Tuple[SpatialAlarm, Tuple[Rect, ...]]] = []
        removed: List[int] = []
        for action in self.schedule.due(start, end):
            if isinstance(action, InstallAction):
                alarm = self.registry.install(
                    action.region, action.scope, action.owner_id,
                    subscribers=action.subscribers, label=action.label)
                self.installed_ids.append(alarm.alarm_id)
                installed.append((alarm, (alarm.region,)))
            else:
                if action.install_index is not None:
                    alarm_id = self.installed_ids[action.install_index]
                else:
                    assert action.alarm_id is not None  # __post_init__
                    alarm_id = action.alarm_id
                if self.registry.remove(alarm_id):
                    removed.append(alarm_id)
        return installed, removed


def compute_dynamic_ground_truth(world: World,
                                 schedule: AlarmSchedule) -> GroundTruth:
    """Expected triggers under the schedule's alarm lifetimes."""
    return compute_mutating_ground_truth(
        world, functools.partial(ScheduleMutation, schedule))


def run_dynamic_simulation(world: World, strategy: "ProcessingStrategy",
                           schedule: AlarmSchedule) -> SimulationResult:
    """Time-major replay with lifecycle actions and push invalidation."""
    return run_session(
        world, strategy, in_process_link,
        mutation=functools.partial(ScheduleMutation, schedule),
        ground_truth=lambda: compute_dynamic_ground_truth(world, schedule))
