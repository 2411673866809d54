"""The benchmark's inputs: two worlds and one alarm schedule.

``fleet`` keeps the repository's ``BENCH`` alarm density (1,000 alarms on
100 km^2) with 200 vehicles for 900 s; ``metro`` keeps the ``PAPER``
geometry and alarm count (10,000 alarms on ~1,000 km^2) with 300
vehicles for 900 s.

The road map and the installed alarms are the benchmark's fixed data
set (the configs' own map and alarm seeds); ``--seed`` drives what
arrives at the system: the vehicle traces and the churn schedule.
Measured on the fleet, letting the seed redraw map and alarms as well
moved PBSR's downlink bytes by +-15% and its pass time by +-20% from
seed to seed; with the data set fixed the same counts move by +-5%,
which leaves the run-to-run spread to the machine.  The program under
test only ever sees the generated world, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Tuple

from repro.alarms import AlarmScope
from repro.engine import World
from repro.engine.dynamic import (AlarmSchedule, InstallAction,
                                  RemoveAction, ScheduleAction)
from repro.experiments.configs import BENCH, PAPER, TINY, WorkloadConfig
from repro.geometry import Point, Rect

FLEET = replace(BENCH, vehicle_count=200, duration_s=900.0)
METRO = replace(PAPER, vehicle_count=300, duration_s=900.0)

#: Schedule size of ``churn_mwpsr`` (full, quick).
CHURN_INSTALLS = (600, 60)
CHURN_REMOVALS = (300, 30)


def derive_seed(seed: int, purpose: str) -> int:
    """An independent 30-bit seed per purpose (string seeding is stable)."""
    return random.Random("bench_e2e/%d/%s" % (seed, purpose)).getrandbits(30)


def world_config(name: str, seed: int, quick: bool = False) -> WorkloadConfig:
    """The ``fleet`` or ``metro`` config for a benchmark seed.

    ``quick`` swaps in the seconds-fast ``TINY`` geometry for the smoke
    tests; its numbers are not comparable with anything.
    """
    base = {"fleet": FLEET, "metro": METRO}[name]
    if quick:
        base = TINY
    return replace(base, trace_seed=derive_seed(seed, name + "/traces"))


def churn_schedule(world: World, config: WorkloadConfig, seed: int,
                   quick: bool = False) -> AlarmSchedule:
    """Installs (10% public) and removals spread over the whole run.

    Half the removals cancel an alarm the schedule itself installed,
    half cancel one that was installed before the run, so both the
    freshly inserted and the long-resident part of the index see
    deletes.
    """
    rng = random.Random(derive_seed(seed, "churn/schedule"))
    installs = CHURN_INSTALLS[quick]
    removals = CHURN_REMOVALS[quick]
    universe = world.universe
    users = world.user_ids
    duration = world.duration_s

    install_times = sorted(rng.uniform(1.0, duration - 2.0)
                           for _ in range(installs))
    # Exactly 10% public, 60% private, 30% shared, in a drawn order: a
    # public install invalidates every client, so a binomial count of
    # them moved the pass's uplinks (and its time) by +-15% seed to seed.
    public, private = installs // 10, installs * 6 // 10
    scopes = ([AlarmScope.PUBLIC] * public + [AlarmScope.PRIVATE] * private
              + [AlarmScope.SHARED] * (installs - public - private))
    rng.shuffle(scopes)
    actions: List[ScheduleAction] = []
    for time_s, scope in zip(install_times, scopes):
        side = rng.uniform(config.alarm_min_side_m, config.alarm_max_side_m)
        center = Point(rng.uniform(universe.min_x, universe.max_x),
                       rng.uniform(universe.min_y, universe.max_y))
        region = Rect.from_center(center, side, side).intersection(universe)
        assert region is not None  # the center is inside the universe
        owner = rng.choice(users)
        subscribers: Tuple[int, ...] = ()
        if scope is AlarmScope.SHARED:
            others = [uid for uid in users if uid != owner]
            subscribers = tuple(rng.sample(others, min(3, len(others))))
        actions.append(InstallAction(time_s, region, scope, owner,
                                     subscribers=subscribers))

    scheduled = rng.sample(range(installs), removals // 2)
    for index in scheduled:
        # Strictly after its install, so the (stable) time sort keeps
        # the removal behind the install it refers to.
        time_s = rng.uniform(install_times[index] + 0.5, duration - 0.5)
        actions.append(RemoveAction(time_s, install_index=index))
    resident = [alarm.alarm_id for alarm in world.registry.all_alarms()]
    for alarm_id in rng.sample(resident, removals - len(scheduled)):
        actions.append(RemoveAction(rng.uniform(1.0, duration - 1.0),
                                    alarm_id=alarm_id))
    return AlarmSchedule(actions)
