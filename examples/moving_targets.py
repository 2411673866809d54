#!/usr/bin/env python3
"""Moving alarm targets: "tell me when the school bus is near".

The paper's third alarm class is *moving subscriber with moving target*
(Section 1): the alarm region follows a moving object — here, a school
bus — and subscribers are alerted when they come near it.  Moving
targets need server-side coordination (the bus's position updates
continuously), which is exactly why client-centric architectures cannot
support this class.

This example runs the class through the library's tracking engine
(`repro.engine.run_tracking_simulation`): the alarm region follows the
bus step by step, and the server push-invalidates exactly the clients
whose own safe region the move touches.  It then contrasts the cost
of handling the class under three processors — periodic, safe-period
and MWPSR safe regions — all verified against the moving ground truth.

Run:  python examples/moving_targets.py
"""

import math

from repro import (AlarmRegistry, AlarmScope, GridOverlay, MWPSRComputer,
                   MobilityConfig, NetworkConfig, PeriodicStrategy,
                   RectangularSafeRegionStrategy, Rect, SafePeriodStrategy,
                   TraceGenerator, World, generate_network)
from repro.engine import (TargetTrack, compute_tracking_ground_truth,
                          run_tracking_simulation)

map_config = NetworkConfig(universe_side_m=5000.0, lattice_spacing_m=400.0)
network = generate_network(map_config, seed=21)

# Vehicle 0 plays the school bus; vehicles 1..14 are subscriber cars.
traces = TraceGenerator(network,
                        MobilityConfig(vehicle_count=15, duration_s=600.0),
                        seed=22).generate()
bus_trace = traces[0]

registry = AlarmRegistry()
bus_alarm = registry.install(
    Rect.from_center(bus_trace[0].position, 500.0, 500.0),
    AlarmScope.PUBLIC, owner_id=0, moving_target=True,
    label="school bus within 250 m")

world = World(universe=map_config.universe,
              grid=GridOverlay(map_config.universe, cell_area_km2=2.5),
              registry=registry, traces=traces)
track = TargetTrack.following_trace(bus_alarm.alarm_id, bus_trace,
                                    width=500.0, height=500.0)

expected = compute_tracking_ground_truth(world, [track])
encounters = sorted((when, user) for (user, _), when in expected.items()
                    if user != 0)
print("The bus drove %.1f km in %d minutes; %d of %d cars came within "
      "250 m of it.\n"
      % (sum(math.hypot(x1 - x0, y1 - y0)
             for x0, y0, x1, y1 in zip(bus_trace.xs, bus_trace.ys,
                                       bus_trace.xs[1:], bus_trace.ys[1:]))
         / 1000.0, bus_trace.duration // 60, len(encounters),
         len(traces) - 1))
for when, user in encounters:
    print("  t=%3ds  car %2d enters the bus zone" % (when, user))

print("\nHandling the class under each processor "
      "(all deliver every alert on time):\n")
print("%-10s %14s %18s %12s" % ("processor", "uplink msgs",
                                "invalidation pushes", "on time"))
for strategy in (PeriodicStrategy(),
                 SafePeriodStrategy(max_speed=world.max_speed()),
                 RectangularSafeRegionStrategy(MWPSRComputer(),
                                               name="MWPSR")):
    result = run_tracking_simulation(world, strategy, [track])
    assert result.accuracy.perfect, result.accuracy
    print("%-10s %14d %18d %12s"
          % (strategy.name, result.metrics.uplink_messages,
             result.metrics.downlink_messages
             - result.metrics.safe_region_computations,
             "yes"))

print("\nThe safe-period bound is global, so every bus move invalidates "
      "every\nsubscriber and SP reports as often as PRD.  An MWPSR car is "
      "woken only when\nthe bus zone leaves or reaches its own rectangle "
      "(about a seventh of the\nmoves here) — the distributed architecture "
      "survives the paper's hardest\nalarm class.")
