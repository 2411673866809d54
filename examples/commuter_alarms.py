#!/usr/bin/env python3
"""Commuter scenario: private errand reminders on a morning drive.

The paper's motivating example — "alert me when I am within two miles of
the dry clean store near my house" — as a full simulation: a small town,
a handful of commuters, each with a few private errand alarms, plus a
couple of shared alarms for a carpool group.  Compares what the phone
and the server pay under periodic reporting vs the distributed MWPSR
safe-region protocol.

Run:  python examples/commuter_alarms.py
"""

from repro import (AlarmRegistry, AlarmScope, GridOverlay, MobilityConfig,
                   MWPSRComputer, NetworkConfig, PeriodicStrategy, Point,
                   RectangularSafeRegionStrategy, Rect, SteadyMotionModel,
                   TraceGenerator, World, generate_network)
from repro.experiments import timed_run

# ----------------------------------------------------------------------
# A 5 x 5 km town, eight commuters, fifteen simulated minutes.
# ----------------------------------------------------------------------
map_config = NetworkConfig(universe_side_m=5000.0, lattice_spacing_m=400.0)
network = generate_network(map_config, seed=42)
traces = TraceGenerator(network,
                        MobilityConfig(vehicle_count=8, duration_s=900.0),
                        seed=7).generate()

registry = AlarmRegistry()
universe = map_config.universe

# Each commuter sets reminders on places near the route they actually
# drive ("the dry clean store near my house"): we anchor each errand's
# alarm region on a point of the commuter's own route, offset to the
# side of the road.
ERRANDS = ["dry cleaning", "pharmacy", "bakery"]
for commuter in traces.vehicle_ids():
    trace = traces[commuter]
    for errand_index, errand in enumerate(ERRANDS):
        anchor = trace[(errand_index + 1) * len(trace) // 4].position
        center_x = min(max(anchor.x + 60.0, 150.0), 4850.0)
        center_y = min(max(anchor.y - 40.0, 150.0), 4850.0)
        region = Rect.from_center(Point(center_x, center_y), 280.0, 280.0)
        registry.install(region, AlarmScope.PRIVATE, owner_id=commuter,
                         label="%s (commuter %d)" % (errand, commuter))

# The carpool group shares a "pick-up point coming up" alarm.
registry.install(Rect(2300, 2300, 2600, 2600), AlarmScope.SHARED,
                 owner_id=0, subscribers=[1, 2, 3],
                 label="carpool pick-up point")

world = World(universe=universe,
              grid=GridOverlay(universe, cell_area_km2=2.5),
              registry=registry, traces=traces)

# ----------------------------------------------------------------------
# Periodic vs distributed safe-region processing.
# ----------------------------------------------------------------------
periodic, periodic_server = timed_run(world, PeriodicStrategy())
safe_region, safe_region_server = timed_run(
    world, RectangularSafeRegionStrategy(
        MWPSRComputer(SteadyMotionModel(y=1, z=8))))

print("%d commuters, %d alarms, %d position fixes over %d minutes\n"
      % (len(traces), len(registry), traces.total_samples,
         world.duration_s // 60))

for result, server in ((periodic, periodic_server),
                       (safe_region, safe_region_server)):
    metrics = result.metrics
    print("%-16s  messages to server: %6d   server time: %6.2f ms   "
          "triggers: %d/%d on time"
          % (result.strategy_name, metrics.uplink_messages,
             1000 * server.total_s, result.accuracy.delivered,
             result.accuracy.expected))

saved = 1 - (safe_region.metrics.uplink_messages
             / periodic.metrics.uplink_messages)
print("\nThe safe-region protocol suppressed %.1f%% of the uplink "
      "traffic without missing a reminder." % (100 * saved))

print("\nReminders delivered:")
for event in safe_region.metrics.triggers:
    alarm = registry.get(event.alarm_id)
    print("  t=%4ds  commuter %d: %s"
          % (event.time, event.user_id, alarm.label))
