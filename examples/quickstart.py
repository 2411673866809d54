#!/usr/bin/env python3
"""Quickstart: install spatial alarms, compute safe regions, monitor.

Walks the library's core loop by hand, without the simulation engine:

1. install a few spatial alarms in a server-side registry;
2. compute a rectangular (MWPSR) safe region for a subscriber;
3. compute a pyramid bitmap (PBSR) safe region for the same subscriber;
4. monitor a little straight-line drive client-side, contacting the
   "server" only when the safe region is exited.

Run:  python examples/quickstart.py
"""

import math

from repro import (AlarmRegistry, AlarmScope, GridOverlay, MWPSRComputer,
                   PBSRComputer, Point, Rect, SteadyMotionModel)

# ----------------------------------------------------------------------
# 1. A 4 x 4 km town with a few alarms.
# ----------------------------------------------------------------------
universe = Rect(0, 0, 4000, 4000)
registry = AlarmRegistry()

dry_cleaner = registry.install(Rect(2600, 1900, 2800, 2100),
                               AlarmScope.PRIVATE, owner_id=1,
                               label="pick up the dry cleaning")
school_zone = registry.install(Rect(1800, 2400, 2200, 2700),
                               AlarmScope.PUBLIC, owner_id=0,
                               label="school zone, slow down")
road_works = registry.install(Rect(3000, 1800, 3300, 2200),
                              AlarmScope.PUBLIC, owner_id=0,
                              label="road works on 5th avenue")

print("Installed %d alarms." % len(registry))

# ----------------------------------------------------------------------
# 2. A rectangular safe region for subscriber 1 heading east.
# ----------------------------------------------------------------------
grid = GridOverlay(universe, cell_area_km2=4.0)
me = Point(2000.0, 2000.0)
heading = 0.0  # east
cell = grid.cell_rect_of_point(me)
relevant = registry.relevant_intersecting(1, cell)
print("\n%d alarms are relevant inside my %d x %d m grid cell."
      % (len(relevant), cell.width, cell.height))

computer = MWPSRComputer(model=SteadyMotionModel(y=1, z=8))
result = computer.compute(me, heading, cell, [a.region for a in relevant])
region = result.rect
print("MWPSR safe region: x [%d, %d], y [%d, %d]  (%.2f km^2)"
      % (region.min_x, region.max_x, region.min_y, region.max_y,
         region.area / 1e6))

from repro.experiments import render_cell, render_legend  # noqa: E402

print(render_cell(cell, [a.region for a in relevant], me, region, width=56))
print(render_legend())

# ----------------------------------------------------------------------
# 3. The same cell as a pyramid bitmap safe region.
# ----------------------------------------------------------------------
pbsr = PBSRComputer(height=4)
bitmap = pbsr.compute(cell, [a.region for a in relevant])
print("PBSR(h=4) safe region: %d bits on the wire, %.1f%% of the cell"
      % (bitmap.bit_length(), 100 * bitmap.coverage()))

# ----------------------------------------------------------------------
# 4. Drive east and monitor: one cheap check per fix, silence until the
#    safe region is exited.
# ----------------------------------------------------------------------
print("\nDriving east at 15 m/s ...")
position = me
server_contacts = 0
for second in range(0, 90):
    position = Point(me.x + 15.0 * second, me.y)
    if result.rect.contains_point(position):
        continue
    server_contacts += 1
    fired = registry.triggered_at(1, position)
    for alarm in fired:
        print("t=%2ds  ALARM at (%d, %d): %s"
              % (second, position.x, position.y, alarm.label))
    # one-shot: drop fired alarms, recompute and carry on
    fired_ids = {alarm.alarm_id for alarm in fired}
    cell = grid.cell_rect_of_point(position)
    pending = registry.relevant_intersecting(1, cell,
                                             exclude_ids=fired_ids)
    result = computer.compute(position, heading, cell,
                              [a.region for a in pending])
    print("t=%2ds  left the safe region -> server computed a new one "
          "(%.2f km^2)" % (second, result.rect.area / 1e6))

print("\n90 position fixes, %d server contacts. That asymmetry is the "
      "paper's entire point." % server_contacts)
