#!/usr/bin/env python3
"""Mini evaluation: every approach, every headline metric, one table.

A pocket-sized version of the paper's Fig. 6 comparison on the library's
TINY workload (seconds to run): client-to-server messages, downstream
bandwidth, client energy and server time for PRD, SP, MWPSR, GBSR,
PBSR(h=5) and OPT.  For the full benchmark-grade reproduction of every
figure, run ``pytest benchmarks/ --benchmark-only``.

Run:  python examples/compare_strategies.py
"""

from repro import OptimalStrategy, PeriodicStrategy, SafePeriodStrategy
from repro.experiments import (TINY, Table, build_world,
                               make_mwpsr_strategy, make_pbsr_strategy,
                               timed_run)

world = build_world(TINY)
print("Workload: %d vehicles, %d alarms, %d location fixes, "
      "%d expected alarm triggers\n"
      % (len(world.traces), len(world.registry),
         world.traces.total_samples, len(world.ground_truth())))

table = Table("All approaches on the TINY workload",
              ["approach", "uplink msgs", "% of fixes", "downlink KB",
               "client mWh", "server ms", "on time"])

strategies = [
    PeriodicStrategy(),
    SafePeriodStrategy(max_speed=world.max_speed()),
    make_mwpsr_strategy(z=32),
    make_pbsr_strategy(1),   # GBSR
    make_pbsr_strategy(5),
    OptimalStrategy(),
]
for strategy in strategies:
    result, server = timed_run(world, strategy)
    metrics = result.metrics
    table.add_row(strategy.name, metrics.uplink_messages,
                  "%.1f%%" % (100 * result.message_fraction),
                  "%.1f" % (metrics.downlink_bytes / 1024),
                  "%.3f" % result.client_energy_mwh,
                  "%.1f" % (1000 * server.total_s),
                  result.accuracy.perfect)

print(table)
print("\nReading guide: PRD buys its simplicity with every location fix; "
      "SP reports\nwhenever its pessimistic clock runs out; the "
      "safe-region rows stay quiet until\ngeometry forces a word; OPT "
      "talks least but makes the phone do all the work.")
