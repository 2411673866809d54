#!/usr/bin/env python3
"""Heterogeneous clients: one fleet, per-device safe-region techniques.

A core selling point of the paper's PBSR design is device heterogeneity:
"each client may specify the maximum height of the pyramid used by the
PBSR approach for computing its safe region."  This example runs a
single simulation in which every device class gets its own technique —

* budget phones    -> rectangular MWPSR regions (one comparison per fix);
* mid-range phones -> PBSR with a short pyramid (h=2);
* flagship phones  -> PBSR with a tall pyramid (h=6);

— by composing the library's strategies into a per-client dispatcher
on *both* sides of the wire (a dispatching client strategy and a
dispatching :class:`ServerPolicy`), and then reports messages and probe
work per device class.  It also shows how to extend the protocol layer
without touching the engine: per-class uplink counting rides on a
custom transport, the single place all traffic crosses.

Run:  python examples/heterogeneous_clients.py
"""

from collections import defaultdict

from repro import (AlarmRegistry, AlarmScope, GridOverlay, MWPSRComputer,
                   MobilityConfig, NetworkConfig, PBSRComputer, Point, Rect,
                   RectangularSafeRegionStrategy, BitmapSafeRegionStrategy,
                   SteadyMotionModel, TraceGenerator, World, generate_network,
                   run_simulation)
from repro.protocol.handlers import ServerPolicy
from repro.protocol.transport import InProcessTransport
from repro.strategies import ProcessingStrategy


class PerClientPolicy(ServerPolicy):
    """Server half: route each request to its device class's policy."""

    def __init__(self, assign, policies):
        self.assign = assign          # user_id -> class name
        self.policies = policies      # class name -> ServerPolicy

    def on_location_report(self, server, request, time_s, triggered):
        policy = self.policies[self.assign(request.user_id)]
        return policy.on_location_report(server, request, time_s, triggered)

    def on_region_exit(self, server, request, time_s, triggered):
        policy = self.policies[self.assign(request.user_id)]
        return policy.on_region_exit(server, request, time_s, triggered)


class PerClientStrategy(ProcessingStrategy):
    """Client half: dispatch every client to its device class's strategy."""

    name = "per-device"

    def __init__(self, assign, strategies):
        self.assign = assign          # user_id -> class name
        self.strategies = strategies  # class name -> strategy

    def server_policy(self):
        return PerClientPolicy(self.assign,
                               {name: s.server_policy()
                                for name, s in self.strategies.items()})

    def attach(self, session):
        super().attach(session)
        for strategy in self.strategies.values():
            strategy.attach(session)

    def advance(self, client, trace, start, stop):
        strategy = self.strategies[self.assign(client.user_id)]
        return strategy.advance(client, trace, start, stop)


# ----------------------------------------------------------------------
# World: a mid-sized town, 24 vehicles, alarms of every scope.
# ----------------------------------------------------------------------
map_config = NetworkConfig(universe_side_m=6000.0, lattice_spacing_m=500.0)
network = generate_network(map_config, seed=12)
traces = TraceGenerator(network,
                        MobilityConfig(vehicle_count=24, duration_s=600.0),
                        seed=13).generate()
registry = AlarmRegistry()
for index in range(60):
    node = (index * 53) % network.node_count
    center = network.position(node)
    center = Point(min(max(center.x, 150.0), 5850.0),
                   min(max(center.y, 150.0), 5850.0))
    scope = AlarmScope.PUBLIC if index % 3 == 0 else AlarmScope.PRIVATE
    registry.install(Rect.from_center(center, 240.0, 240.0), scope,
                     owner_id=index % len(traces))
world = World(universe=map_config.universe,
              grid=GridOverlay(map_config.universe, cell_area_km2=2.5),
              registry=registry, traces=traces)

# ----------------------------------------------------------------------
# Device classes and their techniques.
# ----------------------------------------------------------------------
CLASSES = ("budget", "mid-range", "flagship")


def device_class(user_id):
    return CLASSES[user_id % 3]


strategy = PerClientStrategy(device_class, {
    "budget": RectangularSafeRegionStrategy(
        MWPSRComputer(SteadyMotionModel(1, 8)), name="MWPSR"),
    "mid-range": BitmapSafeRegionStrategy(PBSRComputer(height=2),
                                          name="PBSR(h=2)"),
    "flagship": BitmapSafeRegionStrategy(PBSRComputer(height=6),
                                         name="PBSR(h=6)"),
})

# ----------------------------------------------------------------------
# Per-class accounting.  Uplinks are counted where they actually cross:
# a custom transport (every request carries its user id).  Probe work is
# counted by wrapping each class strategy's _charge_probe — dispatch is
# per class, so each instance's probes belong to exactly one class — and
# fixes by what each advance() call consumed: a client's whole silent
# run, and the fix that ended it, is one call.
# ----------------------------------------------------------------------
per_class = defaultdict(lambda: {"uplinks": 0, "ops": 0, "fixes": 0})


class ClassCountingTransport(InProcessTransport):
    """The reliable transport, plus a per-device-class uplink tally."""

    __slots__ = ()

    def request(self, request, time_s):
        per_class[device_class(request.user_id)]["uplinks"] += 1
        return super().request(request, time_s)


for class_name, class_strategy in strategy.strategies.items():
    def charge(ops, checks=1, _bucket=per_class[class_name],
               _charge=class_strategy._charge_probe):
        _bucket["ops"] += ops
        _charge(ops, checks)
    class_strategy._charge_probe = charge

original_advance = strategy.advance


def counting_advance(client, trace, start, stop):
    reached = original_advance(client, trace, start, stop)
    per_class[device_class(client.user_id)]["fixes"] += reached - start
    return reached


strategy.advance = counting_advance

result = run_simulation(world, strategy,
                        transport_factory=ClassCountingTransport)
assert result.accuracy.perfect

print("One simulation, three device classes, 100%% of %d alarms on time.\n"
      % result.accuracy.expected)
print("%-10s %-10s %10s %14s %16s" % ("class", "technique", "fixes",
                                      "uplink msgs", "probe ops/fix"))
TECHNIQUE = {"budget": "MWPSR", "mid-range": "PBSR h=2",
             "flagship": "PBSR h=6"}
for name in CLASSES:
    bucket = per_class[name]
    print("%-10s %-10s %10d %14d %16.2f"
          % (name, TECHNIQUE[name], bucket["fixes"], bucket["uplinks"],
             bucket["ops"] / max(bucket["fixes"], 1)))

print("\nTall pyramids buy silence (fewer uplinks) with more probe work "
      "per fix;\nthe budget class gets the cheapest possible monitor. "
      "Every class keeps\nthe accuracy contract.")
