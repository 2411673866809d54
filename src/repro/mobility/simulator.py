"""Vehicle mobility simulator over a road network.

Generates the high-frequency vehicle traces the evaluation is driven by
(paper Section 5.1: 10,000 vehicles on the Atlanta map for one simulated
hour, with "appropriate velocity information").

Two movement behaviours are provided:

* ``wander`` (default): at every intersection the vehicle picks the next
  road segment with probability proportional to the steady-motion density
  of the turn angle — i.e. it prefers to continue roughly straight, with
  occasional turns.  This is fast (no route planning) and is *exactly*
  the motion assumption the MWPSR weighting exploits, making it the
  apples-to-apples workload for the weighted-vs-non-weighted comparison.
* ``trip``: the vehicle repeatedly draws a random destination node and
  follows the fastest path to it (A* over free-flow travel times),
  re-planning on arrival — the classic random-trip model.

Vehicles move at a per-vehicle fraction of each road's speed limit and
are sampled at a fixed interval (1 Hz by default).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..geometry import normalize_angle
from ..roadnet import Edge, RoadNetwork
from .motion import SteadyMotionModel
from .trace import Trace, TraceSet


@dataclass(frozen=True)
class MobilityConfig:
    """Parameters of the vehicle population and the sampling process."""

    vehicle_count: int = 10000
    duration_s: float = 3600.0
    sample_interval_s: float = 1.0
    behaviour: str = "wander"          # "wander" or "trip"
    min_speed_factor: float = 0.7      # of the road's speed limit
    max_speed_factor: float = 1.0
    turn_model_y: float = 1.0          # steadiness of the wander behaviour
    turn_model_z: int = 8

    def __post_init__(self) -> None:
        if self.vehicle_count < 1:
            raise ValueError("need at least one vehicle")
        if self.duration_s <= 0 or self.sample_interval_s <= 0:
            raise ValueError("durations must be positive")
        if self.behaviour not in ("wander", "trip"):
            raise ValueError("behaviour must be 'wander' or 'trip'")
        if not (0 < self.min_speed_factor <= self.max_speed_factor <= 1.5):
            raise ValueError("speed factors out of range")


class _Vehicle:
    """Kinematic state of one simulated vehicle.

    ``start_*``, ``delta_*``, ``heading`` and ``speed`` describe the
    current leg: derived when the vehicle enters an edge, read by every
    sample on it.
    """

    __slots__ = ("rng", "speed_factor", "node_from", "edge", "offset",
                 "route", "start_x", "start_y", "delta_x", "delta_y",
                 "heading", "speed")

    def __init__(self, rng: random.Random, speed_factor: float) -> None:
        self.rng = rng
        self.speed_factor = speed_factor
        self.route: List[Edge] = []  # remaining planned edges (trip mode)

    def enter(self, network: RoadNetwork, node_from: int,
              edge: Edge) -> None:
        """Start a leg: along ``edge``, moving away from ``node_from``."""
        start = network.position(node_from)
        end = network.position(edge.other(node_from))
        self.node_from = node_from
        self.edge = edge
        self.offset = 0.0  # meters travelled along the edge
        self.start_x, self.start_y = start.x, start.y
        self.delta_x, self.delta_y = end.x - start.x, end.y - start.y
        self.heading = start.heading_to(end)
        self.speed = edge.road_class.speed_limit * self.speed_factor


class TraceGenerator:
    """Generates a :class:`TraceSet` for a vehicle population."""

    def __init__(self, network: RoadNetwork,
                 config: Optional[MobilityConfig] = None,
                 seed: int = 11) -> None:
        if network.node_count < 2:
            raise ValueError("network too small to drive on")
        self.network = network
        self.config = config or MobilityConfig()
        self.seed = seed
        self._turn_model = SteadyMotionModel(self.config.turn_model_y,
                                             self.config.turn_model_z)

    # ------------------------------------------------------------------
    def generate(self) -> TraceSet:
        """Simulate every vehicle and return the full trace set."""
        traces: Dict[int, Trace] = {}
        for vehicle_id in range(self.config.vehicle_count):
            traces[vehicle_id] = self._simulate_vehicle(vehicle_id)
        return TraceSet(traces, self.config.sample_interval_s)

    # ------------------------------------------------------------------
    def _simulate_vehicle(self, vehicle_id: int) -> Trace:
        # Mixed per-vehicle seed: deterministic across runs and independent
        # of Python hash randomization (unlike seeding with a tuple).
        rng = random.Random(self.seed * 1_000_003 + vehicle_id)
        speed_factor = rng.uniform(self.config.min_speed_factor,
                                   self.config.max_speed_factor)
        node = self._random_node_with_edges(rng)
        edge = rng.choice(list(self.network.edges_at(node)))
        vehicle = _Vehicle(rng, speed_factor)
        vehicle.enter(self.network, node, edge)

        # The per-fix loop runs on locals, reloaded from ``vehicle`` only
        # when it enters a new edge (a few percent of fixes), and fills
        # each column in one call.  Each fix is sampled at ``offset /
        # length`` along the current leg; each step moves ``speed *
        # remaining`` meters, and a step that reaches the far endpoint
        # spends ``distance_left / speed`` seconds and goes on along the
        # next edge with what is left of the interval.
        network = self.network
        next_edge = self._next_edge
        interval = self.config.sample_interval_s
        steps = int(self.config.duration_s / interval)
        times: List[float] = []
        xs: List[float] = []
        ys: List[float] = []
        headings: List[float] = []
        speeds: List[float] = []
        add_time, add_x, add_y = times.append, xs.append, ys.append
        add_heading, add_speed = headings.append, speeds.append

        length = edge.length
        speed, heading = vehicle.speed, vehicle.heading
        start_x, start_y = vehicle.start_x, vehicle.start_y
        delta_x, delta_y = vehicle.delta_x, vehicle.delta_y
        offset = 0.0
        time = 0.0
        fraction = offset / length
        add_time(time)
        add_x(start_x + delta_x * fraction)
        add_y(start_y + delta_y * fraction)
        add_heading(heading)
        add_speed(speed)
        for _ in range(steps):
            remaining = interval
            travel = speed * remaining
            # Bounded crossings guard against pathological zero-progress
            # loops; a vehicle can cross only so many edges an interval.
            crossings = 0
            while travel >= length - offset:
                remaining -= (length - offset) / speed
                arrived_at = vehicle.edge.other(vehicle.node_from)
                vehicle.enter(network, arrived_at,
                              next_edge(vehicle, arrived_at))
                length = vehicle.edge.length
                speed, heading = vehicle.speed, vehicle.heading
                start_x, start_y = vehicle.start_x, vehicle.start_y
                delta_x, delta_y = vehicle.delta_x, vehicle.delta_y
                offset = 0.0
                if remaining <= 0.0:
                    break
                crossings += 1
                if crossings == 1000:
                    raise RuntimeError("vehicle failed to make progress")
                travel = speed * remaining
            else:
                offset += travel
            time += interval
            fraction = offset / length
            add_time(time)
            add_x(start_x + delta_x * fraction)
            add_y(start_y + delta_y * fraction)
            add_heading(heading)
            add_speed(speed)

        trace = Trace(vehicle_id)
        trace.times.fromlist(times)
        trace.xs.fromlist(xs)
        trace.ys.fromlist(ys)
        trace.headings.fromlist(headings)
        trace.speeds.fromlist(speeds)
        return trace

    def _random_node_with_edges(self, rng: random.Random) -> int:
        while True:
            node = rng.randrange(self.network.node_count)
            if self.network.degree(node) > 0:
                return node

    def _next_edge(self, vehicle: _Vehicle, at_node: int) -> Edge:
        if self.config.behaviour == "trip":
            return self._next_trip_edge(vehicle, at_node)
        return self._next_wander_edge(vehicle, at_node)

    def _next_wander_edge(self, vehicle: _Vehicle, at_node: int) -> Edge:
        """Pick the outgoing edge with steady-motion-biased probability."""
        options = [edge for edge in self.network.edges_at(at_node)
                   if edge is not vehicle.edge]
        if not options:
            return vehicle.edge  # dead end: U-turn
        weights: List[float] = []
        for edge in options:
            out_heading = self._edge_heading(edge, at_node)
            deviation = normalize_angle(out_heading - vehicle.heading)
            weights.append(self._turn_model.pdf(deviation))
        total = sum(weights)
        pick = vehicle.rng.random() * total
        for edge, weight in zip(options, weights):
            pick -= weight
            if pick <= 0.0:
                return edge
        return options[-1]

    def _next_trip_edge(self, vehicle: _Vehicle, at_node: int) -> Edge:
        """Follow the planned route, drawing a new destination on arrival."""
        if not vehicle.route:
            route = None
            while not route:
                destination = vehicle.rng.randrange(self.network.node_count)
                if destination == at_node:
                    continue
                route = self.network.shortest_path(at_node, destination)
            vehicle.route = route
        return vehicle.route.pop(0)

    # ------------------------------------------------------------------
    def _edge_heading(self, edge: Edge, from_node: int) -> float:
        start = self.network.position(from_node)
        end = self.network.position(edge.other(from_node))
        return start.heading_to(end)
