"""Road-network graph model.

The evaluation traces of the paper come from vehicles moving on a real
road network (USGS map of Atlanta, ~1000 km^2).  We model the network as
an undirected graph with metric node coordinates and per-edge road
classes that carry realistic speed limits.  The graph is deliberately
self-contained (no networkx dependency): the mobility simulator only
needs adjacency, edge geometry and shortest paths.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..geometry import Point, Rect, fzero
from ..values import slot_init


class RoadClass(Enum):
    """Road categories with their free-flow speeds (meters/second)."""

    HIGHWAY = "highway", 29.1    # ~65 mph
    ARTERIAL = "arterial", 17.9  # ~40 mph
    LOCAL = "local", 11.2        # ~25 mph

    speed_limit: float

    def __new__(cls, value: str, speed_limit: float) -> "RoadClass":
        member = object.__new__(cls)
        member._value_ = value
        member.speed_limit = speed_limit
        return member


@slot_init
@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected road segment between two nodes."""

    node_a: int
    node_b: int
    road_class: RoadClass
    length: float

    @property
    def travel_time(self) -> float:
        """Free-flow traversal time in seconds."""
        return self.length / self.road_class.speed_limit

    def other(self, node: int) -> int:
        """The endpoint opposite to ``node``."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError("node %d is not an endpoint of %r" % (node, self))


class RoadNetwork:
    """An undirected road graph with metric coordinates."""

    def __init__(self) -> None:
        self._positions: List[Point] = []
        self._adjacency: List[List[Edge]] = []
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, position: Point) -> int:
        """Add a node and return its id (ids are dense, starting at 0)."""
        self._positions.append(position)
        self._adjacency.append([])
        return len(self._positions) - 1

    def add_edge(self, node_a: int, node_b: int,
                 road_class: RoadClass) -> Edge:
        """Add an undirected edge; length is the Euclidean node distance."""
        if node_a == node_b:
            raise ValueError("self loops are not roads")
        length = self._positions[node_a].distance_to(self._positions[node_b])
        if fzero(length):
            raise ValueError("zero-length edge between distinct nodes")
        edge = Edge(node_a, node_b, road_class, length)
        self._adjacency[node_a].append(edge)
        self._adjacency[node_b].append(edge)
        self._edge_count += 1
        return edge

    # ------------------------------------------------------------------
    # Topology access
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._positions)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def position(self, node: int) -> Point:
        return self._positions[node]

    def edges_at(self, node: int) -> Sequence[Edge]:
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    def nodes(self) -> Iterator[int]:
        return iter(range(len(self._positions)))

    def edges(self) -> Iterator[Edge]:
        """Each undirected edge exactly once."""
        for node in range(len(self._positions)):
            for edge in self._adjacency[node]:
                if edge.node_a == node:
                    yield edge

    def bounds(self) -> Rect:
        """Bounding rectangle of all node positions."""
        if not self._positions:
            raise ValueError("empty network has no bounds")
        return Rect(min(p.x for p in self._positions),
                    min(p.y for p in self._positions),
                    max(p.x for p in self._positions),
                    max(p.y for p in self._positions))

    def total_length_km(self) -> float:
        """Total road length in kilometers."""
        return sum(edge.length for edge in self.edges()) / 1000.0

    # ------------------------------------------------------------------
    # Algorithms
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True when every node is reachable from node 0."""
        if self.node_count == 0:
            return True
        return len(self._reachable_from(0)) == self.node_count

    def largest_component(self) -> List[int]:
        """Node ids of the largest connected component."""
        remaining = set(range(self.node_count))
        best: List[int] = []
        while remaining:
            seed = next(iter(remaining))
            component = self._reachable_from(seed)
            remaining -= component
            if len(component) > len(best):
                best = sorted(component)
        return best

    def _reachable_from(self, seed: int) -> set:
        seen = {seed}
        frontier = [seed]
        while frontier:
            node = frontier.pop()
            for edge in self._adjacency[node]:
                neighbor = edge.other(node)
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def shortest_path(self, source: int,
                      target: int) -> Optional[List[Edge]]:
        """Fastest path (by free-flow travel time) as a list of edges.

        A* with the straight-line-over-highway-speed heuristic, which is
        admissible because no edge is faster than the highway limit.
        Returns ``None`` when ``target`` is unreachable.
        """
        if source == target:
            return []
        target_pos = self._positions[target]
        max_speed = RoadClass.HIGHWAY.speed_limit

        def heuristic(node: int) -> float:
            return self._positions[node].distance_to(target_pos) / max_speed

        best_cost: Dict[int, float] = {source: 0.0}
        came_from: Dict[int, Edge] = {}
        counter = 0
        frontier: List[Tuple[float, int, int]] = [
            (heuristic(source), counter, source)]
        closed: Set[int] = set()
        while frontier:
            _, _, node = heapq.heappop(frontier)
            if node == target:
                return self._reconstruct(came_from, source, target)
            if node in closed:
                continue
            closed.add(node)
            node_cost = best_cost[node]
            for edge in self._adjacency[node]:
                neighbor = edge.other(node)
                if neighbor in closed:
                    continue
                cost = node_cost + edge.travel_time
                if cost < best_cost.get(neighbor, math.inf):
                    best_cost[neighbor] = cost
                    came_from[neighbor] = edge
                    counter += 1
                    heapq.heappush(frontier,
                                   (cost + heuristic(neighbor), counter,
                                    neighbor))
        return None

    def _reconstruct(self, came_from: Dict[int, Edge], source: int,
                     target: int) -> List[Edge]:
        path: List[Edge] = []
        node = target
        while node != source:
            edge = came_from[node]
            path.append(edge)
            node = edge.other(node)
        path.reverse()
        return path

    def path_length(self, path: Sequence[Edge]) -> float:
        """Total length of a path in meters."""
        return sum(edge.length for edge in path)
