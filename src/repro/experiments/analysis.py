"""Workload- and technique-level analysis utilities.

Beyond regenerating the paper's figures, a reproduction should let you
*interrogate* the system: how large are the safe regions a technique
produces, how long do clients actually stay inside them, and how does
the pyramid height trade coverage against bitmap size (the paper's
Proposition 3, stated but never plotted).  These helpers compute those
distributions from a world without modifying it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..engine import Metrics, World
from ..engine.server import AlarmServer
from ..geometry import Point, Rect
from ..index import CellId, Pyramid
from ..protocol.handlers import ServerPolicy
from ..protocol.messages import Request, ServerReply
from ..protocol.transport import InProcessTransport, connect
from ..saferegion import MWPSRComputer, PyramidBitmap
from ..strategies.base import ClientState, ProcessingStrategy
from .report import Table


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-ish summary of a sample of values."""

    count: int
    mean: float
    minimum: float
    p10: float
    median: float
    p90: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "DistributionSummary":
        if not values:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(values)
        n = len(ordered)

        def quantile(fraction: float) -> float:
            return ordered[min(n - 1, int(fraction * n))]

        return cls(count=n, mean=sum(ordered) / n, minimum=ordered[0],
                   p10=quantile(0.10), median=quantile(0.50),
                   p90=quantile(0.90), maximum=ordered[-1])


def _sample_scenarios(world: World, sample_count: int,
                      seed: int) -> List[Tuple[Point, float, Rect]]:
    """Draw (position, heading, cell) triples from the world's traces."""
    rng = random.Random(seed)
    vehicle_ids = world.traces.vehicle_ids()
    scenarios: List[Tuple[Point, float, Rect]] = []
    for _ in range(sample_count):
        trace = world.traces[rng.choice(vehicle_ids)]
        sample = trace[rng.randrange(len(trace))]
        cell = world.grid.cell_rect_of_point(sample.position)
        scenarios.append((sample.position, sample.heading, cell))
    return scenarios


def safe_region_statistics(world: World,
                           computer: Optional[MWPSRComputer] = None,
                           sample_count: int = 200,
                           user_id: Optional[int] = None,
                           seed: int = 5) -> DistributionSummary:
    """Distribution of MWPSR safe-region areas (km^2) over trace samples.

    Positions are drawn from the world's traces (so the distribution
    reflects where subscribers actually are, not uniform space); the
    relevant pending alarm set is evaluated for ``user_id`` (default:
    the sampled vehicle itself).
    """
    if computer is None:
        computer = MWPSRComputer()
    rng = random.Random(seed)
    vehicle_ids = world.traces.vehicle_ids()
    areas: List[float] = []
    for _ in range(sample_count):
        vehicle = rng.choice(vehicle_ids)
        trace = world.traces[vehicle]
        sample = trace[rng.randrange(len(trace))]
        cell = world.grid.cell_rect_of_point(sample.position)
        subscriber = vehicle if user_id is None else user_id
        alarms = world.registry.relevant_intersecting(subscriber, cell)
        result = computer.compute(sample.position, sample.heading, cell,
                                  [a.region for a in alarms
                                   if not a.region.interior_contains_point(
                                       sample.position)])
        areas.append(result.rect.area / 1e6)
    return DistributionSummary.of(areas)


def coverage_size_tradeoff(world: World,
                           heights: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
                           sample_count: int = 60,
                           seed: int = 6) -> Table:
    """Proposition 3 as a table: coverage eta vs bitmap size per height.

    For each pyramid height, averages the coverage and serialized bitmap
    size of the safe region over cells sampled from subscriber
    positions, using the sampled subscriber's relevant alarms.
    """
    scenarios = _sample_scenarios(world, sample_count, seed)
    rng = random.Random(seed + 1)
    vehicle_ids = world.traces.vehicle_ids()
    table = Table("Proposition 3: coverage vs bitmap size",
                  ["height", "avg coverage", "avg bits", "p90 bits"])
    for height in heights:
        coverages: List[float] = []
        bits: List[float] = []
        for position, _, cell in scenarios:
            user = rng.choice(vehicle_ids)
            alarms = world.registry.relevant_intersecting(user, cell)
            pyramid = Pyramid(cell, height=height)
            bitmap = PyramidBitmap.from_obstacles(
                pyramid, [a.region for a in alarms])
            coverages.append(bitmap.coverage())
            bits.append(float(bitmap.bit_length()))
        summary = DistributionSummary.of(bits)
        table.add_row(height, sum(coverages) / len(coverages),
                      summary.mean, summary.p90)
    return table


def residence_statistics(world: World, strategy: ProcessingStrategy,
                         max_vehicles: Optional[int] = None
                         ) -> DistributionSummary:
    """Distribution of safe-region residence times (seconds).

    Replays traces through ``strategy`` and measures, for every client,
    the gaps between consecutive server contacts — how long each shipped
    safe region (or safe period) actually kept its client silent.  The
    contacts are the reports the transport carried, whatever the number
    of them one ``advance`` call sends.
    """
    server = AlarmServer(world.registry, world.grid, Metrics(),
                         sizes=world.sizes)
    transport = connect(server, strategy, _ContactLog).transport
    assert isinstance(transport, _ContactLog)
    contacts = transport.times
    residences: List[float] = []
    vehicle_ids = world.traces.vehicle_ids()
    if max_vehicles is not None:
        vehicle_ids = vehicle_ids[:max_vehicles]
    try:
        for vehicle_id in vehicle_ids:
            trace = world.traces[vehicle_id]
            client = ClientState(vehicle_id)
            del contacts[:]
            index, stop = 0, len(trace)
            while index < stop:
                index = strategy.advance(client, trace, index, stop)
            residences.extend(later - earlier for earlier, later
                              in zip(contacts, contacts[1:]))
    finally:
        server.close()  # detaches the memo from the world's registry
    if not residences:
        # a fully silent run: every region outlived its trace
        residences = [world.duration_s]
    return DistributionSummary.of(residences)


class _ContactLog(InProcessTransport):
    """The reliable in-process transport, noting each report's time."""

    __slots__ = ("times",)

    def __init__(self, server: AlarmServer, policy: ServerPolicy) -> None:
        super().__init__(server, policy)
        self.times: List[float] = []

    def request(self, request: Request, time_s: float) -> ServerReply:
        self.times.append(time_s)
        return super().request(request, time_s)


def workload_profile(world: World) -> Table:
    """Per-cell alarm density profile of a workload.

    For every grid cell, counts the installed alarms of every scope
    interior-overlapping it (the safe-region working set, over all
    subscribers); summarizes the distribution.  This is the quantity the
    techniques' costs actually scale with.  The count is taken from the
    registry's alarms, column by column, not from ``registry.tree``,
    which holds the public alarms only.
    """
    grid = world.grid
    alarms = world.registry.all_alarms()
    counts: List[float] = []
    for col in range(grid.columns):
        column = grid.cell_rect(CellId(col, 0))
        in_column = [alarm.region for alarm in alarms
                     if alarm.region.min_x < column.max_x
                     and column.min_x < alarm.region.max_x]
        for row in range(grid.rows):
            cell = grid.cell_rect(CellId(col, row))
            counts.append(float(sum(
                1 for region in in_column
                if region.min_y < cell.max_y and cell.min_y < region.max_y)))
    summary = DistributionSummary.of(counts)
    table = Table("Workload profile: alarms per grid cell",
                  ["cells", "mean", "p10", "median", "p90", "max"])
    table.add_row(summary.count, summary.mean, summary.p10, summary.median,
                  summary.p90, summary.maximum)
    return table
