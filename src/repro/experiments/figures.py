"""One harness function per paper figure (the experiment index of DESIGN.md).

Every function reproduces the rows/series of one figure from the paper's
Section 5 and returns a :class:`~repro.experiments.report.Table`; the
benchmark suite runs them and prints the tables.  Absolute magnitudes
differ from the paper (different hardware, different map, scaled
workload — see EXPERIMENTS.md), but each function's docstring states the
qualitative shape that must hold.

Every run goes through :func:`timed_run`, a metrics-only telemetry
capture: counts come from the run's ``Metrics``, and the server-time
columns of Figs. 4(b) and 6(d) from its registry's stage histograms
(:class:`~repro.experiments.report.ServerTime`) — the one ledger of
server time, which no other reader re-derives.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from ..engine import SimulationResult, World, run_simulation
from ..mobility import (MotionModel, SteadyMotionModel,
                        UniformMotionModel)
from ..saferegion import MWPSRComputer, PBSRComputer
from ..strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                          PeriodicStrategy, ProcessingStrategy,
                          RectangularSafeRegionStrategy,
                          SafePeriodStrategy)
from ..telemetry import Telemetry
from .configs import (DEFAULT_CELL_AREA_KM2, BENCH, WorkloadConfig,
                      build_world, scaled_cell_sizes)
from .report import ServerTime, Table

PUBLIC_SWEEP = (0.01, 0.10, 0.20)

#: The pyramid height of the PBSR column in Fig. 6.
FIG6_PBSR_HEIGHT = 5


# ----------------------------------------------------------------------
# Strategy factories
# ----------------------------------------------------------------------
def make_mwpsr_strategy(y: float = 1.0, z: int = 32,
                        weighted: bool = True
                        ) -> RectangularSafeRegionStrategy:
    """The rectangular strategy in any of its Fig. 4 variants.

    The name keys ``_RESULT_CACHE``, so it names every argument that
    changes the computer.
    """
    model: MotionModel
    if weighted:
        model = SteadyMotionModel(y=y, z=z)
        name = "MWPSR(y=%g,z=%d)" % (y, z)
    else:
        model = UniformMotionModel()
        name = "MPSR(non-weighted)"
    computer = MWPSRComputer(model=model)
    return RectangularSafeRegionStrategy(computer, name=name)


def make_pbsr_strategy(height: int = 5) -> BitmapSafeRegionStrategy:
    """The bitmap strategy at a pyramid height (height 1 == GBSR)."""
    name = "GBSR" if height == 1 else "PBSR(h=%d)" % height
    return BitmapSafeRegionStrategy(PBSRComputer(height=height), name=name)


def timed_run(world: World, strategy: ProcessingStrategy
              ) -> Tuple[SimulationResult, ServerTime]:
    """Run under a metrics-only capture: the result and its server time.

    The capture feeds the registry's stage histograms, the one ledger of
    server time, and builds no event record.
    """
    telemetry = Telemetry.metrics_only()
    result = run_simulation(world, strategy, telemetry=telemetry)
    return result, ServerTime.of(telemetry.registry)


#: Memoized simulation runs.  Strategies are deterministic and fully
#: described by their name, so one (workload, grid, strategy) run serves
#: every figure that needs it — Fig. 5(a) and 5(b) share one height
#: sweep, Fig. 6(a)-(d) share one strategy sweep.
_RESULT_CACHE: Dict[Tuple[WorkloadConfig, float, str],
                    Tuple[SimulationResult, ServerTime]] = {}

#: What a figure runs: a strategy, or the SP class, which is made with
#: the world's speed bound only if its run is not in the result cache.
FigureStrategy = Union[ProcessingStrategy, Type[SafePeriodStrategy]]


class _Runs:
    """One config's runs within one figure.

    A run comes from the result cache, or runs on the config's world.
    The world is built on the first run the cache misses, and other
    cell sizes regrid it: a cell sweep builds its world, and sweeps the
    ground truth, once.
    """

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self._worlds: Dict[float, World] = {}

    def _world(self, cell_area_km2: float) -> World:
        world = self._worlds.get(cell_area_km2)
        if world is None:
            world = (next(iter(self._worlds.values())).regrid(cell_area_km2)
                     if self._worlds
                     else build_world(self.config, cell_area_km2))
            self._worlds[cell_area_km2] = world
        return world

    def timed(self, strategy: FigureStrategy,
              cell_area_km2: float = DEFAULT_CELL_AREA_KM2
              ) -> Tuple[SimulationResult, ServerTime]:
        key = (self.config, cell_area_km2, strategy.name)
        run = _RESULT_CACHE.get(key)
        if run is None:
            world = self._world(cell_area_km2)
            if isinstance(strategy, type):  # SP, made on its world
                strategy = strategy(max_speed=world.max_speed())
            run = _RESULT_CACHE[key] = timed_run(world, strategy)
        return run

    def run(self, strategy: FigureStrategy,
            cell_area_km2: float = DEFAULT_CELL_AREA_KM2
            ) -> SimulationResult:
        return self.timed(strategy, cell_area_km2)[0]


# ----------------------------------------------------------------------
# Fig. 1(b): the steady-motion density
# ----------------------------------------------------------------------
def figure1b(y: float = 1.0, zs: Sequence[int] = (2, 4, 8),
             steps: int = 9) -> Table:
    """p(phi) for y=1 and several z.

    Shape: every curve is symmetric, flat for |phi| <= pi/z, decreasing
    beyond, always above zero, and integrates to 1.
    """
    table = Table("Fig 1(b): steady-motion pdf p(phi), y=%g" % y,
                  ["phi/pi"] + ["z=%d" % z for z in zs])
    models = [SteadyMotionModel(y=y, z=z) for z in zs]
    for index in range(-steps, steps + 1):
        phi = math.pi * index / steps
        table.add_row("%.2f" % (index / steps),
                      *["%.4f" % model.pdf(phi) for model in models])
    return table


# ----------------------------------------------------------------------
# Fig. 4(a): messages vs grid cell size, rectangular variants
# ----------------------------------------------------------------------
def figure4a(config: WorkloadConfig = BENCH,
             cell_sizes: Optional[Sequence[float]] = None,
             zs: Sequence[int] = (4, 16, 32)) -> Table:
    """Client-to-server messages vs cell size, non-weighted vs weighted.

    Shape: message counts fall as cells grow; every weighted variant is
    at most the non-weighted count; all variants keep the uplink fraction
    under a few percent of total location fixes.
    """
    if cell_sizes is None:
        cell_sizes = scaled_cell_sizes(config)
    headers = (["cell km^2", "non-weighted"]
               + ["y=1,z=%d" % z for z in zs] + ["fix fraction"])
    table = Table("Fig 4(a): client-to-server messages (rectangular)",
                  headers)
    runs = _Runs(config)
    for size in cell_sizes:
        row: List[float] = [size]
        results = [runs.run(make_mwpsr_strategy(weighted=False), size)]
        for z in zs:
            results.append(runs.run(make_mwpsr_strategy(z=z), size))
        row.extend(result.metrics.uplink_messages for result in results)
        row.append(max(result.message_fraction for result in results))
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# Fig. 4(b): server processing time vs grid cell size
# ----------------------------------------------------------------------
def figure4b(config: WorkloadConfig = BENCH,
             cell_sizes: Optional[Sequence[float]] = None,
             z: int = 32) -> Table:
    """Server time split vs cell size for the weighted approach.

    Shape: alarm-processing time falls with cell size (fewer location
    reports), safe-region time rises (more alarms per cell), the total is
    minimized at an interior cell size.  Every column is a
    :class:`~repro.experiments.report.ServerTime` field: the per-uplink
    R*-tree lookup a safe region starts from is its own column.
    """
    if cell_sizes is None:
        cell_sizes = scaled_cell_sizes(config)
    table = Table("Fig 4(b): server processing time, MWPSR y=1 z=%d" % z,
                  ["cell km^2", "alarm proc (s)", "index lookup (s)",
                   "safe region (s)", "total (s)"])
    runs = _Runs(config)
    for size in cell_sizes:
        _, server = runs.timed(make_mwpsr_strategy(z=z), size)
        table.add_row(size, *server, server.total_s)
    return table


# ----------------------------------------------------------------------
# Fig. 5(a)/(b): BSR sweep over pyramid height and public-alarm share
# ----------------------------------------------------------------------
def figure5a(config: WorkloadConfig = BENCH,
             heights: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
             publics: Sequence[float] = PUBLIC_SWEEP) -> Table:
    """Client-to-server messages vs pyramid height.

    Shape: GBSR (h=1) sends by far the most messages; counts drop
    sharply as the pyramid grows; higher public-alarm shares shift every
    curve upward.
    """
    table = Table("Fig 5(a): client-to-server messages (BSR)",
                  ["height"] + ["%d%% public" % round(100 * p)
                                for p in publics])
    runs = [_Runs(config.with_public_fraction(public)) for public in publics]
    for height in heights:
        row = [height]
        for public_runs in runs:
            result = public_runs.run(make_pbsr_strategy(height))
            row.append(result.metrics.uplink_messages)
        table.add_row(*row)
    return table


def figure5b(config: WorkloadConfig = BENCH,
             heights: Sequence[int] = (1, 2, 3, 4, 5, 6, 7),
             publics: Sequence[float] = PUBLIC_SWEEP) -> Table:
    """Client energy (mWh) vs pyramid height.

    Shape: energy grows with pyramid height (deeper probes per fix) and
    with the public-alarm share; the low-density curve stays nearly flat.
    """
    table = Table("Fig 5(b): client energy mWh (BSR)",
                  ["height"] + ["%d%% public" % round(100 * p)
                                for p in publics])
    runs = [_Runs(config.with_public_fraction(public)) for public in publics]
    for height in heights:
        row: List[float] = [height]
        for public_runs in runs:
            result = public_runs.run(make_pbsr_strategy(height))
            row.append(result.client_energy_mwh)
        table.add_row(*row)
    return table


# ----------------------------------------------------------------------
# Fig. 6: safe region vs the other approaches
# ----------------------------------------------------------------------
def _fig6_strategies() -> List[FigureStrategy]:
    return [
        make_mwpsr_strategy(z=32),
        make_pbsr_strategy(FIG6_PBSR_HEIGHT),
        SafePeriodStrategy,
        OptimalStrategy(),
    ]


def figure6a(config: WorkloadConfig = BENCH,
             publics: Sequence[float] = PUBLIC_SWEEP) -> Table:
    """Client-to-server messages: MWPSR, PBSR(h=5), SP, OPT.

    Shape: OPT sends the fewest messages; SP sends a small multiple
    (roughly 2-3x) of the safe-region approaches; PRD (reported in the
    last column for reference, off-chart in the paper) sends every fix.
    """
    table = Table("Fig 6(a): client-to-server messages by approach",
                  ["% public", "MWPSR", "PBSR", "SP", "OPT",
                   "PRD (off-chart)"])
    for public in publics:
        runs = _Runs(config.with_public_fraction(public))
        row = [round(100 * public)]
        for strategy in _fig6_strategies():
            row.append(runs.run(strategy).metrics.uplink_messages)
        row.append(runs.run(PeriodicStrategy()).metrics.uplink_messages)
        table.add_row(*row)
    return table


def figure6b(config: WorkloadConfig = BENCH,
             publics: Sequence[float] = PUBLIC_SWEEP) -> Table:
    """Downstream bandwidth (Mbps): MWPSR, PBSR(h=5), OPT.

    Shape: the safe-region approaches consume far less downstream
    bandwidth than OPT's alarm pushes; PBSR(h=5) is best or near-best at
    every public-alarm share.  (SP's downlink is excluded, as in the
    paper.)
    """
    table = Table("Fig 6(b): downstream bandwidth (Mbps)",
                  ["% public", "MWPSR", "PBSR", "OPT"])
    for public in publics:
        runs = _Runs(config.with_public_fraction(public))
        row: List[float] = [round(100 * public)]
        for strategy in (make_mwpsr_strategy(z=32), make_pbsr_strategy(5),
                         OptimalStrategy()):
            row.append(runs.run(strategy).downstream_bandwidth_mbps)
        table.add_row(*row)
    return table


def figure6c(config: WorkloadConfig = BENCH,
             publics: Sequence[float] = PUBLIC_SWEEP) -> Table:
    """Client energy (mWh): MWPSR, PBSR(h=5), OPT.

    Shape: OPT costs significantly more client energy than the
    safe-region approaches, and the gap widens with alarm density.
    """
    table = Table("Fig 6(c): client energy (mWh)",
                  ["% public", "MWPSR", "PBSR", "OPT"])
    for public in publics:
        runs = _Runs(config.with_public_fraction(public))
        row: List[float] = [round(100 * public)]
        for strategy in (make_mwpsr_strategy(z=32), make_pbsr_strategy(5),
                         OptimalStrategy()):
            row.append(runs.run(strategy).client_energy_mwh)
        table.add_row(*row)
    return table


def figure6d(config: WorkloadConfig = BENCH,
             publics: Sequence[float] = (0.01, 0.10)) -> Table:
    """Server processing time split: PRD, MWPSR, PBSR, SP, OPT.

    Shape: PRD's alarm-processing time towers over everything; the
    safe-region approaches have the lowest totals, with the safe-region
    computation share growing with the public-alarm percentage; SP sits
    between PRD and the safe-region approaches.  The columns are
    :class:`~repro.experiments.report.ServerTime`'s, as in Fig. 4(b).
    """
    table = Table("Fig 6(d): server processing time (s)",
                  ["% public", "approach", "alarm proc", "index lookup",
                   "safe region", "total"])
    for public in publics:
        runs = _Runs(config.with_public_fraction(public))
        for strategy in [PeriodicStrategy()] + _fig6_strategies():
            _, server = runs.timed(strategy)
            table.add_row(round(100 * public), strategy.name, *server,
                          server.total_s)
    return table
