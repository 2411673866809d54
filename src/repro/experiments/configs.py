"""Experiment configurations and world construction.

Three scale presets:

* ``TINY``   — seconds-fast; unit/integration tests.
* ``BENCH``  — the benchmark default.  Smaller than the paper's setup but
  with the *same per-user alarm density per grid cell* (the quantity the
  strategies actually respond to): the paper runs 10,000 public-capable
  alarms over ~1000 km^2 (1 public alarm per km^2 at the 10% default); we
  run 1,000 alarms over 100 km^2 — identical density — with 120 vehicles
  for 10 simulated minutes.
* ``PAPER``  — the paper's full scale (10,000 vehicles, one hour,
  10,000 alarms, ~1000 km^2): 36.01M location fixes, 61,660 expected
  triggers.  Measured serial on 2 vCPUs with a tenth of the vehicles
  (1,000 for one hour, 3.6M fixes): traces generate in ~3.1 s (0.85 us
  a fix), the alarms install in ~0.2 s (also with all 10,000 users)
  and the ground truth sweeps in ~2.2 s.  Scaled by ten, the full world
  builds in ~31 s and its ground truth sweeps in ~22 s.  The replay
  times, MWPSR ~72 s and PBSR(h=5) ~76 s at a peak RSS of ~1.5 GB, come
  from an earlier full-scale run and were not re-measured.

Worlds are memoized per (config, cell size): the expensive parts — map,
traces, alarm installation and the ground-truth trigger scan — are built
once per config and shared across grid-cell sweeps and strategy runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..alarms import (AlarmRegistry, install_clustered_alarms,
                      install_random_alarms)
from ..engine import World
from ..index import GridOverlay
from ..mobility import MobilityConfig, TraceGenerator
from ..roadnet import NetworkConfig, generate_network

DEFAULT_CELL_AREA_KM2 = 2.5  # the paper's measured optimum (Fig. 4(b))


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything that defines one experiment workload."""

    universe_side_m: float = 10000.0
    lattice_spacing_m: float = 500.0
    vehicle_count: int = 120
    duration_s: float = 600.0
    sample_interval_s: float = 1.0
    alarm_count: int = 1000
    public_fraction: float = 0.10
    private_to_shared_ratio: float = 2.0
    alarm_min_side_m: float = 50.0
    alarm_max_side_m: float = 250.0
    alarm_placement: str = "uniform"   # or "clustered" (POI hotspots)
    map_seed: int = 7
    trace_seed: int = 11
    alarm_seed: int = 23

    def __post_init__(self) -> None:
        if self.alarm_placement not in ("uniform", "clustered"):
            raise ValueError(
                "alarm_placement must be 'uniform' or 'clustered'")

    def with_public_fraction(self, fraction: float) -> "WorkloadConfig":
        """Copy with a different percentage of public alarms (Figs. 5-6)."""
        return replace(self, public_fraction=fraction)


TINY = WorkloadConfig(universe_side_m=4000.0, lattice_spacing_m=400.0,
                      vehicle_count=15, duration_s=240.0, alarm_count=200,
                      public_fraction=0.20, alarm_min_side_m=150.0,
                      alarm_max_side_m=500.0)

BENCH = WorkloadConfig()

PAPER = WorkloadConfig(universe_side_m=31623.0, lattice_spacing_m=800.0,
                       vehicle_count=10000, duration_s=3600.0,
                       alarm_count=10000)


# ----------------------------------------------------------------------
# World construction (memoized)
# ----------------------------------------------------------------------
_BASE_CACHE: Dict[WorkloadConfig, Tuple] = {}
_WORLD_CACHE: Dict[Tuple[WorkloadConfig, float], World] = {}


def _build_base(config: WorkloadConfig) -> Tuple:
    """Map, traces and alarm registry for a config (built once)."""
    cached = _BASE_CACHE.get(config)
    if cached is not None:
        return cached

    network_config = NetworkConfig(universe_side_m=config.universe_side_m,
                                   lattice_spacing_m=config.lattice_spacing_m)
    network = generate_network(network_config, seed=config.map_seed)
    mobility = MobilityConfig(vehicle_count=config.vehicle_count,
                              duration_s=config.duration_s,
                              sample_interval_s=config.sample_interval_s)
    traces = TraceGenerator(network, mobility,
                            seed=config.trace_seed).generate()

    registry = AlarmRegistry()
    universe = network_config.universe
    installer = (install_clustered_alarms
                 if config.alarm_placement == "clustered"
                 else install_random_alarms)
    installer(registry, universe, config.alarm_count,
              user_ids=traces.vehicle_ids(),
              public_fraction=config.public_fraction,
              private_to_shared_ratio=config.private_to_shared_ratio,
              min_side_m=config.alarm_min_side_m,
              max_side_m=config.alarm_max_side_m,
              seed=config.alarm_seed)

    base = (universe, registry, traces)
    _BASE_CACHE[config] = base
    return base


def build_world(config: WorkloadConfig,
                cell_area_km2: float = DEFAULT_CELL_AREA_KM2) -> World:
    """A ready-to-simulate :class:`World` for the config and grid size.

    Worlds for the same config share their registry, traces and ground
    truth across different grid-cell sizes (the ground truth does not
    depend on the grid).
    """
    key = (config, cell_area_km2)
    world = _WORLD_CACHE.get(key)
    if world is not None:
        return world

    universe, registry, traces = _build_base(config)
    # Grid cells cannot exceed the universe.
    max_area = universe.area / 1e6
    grid = GridOverlay(universe, min(cell_area_km2, max_area))
    world = World(universe=universe, grid=grid, registry=registry,
                  traces=traces,
                  ground_truth_supplier=lambda: _ground_truth_for(config))
    _WORLD_CACHE[key] = world
    return world


_GT_CACHE: Dict[WorkloadConfig, Dict] = {}


def _ground_truth_for(config: WorkloadConfig) -> Dict:
    """Grid-independent ground truth, memoized per config."""
    from ..engine import compute_ground_truth

    cached = _GT_CACHE.get(config)
    if cached is None:
        universe, registry, traces = _build_base(config)
        cached = compute_ground_truth(registry, traces)
        _GT_CACHE[config] = cached
    return cached


def clear_caches() -> None:
    """Drop memoized worlds (tests use this to control memory)."""
    _BASE_CACHE.clear()
    _WORLD_CACHE.clear()
    _GT_CACHE.clear()


def scaled_cell_sizes(config: WorkloadConfig) -> Tuple[float, ...]:
    """The paper's Fig. 4 cell-size sweep, clipped to the universe.

    The paper sweeps {0.4, 0.625, 1.11, 2.5, 10} km^2; for universes
    smaller than the paper's the upper sizes are kept as long as they fit.
    """
    universe_km2 = (config.universe_side_m ** 2) / 1e6
    return tuple(size for size in (0.4, 0.625, 1.11, 2.5, 10.0)
                 if size <= universe_km2)
