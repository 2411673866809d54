"""repro — safe region-based distributed processing of spatial alarms.

A from-scratch reproduction of Bamba, Liu, Iyengar and Yu, "Distributed
Processing of Spatial Alarms: A Safe Region-based Approach" (ICDCS 2009):
the MWPSR / GBSR / PBSR safe-region techniques, the periodic, safe-period
and optimal baselines, and every substrate they run on — an R*-tree alarm
index, grid and pyramid decompositions, a synthetic road network with a
vehicle mobility simulator, and a trace-driven client-server simulation
with message, bandwidth, energy and server-load accounting.

Quickstart::

    from repro import (AlarmRegistry, AlarmScope, GridOverlay,
                       MWPSRComputer, Point, Rect)

    registry = AlarmRegistry()
    registry.install(Rect(500, 500, 700, 700), AlarmScope.PRIVATE,
                     owner_id=1)
    grid = GridOverlay(Rect(0, 0, 2000, 2000), cell_area_km2=4.0)
    me = Point(1000.0, 1000.0)
    cell = grid.cell_rect_of_point(me)
    alarms = registry.relevant_intersecting(1, cell)
    region = MWPSRComputer().compute(me, heading=0.0, cell=cell,
                                     obstacles=[a.region for a in alarms])
    print(region.rect)  # monitor yourself against this; report on exit

See ``examples/`` for full scenarios and ``benchmarks/`` for the
reproduction of every figure in the paper's evaluation.
"""

from .alarms import (AlarmRegistry, AlarmScope, SpatialAlarm,
                     install_random_alarms)
from .engine import (AccuracyReport, AlarmServer, EnergyModel, MessageSizes,
                     Metrics, SimulationResult, TriggerEvent, World,
                     compute_ground_truth, run_simulation, verify_accuracy)
from .geometry import Point, Rect, RectilinearRegion
from .index import GridOverlay, Pyramid, PyramidCell, RStarTree
from .mobility import (MobilityConfig, SteadyMotionModel, Trace,
                       TraceGenerator, TraceSample, TraceSet,
                       UniformMotionModel)
from .roadnet import NetworkConfig, RoadClass, RoadNetwork, generate_network
from .saferegion import (MWPSRComputer, PBSRComputer, PyramidBitmap,
                         decode_bitstring)
from .strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                         PeriodicStrategy, RectangularSafeRegionStrategy,
                         SafePeriodStrategy)

__version__ = "1.0.0"

__all__ = [
    "AccuracyReport",
    "AlarmRegistry",
    "AlarmScope",
    "AlarmServer",
    "BitmapSafeRegionStrategy",
    "EnergyModel",
    "GridOverlay",
    "MessageSizes",
    "Metrics",
    "MobilityConfig",
    "MWPSRComputer",
    "NetworkConfig",
    "OptimalStrategy",
    "PBSRComputer",
    "PeriodicStrategy",
    "Point",
    "Pyramid",
    "PyramidBitmap",
    "PyramidCell",
    "RStarTree",
    "Rect",
    "RectangularSafeRegionStrategy",
    "RectilinearRegion",
    "RoadClass",
    "RoadNetwork",
    "SafePeriodStrategy",
    "SimulationResult",
    "SpatialAlarm",
    "SteadyMotionModel",
    "Trace",
    "TraceGenerator",
    "TraceSample",
    "TraceSet",
    "TriggerEvent",
    "UniformMotionModel",
    "World",
    "compute_ground_truth",
    "decode_bitstring",
    "generate_network",
    "install_random_alarms",
    "run_simulation",
    "verify_accuracy",
]
