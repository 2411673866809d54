"""Robustness: degraded position streams.

Real GPS streams stall, jump and stutter.  The safe-region approaches'
correctness argument needs *no* speed assumption (a probe failing at any
fix triggers a report), so they must stay exact under teleports; the
safe-period approach's guarantee is explicitly conditioned on the speed
bound, and these tests document both sides of that line.
"""


import pytest

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import World, run_simulation
from repro.geometry import Point, Rect
from repro.index import GridOverlay
from repro.mobility import Trace, TraceSample, TraceSet
from repro.saferegion import MWPSRComputer, PBSRComputer
from repro.strategies import (BitmapSafeRegionStrategy, OptimalStrategy,
                              RectangularSafeRegionStrategy,
                              SafePeriodStrategy)

UNIVERSE = Rect(0, 0, 3000, 3000)


def world_from_positions(positions, alarms):
    samples = [TraceSample(float(k), p, 0.0, 15.0)
               for k, p in enumerate(positions)]
    registry = AlarmRegistry()
    for region in alarms:
        registry.install(region, AlarmScope.PUBLIC, 9)
    return World(universe=UNIVERSE,
                 grid=GridOverlay(UNIVERSE, cell_area_km2=1.0),
                 registry=registry,
                 traces=TraceSet({0: Trace(0, samples)},
                                 sample_interval=1.0))


def teleporting_positions():
    """A stream that jumps across the map mid-run (GPS glitch/recovery)."""
    positions = [Point(100.0 + 10.0 * k, 1500.0) for k in range(30)]
    positions += [Point(2500.0, 400.0 + 10.0 * k) for k in range(30)]
    positions += [Point(200.0, 2700.0 - 10.0 * k) for k in range(30)]
    return positions


ALARMS = [Rect(300, 1400, 420, 1600),    # on the first leg
          Rect(2400, 600, 2600, 720),    # on the post-teleport leg
          Rect(100, 2300, 280, 2450)]    # on the final leg


class TestTeleportingClients:
    def test_safe_region_strategies_stay_exact(self):
        world = world_from_positions(teleporting_positions(), ALARMS)
        assert len(world.ground_truth()) == 3
        for strategy in (
                RectangularSafeRegionStrategy(MWPSRComputer(),
                                              name="MWPSR"),
                BitmapSafeRegionStrategy(PBSRComputer(height=3),
                                         name="PBSR"),
                OptimalStrategy()):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect, (
                "%s under teleports: %r" % (strategy.name, result.accuracy))

    def test_safe_period_guarantee_is_speed_conditional(self):
        """With a bound below the teleport speed SP may miss; with the
        realized maximum speed (which includes the jump) it may not."""
        world = world_from_positions(teleporting_positions(), ALARMS)
        # realized per-interval displacement includes the ~2600 m jump
        samples = list(world.traces[0])
        max_jump = max(a.position.distance_to(b.position)
                       for a, b in zip(samples, samples[1:]))
        sound = run_simulation(world, SafePeriodStrategy(max_speed=max_jump))
        assert sound.accuracy.perfect

    def test_stalled_client_is_silent_and_correct(self):
        """A parked client inside its safe region never contacts the
        server after the initial fix."""
        positions = [Point(1500.0, 1500.0)] * 60
        world = world_from_positions(positions, ALARMS)
        result = run_simulation(
            world, RectangularSafeRegionStrategy(MWPSRComputer()))
        assert result.metrics.uplink_messages == 1
        assert result.accuracy.perfect

    def test_boundary_hugging_client(self):
        """Crawling exactly along an alarm's edge never triggers it
        (interior semantics) and never breaks any strategy."""
        edge_y = 1400.0  # the first alarm's lower edge
        positions = [Point(290.0 + 5.0 * k, edge_y) for k in range(40)]
        world = world_from_positions(positions, [ALARMS[0]])
        assert world.ground_truth() == {}
        for strategy in (
                RectangularSafeRegionStrategy(MWPSRComputer(),
                                              name="MWPSR"),
                BitmapSafeRegionStrategy(PBSRComputer(height=3),
                                         name="PBSR"),
                OptimalStrategy()):
            result = run_simulation(world, strategy)
            assert result.accuracy.perfect

    def test_duplicate_timestamps_rejected_by_traceset_io(self, tmp_path):
        """The dataset layer refuses ambiguous (non-advancing) streams."""
        from repro.mobility import load_traces
        path = tmp_path / "t.csv"
        path.write_text("#repro-traces v1 interval=1.0\n"
                        "vehicle_id,time,x,y,heading,speed\n"
                        "0,1.0,1.0,1.0,0.0,1.0\n"
                        "0,1.0,2.0,2.0,0.0,1.0\n")
        with pytest.raises(ValueError):
            load_traces(path)
