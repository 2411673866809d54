"""The columnar trace layout: small, view-free in the engines, picklable.

A trace is five ``array('d')`` columns (40 bytes a fix); a
:class:`TraceSample` exists only while somebody is looking at one.  The
guards here keep a later change from quietly re-materialising samples —
the paper's 10,000 vehicles x 3,600 s would then need gigabytes before
an alarm is installed.
"""

import gc
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.engine import (AlarmSchedule, run_dynamic_simulation,
                          run_simulation)
from repro.experiments import TINY, build_world, make_mwpsr_strategy
from repro.geometry import Point
from repro.mobility import Trace, TraceSample, TraceSet

COLUMNS = ("times", "xs", "ys", "headings", "speeds")


def column_bytes(trace):
    return [getattr(trace, name).tobytes() for name in COLUMNS]


@pytest.fixture(scope="module")
def world():
    return build_world(TINY)


class TestViews:
    SAMPLES = [TraceSample(0.0, Point(1.0, 2.0), 0.5, 9.0),
               TraceSample(1.0, Point(3.0, 4.0), 0.25, 8.0)]

    def test_samples_in_samples_out(self):
        trace = Trace(7, self.SAMPLES)
        assert len(trace) == 2
        assert list(trace) == self.SAMPLES
        assert [trace[0], trace[1]] == self.SAMPLES
        assert trace[-1] == self.SAMPLES[-1]
        with pytest.raises(IndexError):
            trace[2]

    def test_columns_and_rows(self):
        trace = Trace(7, self.SAMPLES)
        assert list(trace.xs) == [1.0, 3.0]
        assert list(trace.rows()) == [(0.0, 1.0, 2.0, 0.5, 9.0),
                                      (1.0, 3.0, 4.0, 0.25, 8.0)]
        trace.append(2.0, 5.0, 6.0, 0.0, 7.0)
        assert trace[2] == TraceSample(2.0, Point(5.0, 6.0), 0.0, 7.0)
        assert trace.duration == 2.0
        assert trace.max_speed() == 9.0


class TestMemory:
    def test_at_most_48_bytes_a_fix(self, world):
        held = sum(column.itemsize * len(column)
                   for trace in world.traces
                   for column in (getattr(trace, name) for name in COLUMNS))
        assert held <= 48 * world.traces.total_samples

    def test_the_engines_build_no_sample(self):
        """Neither the generator, nor either loop, nor the ground truth
        behind the scoring leaves a ``TraceSample`` alive."""
        def alive():
            gc.collect()
            return {id(thing) for thing in gc.get_objects()
                    if isinstance(thing, TraceSample)}

        before = alive()
        world = build_world(TINY)
        static = run_simulation(world, make_mwpsr_strategy())
        mutating = run_dynamic_simulation(world, make_mwpsr_strategy(),
                                          AlarmSchedule([]))
        assert static.accuracy.perfect and mutating.accuracy.perfect
        assert not alive() - before


class TestPickle:
    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_every_protocol(self, world, protocol):
        trace = next(iter(world.traces))
        copy = pickle.loads(pickle.dumps(trace, protocol))
        assert copy.vehicle_id == trace.vehicle_id
        assert column_bytes(copy) == column_bytes(trace)

    def test_through_a_spawned_worker(self, world):
        """What a shard pays on a platform without ``fork``: the trace
        set pickled to a fresh interpreter and back."""
        traces = TraceSet({trace.vehicle_id: trace
                           for trace in list(world.traces)[:3]},
                          world.traces.sample_interval)
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            echoed = pickle.loads(pool.submit(pickle.dumps, traces)
                                  .result(timeout=60))
        assert echoed.sample_interval == traces.sample_interval
        assert echoed.vehicle_ids() == traces.vehicle_ids()
        for trace in traces:
            assert (column_bytes(echoed[trace.vehicle_id])
                    == column_bytes(trace))
