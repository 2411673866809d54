"""Round-trip tests for trace persistence."""


import pytest

from repro.geometry import Point
from repro.mobility import (MobilityConfig, Trace, TraceGenerator,
                            TraceSample, TraceSet, load_traces, save_traces)
from repro.roadnet import NetworkConfig, generate_network


@pytest.fixture(scope="module")
def traces():
    network = generate_network(NetworkConfig(universe_side_m=2000.0,
                                             lattice_spacing_m=400.0),
                               seed=1)
    return TraceGenerator(network,
                          MobilityConfig(vehicle_count=4, duration_s=30.0),
                          seed=2).generate()


def columns(trace):
    """A trace's five columns as raw bytes: equal means bit-equal."""
    return [column.tobytes()
            for column in (trace.times, trace.xs, trace.ys, trace.headings,
                           trace.speeds)]


class TestRoundTrip:
    def test_plain_file(self, traces, tmp_path):
        path = tmp_path / "traces.csv"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert loaded.sample_interval == traces.sample_interval
        assert loaded.vehicle_ids() == traces.vehicle_ids()
        for vid in traces.vehicle_ids():
            assert columns(loaded[vid]) == columns(traces[vid])

    def test_gzip_file(self, traces, tmp_path):
        path = tmp_path / "traces.csv.gz"
        save_traces(traces, path)
        # really gzip on disk
        with open(path, "rb") as stream:
            assert stream.read(2) == b"\x1f\x8b"
        loaded = load_traces(path)
        assert loaded.total_samples == traces.total_samples

    def test_exact_float_precision(self, tmp_path):
        """repr-based serialization round-trips floats bit-exactly."""
        sample = TraceSample(0.1, Point(1.0 / 3.0, 2.0 / 7.0), 0.12345678901,
                             9.87654321)
        traces = TraceSet({0: Trace(0, [sample])}, sample_interval=0.5)
        path = tmp_path / "t.csv"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert loaded[0][0] == sample

    def test_accumulated_times_survive(self, tmp_path):
        """A non-integral interval: the generator's ``time += interval``
        drifts from ``step * interval``, and the file keeps the drift."""
        network = generate_network(NetworkConfig(universe_side_m=2000.0,
                                                 lattice_spacing_m=400.0),
                                   seed=1)
        config = MobilityConfig(vehicle_count=3, duration_s=20.0,
                                sample_interval_s=0.1)
        traces = TraceGenerator(network, config, seed=4).generate()
        times = traces[0].times
        assert len(times) == 201
        assert any(time != step * 0.1 for step, time in enumerate(times))
        path = tmp_path / "t.csv.gz"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert loaded.sample_interval == 0.1
        for vid in traces.vehicle_ids():
            assert columns(loaded[vid]) == columns(traces[vid])


class TestValidation:
    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("vehicle,stuff\n1,2\n")
        with pytest.raises(ValueError):
            load_traces(path)

    def test_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("#repro-traces v1 interval=1.0\nwrong,cols\n")
        with pytest.raises(ValueError):
            load_traces(path)

    def test_rejects_short_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("#repro-traces v1 interval=1.0\n"
                        "vehicle_id,time,x,y,heading,speed\n"
                        "0,0.0,1.0\n")
        with pytest.raises(ValueError):
            load_traces(path)

    def test_rejects_out_of_order_samples(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("#repro-traces v1 interval=1.0\n"
                        "vehicle_id,time,x,y,heading,speed\n"
                        "0,1.0,1.0,1.0,0.0,1.0\n"
                        "0,0.5,2.0,2.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="line 4"):
            load_traces(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("#repro-traces v1 interval=1.0\n"
                        "vehicle_id,time,x,y,heading,speed\n"
                        "0,0.0,1.0,1.0,0.0,1.0\n\n"
                        "0,1.0,2.0,2.0,0.0,1.0\n")
        loaded = load_traces(path)
        assert len(loaded[0]) == 2


class TestReplayEquivalence:
    def test_ground_truth_identical_after_reload(self, traces, tmp_path):
        """A persisted trace drives simulations identically."""
        from repro.alarms import AlarmRegistry, AlarmScope
        from repro.engine import compute_ground_truth
        from repro.geometry import Rect

        registry = AlarmRegistry()
        anchor = traces[0][10].position
        registry.install(Rect.from_center(anchor, 200, 200),
                         AlarmScope.PUBLIC, 0)
        path = tmp_path / "t.csv"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert compute_ground_truth(registry, loaded) == \
            compute_ground_truth(registry, traces)
