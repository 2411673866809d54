"""Tests for the command-line interface."""

import contextlib
import json
import os
import re
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.engine import Metrics, replay_vehicle_major, run_simulation
from repro.experiments import TINY, build_world, make_mwpsr_strategy
from repro.net import SocketTransport
from repro.protocol.framing import FrameKind, encode_frame, encode_stats
from repro.protocol.transport import ClientSession
from repro.protocol.wire import WireCodec
from repro.telemetry import MetricsRegistry, read_trace, validate_trace

#: Specs with an unknown or malformed parameter, each once per command
#: that resolves a strategy.
MALFORMED_SPECS = ["pbsr:x", "mwpsr:x", "pbsr:0", "pbsr:-1", "mwpsr:0",
                   "gbsr:3", "periodic:9"]


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "bench" in out and "paper" in out
        assert "5a" in out and "6d" in out
        assert "mwpsr" in out


class TestWorld:
    def test_describes_tiny_world(self, capsys):
        assert main(["world", "--workload", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "alarms" in out
        assert "vehicles" in out
        assert "ground truth" in out

    def test_public_override(self, capsys):
        assert main(["world", "--workload", "tiny",
                     "--public", "0.5"]) == 0
        assert "50% public" in capsys.readouterr().out

    def test_clustered_placement(self, capsys):
        assert main(["world", "--workload", "tiny",
                     "--placement", "clustered"]) == 0
        assert "clustered placement" in capsys.readouterr().out


class TestSimulate:
    @pytest.mark.parametrize("spec", ["periodic", "sp", "mwpsr", "mwpsr-nw",
                                      "gbsr", "pbsr:3", "opt"])
    def test_every_strategy_runs_clean(self, spec, capsys):
        exit_code = main(["simulate", "--strategy", spec,
                          "--workload", "tiny"])
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "missed 0" in out

    def test_unknown_strategy_fails(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--strategy", "teleport",
                  "--workload", "tiny"])

    @pytest.mark.parametrize("command", ["simulate", "serve"])
    def test_there_is_no_sanitize_mode(self, command, capsys):
        """The runtime mode is gone; its checks hold always or in tests."""
        with pytest.raises(SystemExit) as failure:
            main([command, "--strategy", "periodic", "--workload", "tiny",
                  "--sanitize"])
        assert failure.value.code == 2
        assert "unrecognized arguments: --sanitize" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["simulate"], ["simulate", "--workers", "2"],
        # The socket directory does not exist: a spec that slipped
        # through fails on bind instead of serving forever.
        ["serve", "--uds", os.path.join("missing", "alarm.sock")]],
        ids=["serial", "workers2", "serve"])
    @pytest.mark.parametrize("spec", MALFORMED_SPECS)
    def test_malformed_strategy_spec_fails(self, spec, command, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as failure:
            main(command + ["--strategy", spec, "--workload", "tiny"])
        assert "invalid strategy %r" % spec in str(failure.value)

    @pytest.mark.parametrize("flags", [
        ["--uplink-drop", "1.5"], ["--uplink-drop", "1"],
        ["--uplink-drop", "-0.1"], ["--downlink-drop", "-0.1"],
        ["--downlink-drop", "1"], ["--workers", "0"], ["--workers", "-2"],
        ["--cell", "0"], ["--cell", "-1"], ["--public", "1.5"],
        ["--public", "-0.5"], ["--public", "nan"]],
        ids=lambda flags: " ".join(flags))
    def test_out_of_range_argument_is_a_usage_error(self, flags, capsys,
                                                    monkeypatch):
        """Checked by the parser, before any world is built."""
        def no_world(*args):
            raise AssertionError("built a world for a bad argument")
        monkeypatch.setattr("repro.cli.build_world", no_world)
        with pytest.raises(SystemExit) as failure:
            main(["simulate", "--strategy", "mwpsr", "--workload", "tiny"]
                 + flags)
        assert failure.value.code == 2
        assert "argument %s:" % flags[0] in capsys.readouterr().err

    def test_cell_size_option(self, capsys):
        assert main(["simulate", "--strategy", "mwpsr",
                     "--workload", "tiny", "--cell", "0.5"]) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_profile_prints_the_stage_histograms(self, workers, capsys):
        """``--profile`` reads the run's registry: no trace file, the
        four server stages with a count each and a time."""
        assert main(["simulate", "--strategy", "mwpsr", "--workload",
                     "tiny", "--workers", str(workers), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "trace:" not in out
        stages = json.loads(out[out.index("\n{") + 1:])
        assert {"trigger_eval_cost_us", "saferegion_compute_cost_us",
                "index_lookup_cost_us", "downlink_sizing_cost_us"} \
            <= set(stages)
        assert all(name.endswith("_cost_us") for name in stages)
        for stage in stages.values():
            assert stage["calls"] > 0 and stage["wall_s"] > 0
        # One uplink, one safe region, one lookup, one rectangle each.
        uplinks = int(out.split("uplink messages:")[1].split()[0])
        assert {stage["calls"] for stage in stages.values()} == {uplinks}
        # Stages nest: the whole report contains the safe region in it,
        # which contains its index lookup.
        assert stages["report_cost_us"]["wall_s"] \
            > stages["saferegion_compute_cost_us"]["wall_s"] \
            > stages["index_lookup_cost_us"]["wall_s"]


class TestFigure:
    def test_figure_1b(self, capsys):
        assert main(["figure", "1b"]) == 0
        assert "steady-motion pdf" in capsys.readouterr().out

    def test_figure_6a_tiny(self, capsys):
        assert main(["figure", "6a", "--workload", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "MWPSR" in out and "OPT" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "9z"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    #: A serve whose count slipped through would fail to bind to the
    #: missing directory rather than serve forever.
    SERVE = ["serve", "--strategy", "mwpsr", "--uds", "missing/alarm.sock"]

    @pytest.mark.parametrize("flags", [
        SERVE + ["--batch", "0"], SERVE + ["--batch", "-3"],
        ["profile", "--samples", "0"], ["profile", "--samples", "-5"]],
        ids=lambda flags: " ".join([flags[0]] + flags[-2:]))
    def test_a_count_below_one_is_a_usage_error(self, flags, capsys,
                                                tmp_path, monkeypatch):
        """Checked by the parser, before any world is built."""
        def no_world(*args):
            raise AssertionError("built a world for a bad count")
        monkeypatch.setattr("repro.cli.build_world", no_world)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as failure:
            main(flags + ["--workload", "tiny"])
        assert failure.value.code == 2
        assert "argument %s:" % flags[-2] in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [
        ["stats", "--uds", "x.sock", "--timeout", "-1"],
        ["stats", "--uds", "x.sock", "--timeout", "inf"],
        ["top", "--uds", "x.sock", "--timeout", "-1"],
        ["top", "--uds", "x.sock", "--interval", "-1"],
        ["top", "--uds", "x.sock", "--interval", "0"],
        ["top", "--uds", "x.sock", "--interval", "inf"],
        ["top", "--uds", "x.sock", "--iterations", "0"],
        ["trace", "tail", "run.jsonl", "--limit", "-3"]],
        ids=lambda flags: " ".join([flags[0]] + flags[-2:]))
    def test_a_bad_read_side_value_is_a_usage_error(self, flags, capsys,
                                                    monkeypatch):
        """Checked by the parser, before any daemon or trace is read."""
        def no_read(*args, **kwargs):
            raise AssertionError("read past a bad value")
        monkeypatch.setattr("repro.cli.scrape_stats", no_read)
        monkeypatch.setattr("repro.cli.read_trace", no_read)
        with pytest.raises(SystemExit) as failure:
            main(flags)
        assert failure.value.code == 2
        assert "argument %s:" % flags[-2] in capsys.readouterr().err


class TestProfile:
    def test_profile_runs(self, capsys):
        assert main(["profile", "--workload", "tiny", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "Workload profile" in out
        assert "safe-region area" in out
        assert "Proposition 3" in out


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One traced two-shard tiny run, shared by the telemetry CLI tests."""
    path = tmp_path_factory.mktemp("traces") / "run.jsonl"
    assert main(["simulate", "--strategy", "mwpsr", "--workload", "tiny",
                 "--workers", "2", "--trace", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def lossy_trace_path(tmp_path_factory):
    """A traced two-shard tiny run over a lossy link."""
    path = tmp_path_factory.mktemp("traces") / "lossy.jsonl"
    assert main(["simulate", "--strategy", "pbsr", "--workload", "tiny",
                 "--workers", "2", "--uplink-drop", "0.1",
                 "--downlink-drop", "0.1", "--trace", str(path)]) == 0
    return path


@pytest.fixture
def registry_parses(monkeypatch):
    """The list of ``MetricsRegistry.from_dict`` calls from now on."""
    calls = []
    parse = MetricsRegistry.from_dict.__func__

    def counted(cls, payload):
        calls.append(len(payload))
        return parse(cls, payload)

    monkeypatch.setattr(MetricsRegistry, "from_dict", classmethod(counted))
    return calls


class TestSimulateTrace:
    def test_trace_file_is_valid(self, trace_path, capsys):
        data = read_trace(trace_path)
        assert validate_trace(data) == []
        assert data.manifest is not None
        assert data.manifest.strategy == "mwpsr"
        assert data.manifest.workers == 2
        assert {r["shard"] for r in data.events} == {0, 1}

    def test_manifest_carries_seeds_and_extras(self, trace_path):
        manifest = read_trace(trace_path).manifest
        assert manifest.seeds  # the workload config is seeded
        assert "sizes" in manifest.extras
        assert "energy" in manifest.extras


#: What a trace measures on the host: event fields and summary keys.
WALL_TIME_FIELDS = frozenset({"cost_us", "elapsed_us", "wall_s"})
WALL_TIME_SUMMARY = frozenset({"wall_time_s", "registry"})


def _seeded_part(path):
    """A trace without its wall-time fields; the registry compared
    through its deterministic snapshot."""
    data = read_trace(path)
    events = [{key: value for key, value in record.items()
               if key not in WALL_TIME_FIELDS} for record in data.events]
    summary = {key: value for key, value in data.summary.items()
               if key not in WALL_TIME_SUMMARY}
    return (path.read_text().splitlines()[0], events, summary,
            data.ledger.registry.deterministic_snapshot())


class TestTraceDeterminism:
    def test_two_traced_runs_differ_only_in_wall_time(self, tmp_path):
        paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        for path in paths:
            assert main(["simulate", "--strategy", "pbsr", "--workload",
                         "tiny", "--workers", "2", "--trace",
                         str(path)]) == 0
        first, second = (_seeded_part(path) for path in paths)
        assert first == second
        # every field dropped is there to drop
        events = read_trace(paths[0]).events
        assert all(any(field in record for record in events)
                   for field in WALL_TIME_FIELDS)


class TestReport:
    def test_text_report_reconciles(self, trace_path, capsys):
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "reconciliation vs Metrics totals: OK" in out
        assert "strategy:     mwpsr" in out

    def test_json_report(self, trace_path, capsys):
        assert main(["report", str(trace_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reconciliation"]["ok"] is True
        assert payload["manifest"]["workers"] == 2

    def test_prom_report(self, trace_path, capsys):
        assert main(["report", str(trace_path),
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_uplink_messages counter" in out
        assert 'repro_run_info{strategy="mwpsr"' in out

    @pytest.mark.parametrize("fmt", ["text", "json", "prom"])
    def test_report_parses_the_ledger_once(self, lossy_trace_path, fmt,
                                           registry_parses, capsys):
        assert main(["report", str(lossy_trace_path),
                     "--format", fmt]) == 0
        assert len(registry_parses) == 1

    def test_text_report_shows_the_engine_counters(self, lossy_trace_path,
                                                   capsys):
        assert main(["report", str(lossy_trace_path)]) == 0
        out = capsys.readouterr().out
        metrics = read_trace(lossy_trace_path).summary["metrics"]
        for name in ("uplink_messages", "downlink_bytes", "uplink_drops"):
            assert re.search(r"^  %s +%d$" % (name, metrics[name]), out,
                             re.MULTILINE), name
        assert metrics["uplink_drops"] > 0

    def test_broken_trace_exits_nonzero(self, trace_path, tmp_path,
                                        capsys):
        # Drop one event record: reconciliation must fail loudly.
        lines = trace_path.read_text().splitlines()
        dropped = next(i for i, line in enumerate(lines)
                       if '"type":"location_report"' in line)
        broken = tmp_path / "broken.jsonl"
        broken.write_text(
            "\n".join(lines[:dropped] + lines[dropped + 1:]) + "\n")
        assert main(["report", str(broken)]) == 1
        assert "FAILED" in capsys.readouterr().out

    @staticmethod
    def _with_gauge(trace_path, tmp_path):
        """The trace, its summary holding a ``gauge`` instrument as a
        trace recorded before that kind was retired does."""
        lines = trace_path.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["registry"]["shard_vehicles_peak"] = {
            "kind": "gauge", "deterministic": False, "value": 6.0}
        path = tmp_path / "gauge.jsonl"
        path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        return path, "unknown instrument kind 'gauge'"

    @staticmethod
    def _registry_not_an_object(trace_path, tmp_path):
        lines = trace_path.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["registry"] = "off"
        path = tmp_path / "registry.jsonl"
        path.write_text("\n".join(lines[:-1] + [json.dumps(summary)]) + "\n")
        return path, "payload section 'registry' is not an object"

    @staticmethod
    def _corrupt(trace_path, tmp_path):
        lines = trace_path.read_text().splitlines()
        path = tmp_path / "corrupt.jsonl"
        path.write_text("\n".join(lines[:3] + ['{"record": "ev'] + lines[3:])
                        + "\n")
        return path, "corrupt.jsonl:4: corrupt trace line"

    @staticmethod
    def _missing(trace_path, tmp_path):
        return tmp_path / "missing.jsonl", "No such file or directory"

    @pytest.mark.parametrize("command", [["report"], ["trace", "validate"],
                                         ["trace", "tail"]],
                             ids=["report", "validate", "tail"])
    @pytest.mark.parametrize("case", ["_missing", "_corrupt", "_with_gauge",
                                      "_registry_not_an_object"])
    def test_unreadable_trace_exits_2_with_one_line(self, trace_path,
                                                     tmp_path, capsys,
                                                     command, case):
        """Exit 1 means "read, did not reconcile"; a trace that cannot
        be read at all exits 2, with one stderr line naming the file
        and the reason, and no traceback."""
        path, reason = getattr(self, case)(trace_path, tmp_path)
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro: cannot read trace %s: "
                                       % path)
        assert reason in captured.err


class TestStatsAndTop:
    @pytest.fixture
    def served(self, tmp_path):
        from repro.net import DaemonThread
        from tests.net.conftest import make_daemon

        path = str(tmp_path / "daemon.sock")
        daemon = make_daemon()
        with DaemonThread(daemon, path=path):
            yield path

    def test_stats_text_scrape(self, served, capsys):
        assert main(["stats", "--uds", served]) == 0
        out = capsys.readouterr().out
        assert "daemon stats" in out
        assert "connections open" in out

    def test_stats_json_scrape(self, served, capsys):
        assert main(["stats", "--uds", served, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serving"]["protocol_version"] == 2
        assert "scrape_rtt_us" in payload

    def test_stats_prom_scrape(self, served, capsys):
        assert main(["stats", "--uds", served, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_live_connections_open gauge" in out

    def test_stats_needs_an_endpoint(self):
        with pytest.raises(SystemExit):
            main(["stats"])

    def test_top_bounded_iterations(self, served, capsys):
        assert main(["top", "--uds", served, "--interval", "0.01",
                     "--iterations", "2", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro top") == 2

    def test_a_top_screen_parses_its_snapshot_once(self, served,
                                                   registry_parses,
                                                   monkeypatch, capsys):
        """Once per scrape, when it is read; drawing it parses nothing."""
        from repro.net import render_top
        parsed_while_drawing = []

        def draw(*args):
            before = len(registry_parses)
            screen = render_top(*args)
            parsed_while_drawing.append(len(registry_parses) - before)
            return screen

        monkeypatch.setattr("repro.cli.render_top", draw)
        assert main(["top", "--uds", served, "--interval", "0.01",
                     "--iterations", "3", "--no-clear"]) == 0
        assert parsed_while_drawing == [0, 0, 0]
        assert len(registry_parses) == 3

    @staticmethod
    @contextlib.contextmanager
    def _answering(path, payload):
        """A Unix socket at ``path`` that answers one scrape with a STATS
        frame carrying ``payload``."""
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def answer():
            served, _ = listener.accept()
            with served:
                served.settimeout(10.0)
                served.recv(1 << 16)  # HELLO + STATS
                served.sendall(encode_frame(FrameKind.STATS,
                                            encode_stats(payload)))
                while served.recv(1 << 16):
                    pass  # until the scraper hangs up

        server = threading.Thread(target=answer)
        server.start()
        try:
            yield
        finally:
            server.join(timeout=10.0)
            listener.close()
        assert not server.is_alive()

    @pytest.mark.parametrize("command", [["stats"], ["top", "--no-clear"]],
                             ids=["stats", "top"])
    @pytest.mark.parametrize("payload, reason", [
        (None, "No such file or directory"),
        ({"metrics": {}, "registry": "off", "live": {}, "serving": {}},
         "malformed STATS snapshot: payload section 'registry' is not "
         "an object"),
        ({"metrics": {}, "live": {}, "serving": {},
          "registry": {"shard_vehicles_peak": {
              "kind": "gauge", "deterministic": False, "value": 6.0}}},
         "unknown instrument kind 'gauge'")],
        ids=["absent", "registry-not-an-object", "unknown-kind"])
    def test_unreadable_daemon_exits_2_with_one_line(self, tmp_path, capsys,
                                                      command, payload,
                                                      reason):
        """Like an unreadable trace: exit 2, one stderr line naming the
        endpoint and the reason, no traceback."""
        path = str(tmp_path / "daemon.sock")
        answering = (contextlib.nullcontext() if payload is None
                     else self._answering(path, payload))
        with answering:
            assert main(command + ["--uds", path, "--timeout", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro: cannot scrape %s: " % path)
        assert reason in captured.err


class TestServe:
    def test_serve_charges_what_the_in_process_run_does(self, tmp_path,
                                                        capsys):
        """``repro serve`` as a command: a stop-and-wait replay of TINY
        over its socket is charged what the in-process run is."""
        path = str(tmp_path / "alarm.sock")
        exit_codes = []
        daemon = threading.Thread(target=lambda: exit_codes.append(main(
            ["serve", "--strategy", "mwpsr", "--workload", "tiny",
             "--uds", path])), daemon=True)
        daemon.start()
        deadline = time.monotonic() + 60.0
        while not os.path.exists(path):
            assert daemon.is_alive() and time.monotonic() < deadline
            time.sleep(0.01)
        world = build_world(TINY)
        strategy = make_mwpsr_strategy()
        with SocketTransport.connect_unix(
                path, WireCodec.from_sizes(world.sizes)) as transport:
            strategy.attach(ClientSession(transport, Metrics(), world.grid))
            replay_vehicle_major(strategy, world.traces)
            transport.send_shutdown()
        daemon.join(timeout=60.0)
        assert exit_codes == [0]

        served = re.search(r"served (\d+) uplink messages "
                           r"\((\d+) bytes up, (\d+) down\)",
                           capsys.readouterr().out)
        expected = run_simulation(world, make_mwpsr_strategy()).metrics
        assert tuple(map(int, served.groups())) == (
            expected.uplink_messages, expected.uplink_bytes,
            expected.downlink_bytes)


class TestTrace:
    def test_tail_defaults_to_last_events(self, trace_path, capsys):
        assert main(["trace", "tail", str(trace_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10  # default tail limit

    def test_filter_by_type_and_user(self, trace_path, capsys):
        assert main(["trace", "filter", str(trace_path),
                     "--type", "alarm_fired", "--limit", "5"]) == 0
        out = capsys.readouterr().out.strip()
        assert out
        assert all("alarm_fired" in line for line in out.splitlines())

    def test_filter_by_shard(self, trace_path, capsys):
        assert main(["trace", "filter", str(trace_path),
                     "--shard", "1", "--limit", "3"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert "shard=1" in line

    def test_validate_clean_trace(self, trace_path, capsys):
        assert main(["trace", "validate", str(trace_path)]) == 0
        assert "0 problems" in capsys.readouterr().out

    def test_validate_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record":"event","type":"nope","t":0,'
                       '"shard":0}\n')
        assert main(["trace", "validate", str(bad)]) == 1

    def test_unknown_type_rejected(self, trace_path):
        with pytest.raises(SystemExit):
            main(["trace", "filter", str(trace_path),
                  "--type", "teleported"])
