"""Tests for the command-line interface."""

import contextlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cli import main
from repro.engine import Metrics, replay_vehicle_major
from repro.experiments import TINY, build_world, make_mwpsr_strategy
from repro.net import SocketTransport
from repro.protocol.framing import FrameKind, encode_frame, encode_stats
from repro.protocol.transport import ClientSession
from repro.protocol.wire import WireCodec
from repro.telemetry import MetricsRegistry, read_trace, validate_trace

from .budget import examples

#: Specs with an unknown or malformed parameter, each once per command
#: that resolves a strategy.
MALFORMED_SPECS = ["pbsr:x", "mwpsr:x", "pbsr:0", "pbsr:-1", "mwpsr:0",
                   "gbsr:3", "periodic:9"]

#: ``simulate --verify-wire`` runs as (strategy, workers, lossy link):
#: PBSR up to h=7, whose downlinks pass the u16 length and are escaped;
#: PRD, every fix through the x-slab point query; GBSR, a whole unsafe
#: run per advance call up to the quick-update re-ship; MWPSR's bounded
#: enumeration under the steady and the uniform model; sharded runs
#: with per-shard memos; lossy links retried, a whole window per
#: advance call.  Tier-1 runs the first.
WIRE_VERIFIED_RUNS = [
    pytest.param(spec, workers, lossy, id="%s-%s-%s" % (
        spec, "serial" if workers == 1 else "%d-shards" % workers,
        "lossy" if lossy else "clean"))
    for spec, workers, lossy in [
        ("mwpsr", 2, False), ("pbsr", 1, False), ("pbsr", 2, False),
        ("pbsr:7", 1, False), ("periodic", 1, False),
        ("periodic", 2, False), ("periodic", 1, True), ("gbsr", 1, False),
        ("gbsr", 1, True), ("mwpsr", 1, False), ("mwpsr", 1, True),
        ("mwpsr-nw", 1, False)]]


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

    @pytest.mark.parametrize(
        "spec, workers, lossy",
        WIRE_VERIFIED_RUNS[:examples(1, len(WIRE_VERIFIED_RUNS))])
    def test_wire_verified_run(self, spec, workers, lossy, capsys):
        """Every charged size equals the bytes the codec encodes (a
        drift raises), and every trigger is delivered on time."""
        argv = ["simulate", "--strategy", spec, "--workload", "tiny",
                "--workers", str(workers), "--verify-wire"]
        if lossy:
            argv += ["--uplink-drop", "0.1", "--downlink-drop", "0.1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(missed 0, spurious 0, late 0)" in out
        assert ("transport drops:" in out) == lossy

    def test_cell_size_option(self, capsys):
        assert main(["simulate", "--strategy", "mwpsr",
                     "--workload", "tiny", "--cell", "0.5"]) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_profile_prints_the_stage_histograms(self, workers, capsys):
        """``--profile`` reads the run's registry: no trace file, the
        four server stages with a count each and a time, and the
        ``server time:`` line split from the same ledger."""
        assert main(["simulate", "--strategy", "mwpsr", "--workload",
                     "tiny", "--workers", str(workers), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "trace:" not in out
        assert ("workers:              2 shards" in out) == (workers == 2)
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
        # Split as in Figs. 4(b)/6(d): alarm processing, index lookup,
        # safe region without its lookup (ms, printed to 0.1).
        line = next(row for row in out.splitlines()
                    if row.startswith("server time:"))
        printed = [float(word) for word in line.split()
                   if word.replace(".", "", 1).isdigit()]
        wall_ms = {name: 1000 * stage["wall_s"]
                   for name, stage in stages.items()}
        expected = [wall_ms["trigger_eval_cost_us"],
                    wall_ms["index_lookup_cost_us"],
                    wall_ms["saferegion_compute_cost_us"]
                    - wall_ms["index_lookup_cost_us"]]
        assert len(printed) == 3, line
        for shown, exact in zip(printed, expected):
            assert abs(shown - exact) <= 0.05 + 1e-9, (line, expected)


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

    def test_text_report_shows_the_engine_counters(self, trace_path,
                                                   lossy_trace_path,
                                                   capsys):
        for path in (trace_path, lossy_trace_path):
            assert main(["report", str(path)]) == 0
            out = capsys.readouterr().out
            metrics = read_trace(path).summary["metrics"]
            for name in ("uplink_messages", "downlink_bytes",
                         "uplink_drops"):
                assert re.search(r"^  %s +%d$" % (name, metrics[name]), out,
                                 re.MULTILINE), (path.name, name)
        assert metrics["uplink_drops"] > 0  # the lossy trace, read last

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
    def _version_1(trace_path, tmp_path):
        """The trace, its manifest at schema version 1, as a trace
        recorded before each span was one record reads."""
        lines = trace_path.read_text().splitlines()
        manifest = json.loads(lines[0])
        manifest["version"] = 1
        path = tmp_path / "version1.jsonl"
        path.write_text("\n".join([json.dumps(manifest)] + lines[1:]) + "\n")
        return path, "trace schema version 1;"

    @staticmethod
    def _missing(trace_path, tmp_path):
        return tmp_path / "missing.jsonl", "No such file or directory"

    @pytest.mark.parametrize("command", [["report"], ["trace", "validate"],
                                         ["trace", "tail"]],
                             ids=["report", "validate", "tail"])
    @pytest.mark.parametrize("case", ["_missing", "_corrupt", "_with_gauge",
                                      "_registry_not_an_object",
                                      "_version_1"])
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


def _validated_json_report(path, capsys):
    """``repro report --format json`` of a trace ``trace validate``
    passes."""
    assert main(["trace", "validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["report", str(path), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestTelemetrySmoke:
    """A traced two-shard run and a lossy one each validate and
    reconcile, row by row."""

    def test_two_shard_report_reconciles(self, trace_path, capsys):
        payload = _validated_json_report(trace_path, capsys)
        assert payload["reconciliation"]["ok"], payload["reconciliation"]
        assert payload["manifest"]["strategy"] == "mwpsr"
        assert payload["manifest"]["workers"] == 2
        checks = payload["reconciliation"]["checks"]
        # 14 rows, each two of {events, registry, Metrics}; none sets a
        # registry counter against the Metrics field of the same name.
        assert len(checks) == 14, [entry["name"] for entry in checks]
        assert all(entry["ok"] for entry in checks), checks
        assert not set(payload["metrics"]) & set(payload["registry"])

    def test_lossy_report_reconciles(self, lossy_trace_path, capsys):
        payload = _validated_json_report(lossy_trace_path, capsys)
        checks = payload["reconciliation"]["checks"]
        assert len(checks) == 14, [entry["name"] for entry in checks]
        assert payload["reconciliation"]["ok"], checks
        rows = {entry["name"]: entry["actual"] for entry in checks}
        # Both drop directions and the lossy_request spans of both
        # shards reach the report, and they reconcile.
        drops = [name for name in rows
                 if name.startswith("events.transport_drop[")]
        assert len(drops) == 2
        assert all(rows[name] > 0 for name in drops), rows
        assert payload["event_counts"]["span"] > 0
        shards = {record["shard"]
                  for record in read_trace(lossy_trace_path).events
                  if record["type"] == "span"}
        assert shards == {0, 1}, shards


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


#: The directory that holds the ``repro`` package, for child processes.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The serving stages a daemon times whenever its telemetry is on.
SERVING_STAGES = ("decode_cost_us", "handle_cost_us", "reply_encode_cost_us")


def _finish(child, timeout):
    """The child's output once it has exited, killed after ``timeout``."""
    try:
        return child.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        child.kill()
        return child.communicate()[0]


def _connect(child, path, codec):
    """A transport to the Unix socket ``child`` serves, once it listens."""
    deadline = time.monotonic() + 60.0
    while True:
        try:
            return SocketTransport.connect_unix(path, codec)
        except OSError:  # not bound yet, or bound and not yet listening
            assert child.poll() is None, child.stdout.read()
            assert time.monotonic() < deadline, "no listener in 60 s"
            time.sleep(0.02)


class TestServe:
    """``repro serve`` as a command, in a child process: MWPSR over TINY
    on a Unix socket, ``--verify-wire``, replayed stop-and-wait,
    scraped and stopped over the wire."""

    @staticmethod
    def _serve_tiny(tmp_path, capsys, *flags):
        """The ``served`` line's three counts and the json, prom and text
        scrapes taken after the replay; the child has exited 0 and
        removed its socket file."""
        path = str(tmp_path / "alarm.sock")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--strategy", "mwpsr",
             "--workload", "tiny", "--uds", path, "--verify-wire", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=dict(os.environ, PYTHONPATH=SRC))
        stopped = False
        try:
            world = build_world(TINY)
            strategy = make_mwpsr_strategy()
            with _connect(child, path,
                          WireCodec.from_sizes(world.sizes)) as transport:
                strategy.attach(ClientSession(transport, Metrics(),
                                              world.grid))
                replay_vehicle_major(strategy, world.traces)
            scrapes = {}
            for fmt in ("json", "prom", "text"):
                assert main(["stats", "--uds", path, "--format", fmt]) == 0
                scrapes[fmt] = capsys.readouterr().out
            with SocketTransport.connect_unix(path) as transport:
                transport.send_shutdown()
            stopped = True
        finally:
            out = _finish(child, 60.0 if stopped else 0.0)
        assert child.returncode == 0, out
        assert not os.path.exists(path), "the socket file outlived serve"
        served = re.search(r"served (\d+) uplink messages "
                           r"\((\d+) bytes up, (\d+) down\)", out)
        assert served, out
        return (tuple(map(int, served.groups())), json.loads(scrapes["json"]),
                scrapes["prom"], scrapes["text"])

    def test_serve_charges_what_the_in_process_run_does(self, tmp_path,
                                                        capsys):
        """The framed path charges exactly what the in-process path
        does; the live scrape and the daemon's own trace witnessed the
        same traffic, and that trace validates and reconciles."""
        trace = tmp_path / "serve.jsonl"
        served, scrape, prom, text = self._serve_tiny(
            tmp_path, capsys, "--trace", str(trace))
        serve = _validated_json_report(trace, capsys)
        in_process = tmp_path / "simulate.jsonl"
        assert main(["simulate", "--strategy", "mwpsr", "--workload",
                     "tiny", "--trace", str(in_process)]) == 0
        capsys.readouterr()
        sim = _validated_json_report(in_process, capsys)

        assert serve["reconciliation"]["ok"], serve["reconciliation"]
        for key in ("uplink_messages", "uplink_bytes", "downlink_messages",
                    "downlink_bytes"):
            assert serve["metrics"][key] == sim["metrics"][key], key
        assert served == (sim["metrics"]["uplink_messages"],
                          sim["metrics"]["uplink_bytes"],
                          sim["metrics"]["downlink_bytes"])
        assert scrape["metrics"] == serve["metrics"]
        registry = serve["registry"]
        assert registry["net_connections_opened"]["value"] \
            == registry["net_connections_closed"]["value"]
        assert scrape["serving"]["protocol_version"] == 2
        assert set(scrape["live"]) == {"connections_open"}
        assert "queue_limit" not in scrape["serving"]
        for stage in SERVING_STAGES:
            assert scrape["registry"][stage]["count"] == served[0], stage

        # Rendered from the snapshot's metrics section: the registry
        # keeps no copy of a Metrics count.
        assert "# TYPE repro_uplink_messages counter" in prom
        assert "uplink_messages" not in scrape["registry"]
        assert ("repro_uplink_messages %d\n"
                % scrape["metrics"]["uplink_messages"]) in prom
        # The daemon carries the per-stage split.
        assert ("repro_trigger_eval_cost_us_count %d\n"
                % scrape["metrics"]["alarm_evaluations"]) in prom
        assert "# TYPE repro_live_connections_open gauge" in prom
        assert "daemon stats" in text

        assert main(["report", str(trace)]) == 0
        assert re.search(r"^  uplink_messages +[0-9]+$",
                         capsys.readouterr().out, re.MULTILINE)

    def test_untraced_serve_times_its_serving_stages(self, tmp_path,
                                                     capsys):
        """Without ``--trace`` the daemon runs metrics-only: its scrape
        carries each serving stage, one observation per uplink."""
        served, scrape, _, _ = self._serve_tiny(tmp_path, capsys)
        assert served[0] == scrape["metrics"]["uplink_messages"] > 0
        for stage in SERVING_STAGES:
            assert scrape["registry"][stage]["count"] == served[0], stage


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
