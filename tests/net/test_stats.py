"""The STATS operator channel and its renderers.

A running daemon answers :data:`FrameKind.STATS` with a canonical JSON
snapshot; ``repro stats``/``repro top`` scrape and render it.  The
tests pin the three contracts the channel advertises: snapshots of an
idle daemon are byte-identical, the Prometheus rendering of a scraped
registry is byte-equal to the trace exporter's rendering of the same
registry, and the channel obeys the framed protocol's handshake rules.
"""

import json
import socket
import threading
import time

import pytest

from repro.net import (DaemonThread, SocketTransport, StatsSnapshot,
                       render_stats_json, render_stats_prom,
                       render_stats_text, render_top, scrape_stats)
from repro.protocol.framing import (PROTOCOL_VERSION, FrameDecoder,
                                    FrameKind, decode_error, encode_frame,
                                    encode_stats)
from repro.protocol.transport import TransportError
from repro.telemetry import (Ledger, Telemetry, TelemetryError,
                             render_ledger_prom)
from repro.telemetry.metrics import Histogram, MetricsRegistry

from .conftest import make_daemon, make_report


def _drive_traffic(sock_path, telemetry, requests=3):
    """Start a daemon, push ``requests`` uplinks, return the live host.

    The caller owns the returned context: the daemon keeps serving so
    STATS can be scraped afterwards.  The traffic transport is closed
    and the registry polled until its close is charged, so the
    registry is quiescent when the caller reads it.
    """
    daemon = make_daemon(telemetry=telemetry)
    hosted = DaemonThread(daemon, path=sock_path).start()
    transport = SocketTransport.connect_unix(sock_path, daemon.codec,
                                             telemetry=telemetry)
    for sequence in range(requests):
        transport.request(make_report(sequence=sequence), float(sequence))
    transport.close()
    closed = telemetry.registry.counter("net_connections_closed")
    deadline = time.monotonic() + 10.0
    while closed.value < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert closed.value == 1
    return daemon, hosted


class TestStatsChannel:
    def test_idle_snapshots_are_byte_identical(self, sock_path):
        telemetry = Telemetry.capture()
        daemon, hosted = _drive_traffic(sock_path, telemetry)
        closed = telemetry.registry.counter("net_connections_closed")
        try:
            first = scrape_stats(path=sock_path)
            # Let the daemon retire the first scraper's connection so
            # the second scrape sees the same idle state.
            deadline = time.monotonic() + 10.0
            while closed.value < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert closed.value == 2
            second = scrape_stats(path=sock_path)
        finally:
            hosted.stop()
        # The scrape itself perturbs the connection counters (every
        # scrape is one open+close), so strip the registry section —
        # everything else of an idle daemon must encode byte-identically.
        for snapshot in (first, second):
            snapshot.raw.pop("registry")
        assert encode_stats(first.raw) == encode_stats(second.raw)

    def test_snapshot_sections(self, sock_path):
        telemetry = Telemetry.capture()
        daemon, hosted = _drive_traffic(sock_path, telemetry, requests=5)
        try:
            snapshot = scrape_stats(path=sock_path)
        finally:
            hosted.stop()
        assert snapshot.ledger.counters["uplink_messages"] == 5
        assert snapshot.protocol_version == PROTOCOL_VERSION
        assert snapshot.batch_max == daemon.batch_max
        # The scraper's own connection is live at snapshot time.
        assert snapshot.raw["live"] == {"connections_open": 1}
        assert snapshot.connections_open == 1
        assert snapshot.scrape_rtt_us > 0
        # The scraped sections round-trip the daemon's own: the counts
        # as Metrics holds them, the registry with its stage histograms
        # fed once per unit of the work Metrics counted.
        assert snapshot.ledger.counters == daemon.server.metrics.counters()
        scraped = snapshot.ledger.registry
        assert "uplink_messages" not in scraped.names()
        assert scraped.histogram("report_cost_us").count == 5
        assert scraped.histogram("trigger_eval_cost_us").count \
            == snapshot.ledger.counters["alarm_evaluations"] == 5

    def test_stats_without_telemetry_still_serves(self, sock_path):
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            snapshot = scrape_stats(path=sock_path)
        assert snapshot.raw["registry"] == {}
        assert len(snapshot.ledger.registry) == 0
        assert snapshot.protocol_version == PROTOCOL_VERSION

    def test_stats_before_hello_gets_an_error_frame(self, sock_path):
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.settimeout(10.0)
            client.connect(sock_path)
            try:
                client.sendall(encode_frame(FrameKind.STATS, b""))
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    chunk = client.recv(1 << 16)
                    assert chunk, "server closed without an ERROR frame"
                    frames.extend(decoder.feed(chunk))
            finally:
                client.close()
        assert frames[0].kind is FrameKind.ERROR
        assert "HELLO" in decode_error(frames[0].payload)

    def test_bytes_after_the_snapshot_are_refused(self, sock_path):
        """A clean scrape ends with the STATS frame.  A server that
        writes the first bytes of another frame after it, in the same
        write, is refused."""
        snapshot = encode_frame(FrameKind.STATS, encode_stats({}))
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock_path)
        listener.listen(1)

        def answer_then_trail():
            served, _ = listener.accept()
            with served:
                served.settimeout(10.0)
                served.recv(1 << 16)  # HELLO + STATS
                served.sendall(snapshot + snapshot[:7])
                while served.recv(1 << 16):
                    pass  # until the scraper hangs up

        server = threading.Thread(target=answer_then_trail)
        server.start()
        try:
            with pytest.raises(TransportError,
                               match="undecodable STATS snapshot"):
                scrape_stats(path=sock_path)
        finally:
            server.join(timeout=10.0)
            listener.close()
        assert not server.is_alive()

    def test_scrape_against_nothing_raises(self, tmp_path):
        with pytest.raises(TransportError):
            scrape_stats(path=str(tmp_path / "absent.sock"),
                         timeout_s=0.5)


class TestPromConformance:
    def test_live_rendering_matches_the_trace_exporter(self, sock_path):
        """Byte-for-byte: the ledger section of a live prom scrape
        equals ``render_ledger_prom`` of the daemon's own registry and
        ``Metrics`` — the snapshot is read in-process here so no scrape
        connection perturbs the counters between the two renderings."""
        telemetry = Telemetry.capture()
        daemon, hosted = _drive_traffic(sock_path, telemetry)
        try:
            snapshot = StatsSnapshot(raw=daemon.stats_snapshot(),
                                     scrape_rtt_us=0.0)
        finally:
            hosted.stop()
        rendered = render_stats_prom(snapshot)
        expected = render_ledger_prom(
            Ledger(daemon.server.metrics.counters(), telemetry.registry))
        assert rendered.splitlines()[:len(expected)] == expected
        assert "# TYPE repro_uplink_messages counter" in expected
        assert "repro_uplink_messages 3" in expected
        assert "repro_trigger_eval_cost_us_count 3" in expected

    def test_scraped_prom_has_the_histogram_series(self, sock_path):
        telemetry = Telemetry.capture()
        daemon, hosted = _drive_traffic(sock_path, telemetry, requests=4)
        try:
            snapshot = scrape_stats(path=sock_path)
        finally:
            hosted.stop()
        lines = render_stats_prom(snapshot).splitlines()
        # The client observed one RTT per uplink; the scraped histogram
        # must expose the full Prometheus series for it.
        assert '# TYPE repro_net_rtt_us histogram' in lines
        assert 'repro_net_rtt_us_bucket{le="+Inf"} 4' in lines
        assert 'repro_net_rtt_us_count 4' in lines
        assert any(line.startswith("repro_net_rtt_us_sum ")
                   for line in lines)
        # Live gauges follow the registry section.
        assert "# TYPE repro_live_connections_open gauge" in lines
        assert [line for line in lines if line.startswith("repro_live_")] \
            == ["repro_live_connections_open 1"]

    def test_deterministic_lines_survive_the_wire(self, sock_path):
        """Counter and histogram lines of every run-deterministic
        instrument byte-compare between the scraped registry and a
        ``deterministic_snapshot`` rebuild of the daemon's registry.
        (The scrape's own connection increments
        ``net_connections_opened``, the one deterministic counter the
        scrape itself perturbs.)"""
        telemetry = Telemetry.capture()
        daemon, hosted = _drive_traffic(sock_path, telemetry)
        try:
            local = MetricsRegistry.from_dict(
                telemetry.registry.deterministic_snapshot())
            snapshot = scrape_stats(path=sock_path)
        finally:
            hosted.stop()
        scraped = set(render_ledger_prom(snapshot.ledger))
        for line in render_ledger_prom(Ledger({}, local)):
            if line.startswith("repro_net_connections_opened "):
                continue
            assert line in scraped


class TestHistogramPercentile:
    def test_empty_histogram_is_zero(self):
        assert Histogram("h", [10.0]).percentile(0.99) == 0.0

    def test_first_bucket_starts_at_the_observed_minimum(self):
        histogram = Histogram("h", [10.0, 20.0])
        histogram.observe(5.0)
        assert histogram.percentile(0.5) == 5.0

    def test_equal_samples_read_their_value_at_every_quantile(self):
        # 137 one-frame writes all sit in the first bucket (<= 1); no
        # quantile may read below the one value observed.
        histogram = MetricsRegistry().histogram("net_batch_size")
        for _ in range(137):
            histogram.observe(1)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.percentile(q) == 1.0

    def test_populated_bucket_is_clamped_to_the_observed_range(self):
        histogram = Histogram("h", [10.0, 20.0, 40.0])
        for value in (12.0, 14.0):
            histogram.observe(value)
        # Both samples sit in (10, 20], which the range narrows to
        # [12, 14].
        assert histogram.percentile(0.5) == 13.0

    def test_interpolates_within_the_covering_bucket(self):
        histogram = Histogram("h", [10.0, 20.0, 40.0])
        for value in (5.0, 15.0, 35.0):
            histogram.observe(value)
        # rank 1.5 falls halfway through the (10, 20] bucket.
        assert histogram.percentile(0.5) == 15.0

    def test_overflow_quantile_reports_the_observed_max(self):
        histogram = Histogram("h", [10.0])
        histogram.observe(5.0)
        histogram.observe(100.0)
        assert histogram.percentile(0.99) == 100.0


class TestRenderers:
    def _snapshot(self, uplinks=100):
        registry = MetricsRegistry()
        rtt = registry.histogram("net_rtt_us")
        for _ in range(4):
            rtt.observe(250.0)
        registry.histogram("trigger_eval_cost_us").observe(7.0)
        return StatsSnapshot(
            raw={"metrics": {"uplink_messages": uplinks,
                             "downlink_messages": uplinks // 2,
                             "trigger_notifications": 3},
                 "registry": registry.to_dict(),
                 "live": {"connections_open": 2},
                 "serving": {"batch_max": 64,
                             "protocol_version": PROTOCOL_VERSION}},
            scrape_rtt_us=123.0)

    def test_text_rendering_names_the_knobs(self):
        text = render_stats_text(self._snapshot())
        assert "daemon stats" in text
        assert "connections open:   2" in text
        assert "batch_max=64 protocol=v%d" % PROTOCOL_VERSION in text
        assert "uplink_messages" in text
        assert "net_rtt_us" in text

    def test_text_rendering_shows_each_histograms_buckets(self):
        """One summary line per histogram, then its bucket bars: the
        four 250 us round trips fill the ``<= 500`` bucket."""
        lines = render_stats_text(self._snapshot()).splitlines()
        [summary] = [line for line in lines
                     if line.split()[:1] == ["net_rtt_us"]]
        assert "count=4 mean=250.0 p50=250.0 p99=250.0" in summary
        bars = lines[lines.index(summary) + 1:][:10]
        assert [bar.split()[:3] for bar in bars if "#" in bar] \
            == [["<=", "500", "4"]]
        assert bars[-1].split() == [">", "100000", "0"]

    def test_json_rendering_round_trips(self):
        payload = json.loads(render_stats_json(self._snapshot()))
        assert payload["metrics"]["uplink_messages"] == 100
        assert payload["scrape_rtt_us"] == 123.0

    def test_top_reports_rates_against_the_previous_scrape(self):
        previous = self._snapshot(uplinks=50)
        current = self._snapshot(uplinks=100)
        screen = render_top(current, previous, interval_s=5.0)
        assert "repro top" in screen
        assert "connections 2" in screen
        assert "10.0/s" in screen          # (100 - 50) / 5
        assert "net_rtt_us" in screen
        # ... and below the round trip, the stage that took it.
        assert screen.index("net_rtt_us") \
            < screen.index("trigger_eval_cost_us")
        assert "saferegion_compute_cost_us" not in screen  # never observed

    def test_top_first_screen_has_zero_rates(self):
        screen = render_top(self._snapshot(), None, interval_s=1.0)
        assert "0.0/s" in screen

    def test_top_first_screen_reads_no_rate_from_the_totals(self):
        """With no previous scrape there is no delta: the totals (100
        uplinks, 50 downlinks, 3 alarms) are not rates per second."""
        screen = render_top(self._snapshot(), None, interval_s=1.0)
        rates = [line.split("(")[-1] for line in screen.splitlines()
                 if line.endswith("/s)")]
        assert rates == ["     0.0/s)"] * 3


class TestSnapshotParse:
    """A snapshot comes from outside the process: it is parsed once, at
    construction, and a malformed one is refused there."""

    @staticmethod
    def _raw(**sections):
        raw = {"metrics": {"uplink_messages": 3}, "registry": {},
               "live": {"connections_open": 1},
               "serving": {"batch_max": 64, "protocol_version": 2}}
        raw.update(sections)
        return raw

    @pytest.mark.parametrize("sections, reason", [
        ({"registry": "off"}, "section 'registry' is not an object"),
        ({"registry": []}, "section 'registry' is not an object"),
        ({"registry": {"shard_vehicles_peak": {
            "kind": "gauge", "deterministic": False, "value": 6.0}}},
         "unknown instrument kind 'gauge'"),
        ({"registry": {"net_batches": {"kind": "counter"}}},
         "expected a number, got None"),
        ({"metrics": {"uplink_messages": "3"}}, "expected a number"),
        ({"live": None}, "section 'live' is not an object"),
    ], ids=["registry-string", "registry-list", "unknown-kind",
            "counter-without-value", "metrics-string", "live-missing"])
    def test_malformed_snapshot_is_refused(self, sections, reason):
        with pytest.raises(TelemetryError, match=reason):
            StatsSnapshot(raw=self._raw(**sections), scrape_rtt_us=0.0)

    def test_sections_are_parsed_once(self):
        snapshot = StatsSnapshot(raw=self._raw(), scrape_rtt_us=0.0)
        assert snapshot.ledger.counters == {"uplink_messages": 3}
        assert len(snapshot.ledger.registry) == 0
        assert (snapshot.connections_open, snapshot.batch_max,
                snapshot.protocol_version) == (1, 64, 2)
