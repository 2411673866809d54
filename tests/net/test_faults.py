"""Fault injection on the framed serving path.

Every failure mode — a peer dying mid-frame, a slow-loris client
dribbling bytes, garbage on the wire, the server going away under a
client — must surface as a clean :class:`TransportError` (or an
unclean-close telemetry record on the daemon side), never a hang and
never an asyncio error logged from an orphaned task.
"""

import gc
import logging
import socket
import threading
import time
import warnings

import pytest

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import AlarmServer, Metrics
from repro.geometry import Rect
from repro.index import GridOverlay
from repro.net import DaemonThread, SocketTransport
from repro.protocol.framing import (FRAME_HEADER_SIZE, FrameDecoder,
                                    FrameKind, decode_error, encode_frame,
                                    encode_hello)
from repro.protocol.handlers import EVALUATE_ONLY, ServerPolicy
from repro.protocol.transport import LossyTransport, TransportError
from repro.protocol.wire import WireCodec
from repro.telemetry import Telemetry
from repro.telemetry.spans import (SPAN_CLIENT_REQUEST, SPAN_LOSSY_REQUEST,
                                   STATUS_ERROR, STATUS_OK, span_counts,
                                   validate_spans)

from .conftest import make_daemon, make_report


@pytest.fixture
def asyncio_log(caplog):
    """Captures the asyncio logger; tests assert it stays silent."""
    with caplog.at_level(logging.WARNING, logger="asyncio"):
        yield caplog


def _asyncio_records(caplog):
    return [record for record in caplog.records
            if record.name.startswith("asyncio")]


def _close_events(telemetry):
    return [record for record in telemetry.sink.records
            if record["type"] == "net_conn_close"]


def _span_counts(telemetry):
    """``{(span name, status): count}`` for the captured events."""
    return span_counts(telemetry.sink.records)


def _raw_connect(path):
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.settimeout(10.0)
    client.connect(path)
    return client


def _read_frames(client, count):
    decoder = FrameDecoder()
    frames = []
    while len(frames) < count:
        chunk = client.recv(1 << 16)
        if not chunk:
            break
        frames.extend(decoder.feed(chunk))
    return frames


class TestPeerFaults:
    def test_mid_frame_disconnect_is_an_unclean_close(self, sock_path,
                                                      asyncio_log):
        """A peer dying mid-frame is recorded unclean; the daemon keeps
        serving other connections as if nothing happened."""
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        with DaemonThread(daemon, path=sock_path):
            broken = _raw_connect(sock_path)
            payload = daemon.codec.encode_request(make_report())
            frame = encode_frame(FrameKind.REQUEST, payload, 1.0)
            broken.sendall(encode_frame(FrameKind.HELLO, encode_hello())
                           + frame[:10])  # header cut short
            broken.close()
            # The daemon must still serve a healthy connection.
            with SocketTransport.connect_unix(sock_path,
                                              daemon.codec) as transport:
                transport.request(make_report(), 1.0)
            # Let both EOFs reach the loop thread before stopping the
            # daemon, so the healthy close is recorded as clean rather
            # than as a shutdown cancellation.
            deadline = time.monotonic() + 10.0
            while (len(_close_events(telemetry)) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        closes = _close_events(telemetry)
        assert len(closes) == 2
        assert sorted(record["clean"] for record in closes) == \
            [False, True]
        assert _asyncio_records(asyncio_log) == []

    def test_request_before_hello_gets_an_error_frame(self, sock_path):
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            client = _raw_connect(sock_path)
            payload = daemon.codec.encode_request(make_report())
            client.sendall(encode_frame(FrameKind.REQUEST, payload, 1.0))
            frames = _read_frames(client, 1)
            client.close()
        assert frames and frames[0].kind is FrameKind.ERROR
        assert "HELLO" in decode_error(frames[0].payload)

    def test_garbage_gets_an_error_frame_then_close(self, sock_path):
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            client = _raw_connect(sock_path)
            client.sendall(encode_frame(FrameKind.HELLO, encode_hello()))
            client.sendall(b"\x00" * 32)  # wrong magic byte
            frames = _read_frames(client, 1)
            # After the ERROR frame the daemon closes its end.
            assert client.recv(1 << 16) == b""
            client.close()
        assert frames and frames[0].kind is FrameKind.ERROR
        assert "magic" in decode_error(frames[0].payload)

    def test_short_request_payload_gets_an_error_frame_then_close(
            self, sock_path):
        """A well-framed REQUEST whose payload is one byte short of a
        report: the codec's ValueError becomes the daemon's ERROR."""
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            client = _raw_connect(sock_path)
            payload = daemon.codec.encode_request(make_report())[:-1]
            client.sendall(encode_frame(FrameKind.HELLO, encode_hello())
                           + encode_frame(FrameKind.REQUEST, payload, 1.0))
            frames = _read_frames(client, 1)
            assert client.recv(1 << 16) == b""
            client.close()
        assert frames and frames[0].kind is FrameKind.ERROR
        assert decode_error(frames[0].payload).startswith(
            "undecodable REQUEST payload: uplink payload of 31 bytes")
        assert daemon.server.metrics.uplink_messages == 0

    def test_slow_loris_single_byte_writes_still_served(self, sock_path):
        """Frames dribbled one byte per write must decode and be
        answered — boundary tolerance end to end, not just in the
        decoder's unit tests."""
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            client = _raw_connect(sock_path)
            payload = daemon.codec.encode_request(make_report())
            stream = (encode_frame(FrameKind.HELLO, encode_hello())
                      + encode_frame(FrameKind.REQUEST, payload, 1.0))
            for index in range(len(stream)):
                client.sendall(stream[index:index + 1])
            frames = _read_frames(client, 1)
            client.close()
        assert frames and frames[0].kind is FrameKind.REPLY
        assert daemon.server.metrics.uplink_messages == 1


class TestServerFaults:
    def test_request_against_a_stopped_server_raises_fast(
            self, sock_path, asyncio_log):
        """Stopping the daemon under a live client: the next exchange is
        a TransportError within the timeout, never a hang."""
        daemon = make_daemon()
        hosted = DaemonThread(daemon, path=sock_path).start()
        transport = SocketTransport.connect_unix(sock_path, daemon.codec,
                                                 timeout_s=10.0)
        try:
            transport.request(make_report(0), 1.0)
            hosted.stop()
            started = time.monotonic()
            with pytest.raises(TransportError):
                transport.request(make_report(1), 2.0)
            assert time.monotonic() - started < 10.0
        finally:
            transport.close()
            hosted.stop()
        assert _asyncio_records(asyncio_log) == []

    def test_mid_frame_server_death_names_the_cut(self, sock_path):
        """EOF with bytes buffered reports 'mid-frame' — the client can
        tell a truncated reply from an orderly close."""
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock_path)
        listener.listen(1)
        transport = None
        # The fake server runs in a thread: it must consume the request
        # while the client blocks in its stop-and-wait read, then die
        # seven bytes into the reply frame.
        expected = (2 * FRAME_HEADER_SIZE  # HELLO and REQUEST headers
                    + 2                    # HELLO payload
                    + len(WireCodec().encode_request(make_report())))

        def half_reply_then_die():
            served, _ = listener.accept()
            received = b""
            while len(received) < expected:
                chunk = served.recv(1 << 16)
                if not chunk:
                    break
                received += chunk
            reply = encode_frame(FrameKind.REPLY, b"\x00\x00", 1.0)
            served.sendall(reply[:7])
            served.close()

        server = threading.Thread(target=half_reply_then_die)
        server.start()
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(sock_path)
            transport = SocketTransport(client, timeout_s=10.0)
            with pytest.raises(TransportError, match="mid-frame"):
                transport.request(make_report(), 1.0)
        finally:
            server.join(timeout=10.0)
            if transport is not None:
                transport.close()
            listener.close()

    def test_a_push_frame_is_an_unexpected_frame(self):
        """The daemon never pushes: a PUSH frame before the REPLY is
        refused like any other kind the client does not expect."""
        client, served = socket.socketpair()
        transport = SocketTransport(client, timeout_s=10.0)
        try:
            served.sendall(encode_frame(FrameKind.PUSH, b"\x00\x00", 1.0)
                           + encode_frame(FrameKind.REPLY, b"\x00\x00",
                                          1.0))
            with pytest.raises(TransportError,
                               match="unexpected PUSH frame from the server"):
                transport.request(make_report(), 1.0)
        finally:
            transport.close()
            served.close()

    def test_unresponsive_server_times_out(self, sock_path):
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock_path)
        listener.listen(1)
        transport = None
        served = None
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(sock_path)
            transport = SocketTransport(client, timeout_s=0.2)
            served, _ = listener.accept()  # connected; never replies
            with pytest.raises(TransportError, match="timed out"):
                transport.request(make_report(), 1.0)
        finally:
            if transport is not None:
                transport.close()
            if served is not None:
                served.close()
            listener.close()

    def test_closed_transport_refuses_use(self, sock_path):
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            transport = SocketTransport.connect_unix(sock_path,
                                                     daemon.codec)
            transport.close()
            transport.close()  # idempotent
            with pytest.raises(TransportError, match="closed"):
                transport.request(make_report(), 1.0)

    def test_connect_close_stop_leaks_no_socket(self, sock_path):
        """A client that connects and hangs up just as the daemon stops
        leaves a connection asyncio has accepted but not yet handed to
        the daemon.  The close must still close it, every time."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(20):
                daemon = make_daemon()
                with DaemonThread(daemon, path=sock_path):
                    SocketTransport.connect_unix(sock_path,
                                                 daemon.codec).close()
                gc.collect()
        assert [str(warning.message) for warning in caught
                if issubclass(warning.category, ResourceWarning)] == []


class _FaultingPolicy(ServerPolicy):
    """A server policy whose every hook fails inside the exchange."""

    def on_location_report(self, server, request, time_s, triggered):
        raise RuntimeError("policy fault")

    on_region_exit = on_location_report


def _lossy_server(telemetry):
    registry = AlarmRegistry()
    registry.install(Rect(100, 100, 200, 200), AlarmScope.PUBLIC, 1)
    grid = GridOverlay(Rect(0, 0, 4000, 4000), cell_area_km2=1.0)
    return AlarmServer(registry, grid, Metrics(), telemetry=telemetry)


class TestSpanLeaksUnderFaults:
    """A failed exchange must still leave its one span record, with
    ``"error"`` status — a missing record would hide exactly the
    worst-latency (failed) requests from the trace."""

    def test_timeout_closes_the_client_span_with_error(self, sock_path):
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock_path)
        listener.listen(1)
        telemetry = Telemetry.capture()
        transport = None
        served = None
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(sock_path)
            transport = SocketTransport(client, timeout_s=0.2,
                                        telemetry=telemetry)
            served, _ = listener.accept()  # connected; never replies
            with pytest.raises(TransportError, match="timed out"):
                transport.request(make_report(), 1.0)
        finally:
            if transport is not None:
                transport.close()
            if served is not None:
                served.close()
            listener.close()
        assert validate_spans(telemetry.sink.records) == []
        assert _span_counts(telemetry) == \
            {(SPAN_CLIENT_REQUEST, STATUS_ERROR): 1}

    def test_server_death_closes_the_client_span_with_error(
            self, sock_path, asyncio_log):
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        hosted = DaemonThread(daemon, path=sock_path).start()
        transport = SocketTransport.connect_unix(
            sock_path, daemon.codec, timeout_s=10.0,
            telemetry=telemetry)
        try:
            transport.request(make_report(0), 1.0)
            hosted.stop()
            with pytest.raises(TransportError):
                transport.request(make_report(1), 2.0)
        finally:
            transport.close()
            hosted.stop()
        assert validate_spans(telemetry.sink.records) == []
        counts = _span_counts(telemetry)
        # One exchange succeeded, the post-shutdown one failed.
        assert counts[(SPAN_CLIENT_REQUEST, STATUS_OK)] == 1
        assert counts[(SPAN_CLIENT_REQUEST, STATUS_ERROR)] == 1
        assert _asyncio_records(asyncio_log) == []

    def test_lossy_exhaustion_closes_the_span_with_error(self):
        """The in-process lossy transport honours the same contract:
        an attempt-budget exhaustion leaves one ``lossy_request``
        record with error status."""
        telemetry = Telemetry.capture()
        lossy = LossyTransport(_lossy_server(telemetry), EVALUATE_ONLY,
                               uplink_drop=0.99, seed=7, max_attempts=2)
        with pytest.raises(TransportError):
            lossy.request(make_report(), 0.0)
        assert validate_spans(telemetry.sink.records) == []
        assert _span_counts(telemetry) == \
            {(SPAN_LOSSY_REQUEST, STATUS_ERROR): 1}

    def test_lossy_server_fault_leaves_an_error_span(self):
        """An exception that is not a TransportError — here a server
        policy failing inside the exchange — also leaves one
        ``lossy_request`` record with error status."""
        telemetry = Telemetry.capture()
        lossy = LossyTransport(_lossy_server(telemetry), _FaultingPolicy())
        with pytest.raises(RuntimeError, match="policy fault"):
            lossy.request(make_report(), 0.0)
        assert validate_spans(telemetry.sink.records) == []
        assert _span_counts(telemetry) == \
            {(SPAN_LOSSY_REQUEST, STATUS_ERROR): 1}
