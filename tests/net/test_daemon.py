"""Daemon behaviour: request/reply over real sockets, batching,
backpressure, the SHUTDOWN channel, and the thread host's lifecycle."""

import asyncio
import socket
import time

import pytest

from repro.net import DaemonThread, SocketTransport
from repro.protocol.framing import (FrameDecoder, FrameKind, encode_frame,
                                    encode_hello)
from repro.sanitize import Sanitizer, SanitizerError
from repro.telemetry import Telemetry

from .conftest import make_daemon, make_report


class TestRequestReply:
    def test_unix_roundtrip_charges_the_server(self, sock_path):
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            with SocketTransport.connect_unix(sock_path,
                                              daemon.codec) as transport:
                for sequence in range(3):
                    reply = transport.request(make_report(sequence), 1.0)
                    assert isinstance(reply, tuple)
        metrics = daemon.server.metrics
        assert metrics.uplink_messages == 3
        assert metrics.uplink_bytes == \
            3 * daemon.codec.size_of_request(make_report())

    def test_tcp_roundtrip(self):
        daemon = make_daemon()
        with DaemonThread(daemon, port=0) as hosted:
            assert hosted.port is not None
            with SocketTransport.connect_tcp("127.0.0.1", hosted.port,
                                             daemon.codec) as transport:
                transport.request(make_report(), 1.0)
        assert daemon.server.metrics.uplink_messages == 1

    def test_two_connections_get_distinct_ids(self, sock_path):
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        with DaemonThread(daemon, path=sock_path):
            first = SocketTransport.connect_unix(sock_path, daemon.codec)
            second = SocketTransport.connect_unix(sock_path, daemon.codec)
            first.request(make_report(0), 1.0)
            second.request(make_report(0, user_id=2), 1.0)
            first.close()
            second.close()
        opens = [record for record in telemetry.tracer.sink.records
                 if record["type"] == "net_conn_open"]
        assert sorted(record["conn"] for record in opens) == [0, 1]
        assert telemetry.registry.counter(
            "net_connections_closed").value == 2


class TestBatchingAndBackpressure:
    def test_flood_triggers_backpressure_and_batches(self, sock_path):
        """A client that writes 64 uplinks before reading anything must
        fill a queue_limit=2 queue: the reader stalls (recorded), the
        drain worker batches, and every report is still answered."""
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry, batch_max=8,
                             queue_limit=2)
        frames = 64
        with DaemonThread(daemon, path=sock_path):
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.settimeout(30.0)
            client.connect(sock_path)
            stream = [encode_frame(FrameKind.HELLO, encode_hello())]
            codec = daemon.codec
            for sequence in range(frames):
                stream.append(encode_frame(
                    FrameKind.REQUEST,
                    codec.encode_request(make_report(sequence)),
                    float(sequence)))
            client.sendall(b"".join(stream))
            decoder = FrameDecoder()
            replies = 0
            while replies < frames:
                chunk = client.recv(1 << 16)
                assert chunk, "daemon closed before replying to all"
                replies += sum(frame.kind is FrameKind.REPLY
                               for frame in decoder.feed(chunk))
            client.close()
        assert daemon.server.metrics.uplink_messages == frames
        registry = telemetry.registry
        assert registry.counter("net_backpressure_stalls").value >= 1
        batches = registry.counter("net_batches").value
        assert 1 <= batches <= frames
        assert registry.histogram("net_batch_size").count == batches


class TestShutdownChannel:
    def test_shutdown_frame_stops_the_daemon(self, sock_path):
        daemon = make_daemon()
        hosted = DaemonThread(daemon, path=sock_path).start()
        try:
            with SocketTransport.connect_unix(sock_path,
                                              daemon.codec) as transport:
                transport.request(make_report(), 1.0)
                transport.send_shutdown()
            deadline = time.monotonic() + 10.0
            while hosted._thread.is_alive():
                assert time.monotonic() < deadline, \
                    "daemon ignored the SHUTDOWN frame"
                time.sleep(0.01)
            with pytest.raises(OSError):
                SocketTransport.connect_unix(sock_path, daemon.codec)
        finally:
            hosted.stop()


class TestDaemonThreadLifecycle:
    def test_stop_is_idempotent(self, sock_path):
        hosted = DaemonThread(make_daemon(), path=sock_path).start()
        hosted.stop()
        hosted.stop()

    def test_double_start_is_rejected(self, sock_path):
        hosted = DaemonThread(make_daemon(), path=sock_path).start()
        try:
            with pytest.raises(RuntimeError):
                hosted.start()
        finally:
            hosted.stop()

    def test_startup_failure_surfaces(self, tmp_path):
        missing = str(tmp_path / "no" / "such" / "dir" / "alarm.sock")
        hosted = DaemonThread(make_daemon(), path=missing)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="failed to start"):
            hosted.start()
        assert time.monotonic() - started < 5.0
        assert hosted.port is None

    def test_stale_socket_file_is_replaced(self, sock_path):
        with DaemonThread(make_daemon(), path=sock_path):
            pass
        # A second daemon binds over whatever the first left behind.
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            with SocketTransport.connect_unix(sock_path,
                                              daemon.codec) as transport:
                transport.request(make_report(), 1.0)

    def test_port_is_read_only(self):
        with DaemonThread(make_daemon(), port=0) as hosted:
            with pytest.raises(AttributeError):
                hosted.port = 1

    def test_daemon_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            make_daemon(batch_max=0)
        with pytest.raises(ValueError):
            make_daemon(queue_limit=0)


class TestOwnerThread:
    """Each object has one writing thread: the caller owns the
    ``DaemonThread``, the loop thread owns the ``AlarmDaemon``."""

    def test_loop_thread_cannot_write_the_host(self, sock_path):
        hosted = DaemonThread(make_daemon(), path=sock_path).start()
        try:
            loop, _ = hosted._started.result()

            async def relabel():
                hosted.host = "elsewhere"

            with pytest.raises(
                    RuntimeError,
                    match=r"DaemonThread\.host written from thread "
                          r"'repro-alarm-daemon'; the object belongs to "
                          r"thread 'MainThread'"):
                asyncio.run_coroutine_threadsafe(relabel(),
                                                 loop).result(10.0)
            assert hosted.host == "127.0.0.1"
        finally:
            hosted.stop()

    def test_other_threads_cannot_write_the_daemon(self, sock_path):
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            with pytest.raises(
                    RuntimeError,
                    match=r"AlarmDaemon\.batch_max written from thread "
                          r"'MainThread'; the object belongs to thread "
                          r"'repro-alarm-daemon'"):
                daemon.batch_max = 1
            assert daemon.batch_max == 64
            with SocketTransport.connect_unix(sock_path,
                                              daemon.codec) as transport:
                transport.request(make_report(), 1.0)

    def test_refused_startup_write_fails_start_at_once(self, sock_path):
        """A daemon the main thread already wrote to belongs to it: the
        loop thread's first write is refused before publication, and
        start() raises that refusal at once, not at its 30 s timeout."""
        daemon = make_daemon()
        daemon.batch_max = 8
        hosted = DaemonThread(daemon, path=sock_path)
        started = time.monotonic()
        with pytest.raises(
                RuntimeError,
                match=r"daemon failed to start: AlarmDaemon\.\w+ written "
                      r"from thread 'repro-alarm-daemon'"):
            hosted.start()
        assert time.monotonic() - started < 5.0
        hosted.stop()


class TestSanitizedServing:
    """The loop watchdog and task-leak check ride REPRO_SANITIZE=1."""

    def test_env_flag_reaches_the_daemon(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert make_daemon()._sanitizer.enabled
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not make_daemon()._sanitizer.enabled

    def test_sanitized_roundtrip_is_clean(self, sock_path,
                                          monkeypatch):
        """A healthy serve-and-close must not trip the loop-stall or
        task-leak checks: the watchdog spins up with the listener and
        is cancelled (and awaited) by aclose before the leak scan."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            with SocketTransport.connect_unix(sock_path,
                                              daemon.codec) as transport:
                for sequence in range(3):
                    transport.request(make_report(sequence), 1.0)
        assert daemon.server.metrics.uplink_messages == 3

    def test_blocking_call_on_the_loop_is_caught_at_close(self):
        """A blocking sleep smuggled onto the loop is caught at close:
        the watchdog's pending wakeup fires late, the lag is recorded,
        and check_loop_health fails the aclose."""

        async def scenario():
            daemon = make_daemon(sanitizer=Sanitizer())
            await daemon.start_tcp("127.0.0.1", 0)
            await asyncio.sleep(0.1)   # watchdog takes a baseline
            time.sleep(0.8)            # the PA005 sin, committed live
            await asyncio.sleep(0.1)   # late wakeup records the lag
            await daemon.aclose()

        with pytest.raises(SanitizerError, match="event loop stalled"):
            asyncio.run(scenario())

    def test_cancel_parked_in_wait_closed_still_closes_the_books(
            self, monkeypatch):
        """aclose() can find a connection already tearing itself down
        and cancel it parked in ``wait_closed`` (the socket teardown
        flake): the close bookkeeping must run all the same — no queue
        entry left behind, closed == opened, every span closed."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        async def scenario():
            parked = asyncio.Event()

            async def never_closed(_writer):
                parked.set()
                await asyncio.Event().wait()  # until cancelled

            monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                                never_closed)
            telemetry = Telemetry.capture()
            daemon = make_daemon(telemetry=telemetry)
            port = await daemon.start_tcp("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(encode_frame(FrameKind.HELLO, encode_hello())
                         + encode_frame(
                             FrameKind.REQUEST,
                             daemon.codec.encode_request(make_report()),
                             1.0, trace_id=7, span_id=1))
            decoder = FrameDecoder()
            while not any(frame.kind is FrameKind.REPLY
                          for frame in decoder.feed(
                              await reader.read(1 << 16))):
                pass
            writer.close()  # EOF: the server side starts its teardown
            await asyncio.wait_for(parked.wait(), 5.0)
            await daemon.aclose()  # cancels the task parked above
            return daemon, telemetry.registry

        daemon, registry = asyncio.run(scenario())
        assert daemon._conn_queues == {}
        assert daemon._conn_tasks == set()
        assert registry.counter("net_connections_opened").value == 1
        assert registry.counter("net_connections_closed").value == 1
        assert registry.counter("spans_opened").value \
            == registry.counter("spans_closed").value > 0

    def test_untracked_daemon_task_is_reported_as_leak(self):
        """A daemon-module task that dodges the registries trips the
        task-leak check when aclose scans for survivors."""

        async def scenario():
            daemon = make_daemon(sanitizer=Sanitizer())
            await daemon.start_tcp("127.0.0.1", 0)
            rogue = asyncio.create_task(daemon._stall_watchdog())
            try:
                await asyncio.sleep(0)
                await daemon.aclose()
            finally:
                rogue.cancel()
                try:
                    await rogue
                except asyncio.CancelledError:
                    pass

        with pytest.raises(SanitizerError,
                           match=r"task leak.*_stall_watchdog"):
            asyncio.run(scenario())
