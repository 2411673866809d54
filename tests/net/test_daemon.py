"""Daemon behaviour: request/reply over real sockets, in-order answers
in coalesced writes, backpressure, the SHUTDOWN channel, the thread
host's lifecycle, and the checks a daemon's close makes.

Every daemon here runs under the loop-stall sampler of
``tests/net/conftest.py``.
"""

import asyncio
import itertools
import os
import socket
import time

import pytest

from repro.net import DaemonThread, SocketTransport
from repro.net import daemon as daemon_module
from repro.protocol.framing import (FrameDecoder, FrameKind, decode_error,
                                    decode_stats, encode_frame,
                                    encode_hello)
from repro.protocol.messages import InstallSafePeriod
from repro.protocol.transport import WireFidelityError
from repro.protocol.wire import WireCodec
from repro.telemetry import Telemetry
from repro.telemetry.spans import validate_spans

from .conftest import make_daemon, make_report, open_fds

pytestmark = pytest.mark.usefixtures("loop_stall_watch")


class _Unwritable:
    """The writer of a connection no client is on."""

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _leak_a_connection_task(daemon):
    """Spawn a daemon-module task no registry tracks (on the loop): a
    connection task started outside ``_accept``, on a stream that never
    gets data."""
    return asyncio.create_task(daemon._handle_connection(
        asyncio.StreamReader(), _Unwritable()))


def _daemon_task_names(hosted):
    """The daemon-module tasks live on a hosted daemon's loop, counted
    the way its close does (``_main`` is the loop thread's own)."""
    loop, _ = hosted._started.result()

    async def names():
        return hosted.daemon._pending_task_names()

    return sorted(asyncio.run_coroutine_threadsafe(names(),
                                                   loop).result(10.0))


def test_stats_after_requests_reads_their_state(sock_path):
    """HELLO, N REQUESTs and STATS in one write: the STATS frame comes
    after the N REPLYs and reads the state they left."""
    requests = 5
    daemon = make_daemon()
    codec = daemon.codec
    with DaemonThread(daemon, path=sock_path):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(10.0)
            client.connect(sock_path)
            client.sendall(
                encode_frame(FrameKind.HELLO, encode_hello())
                + b"".join(encode_frame(
                    FrameKind.REQUEST,
                    codec.encode_request(make_report(sequence)),
                    float(sequence)) for sequence in range(requests))
                + encode_frame(FrameKind.STATS, b"", float(requests)))
            decoder, frames = FrameDecoder(), []
            while len(frames) < requests + 1:
                chunk = client.recv(1 << 16)
                assert chunk, "daemon closed before answering"
                frames.extend(decoder.feed(chunk))
    assert [frame.kind for frame in frames] \
        == [FrameKind.REPLY] * requests + [FrameKind.STATS]
    snapshot = decode_stats(frames[-1].payload)
    assert snapshot["metrics"]["uplink_messages"] == requests


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
        opens = [record for record in telemetry.sink.records
                 if record["type"] == "net_conn_open"]
        assert sorted(record["conn"] for record in opens) == [0, 1]
        assert telemetry.registry.counter(
            "net_connections_closed").value == 2


class TestBatchingAndBackpressure:
    def test_flood_is_answered_in_order_in_capped_writes(self, sock_path):
        """A client that writes 64 uplinks before reading anything gets
        every report answered, in request order, in writes of at most
        ``batch_max`` REPLY frames."""
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry, batch_max=8)
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
            times = []
            while len(times) < frames:
                chunk = client.recv(1 << 16)
                assert chunk, "daemon closed before replying to all"
                times.extend(frame.time_s for frame in decoder.feed(chunk)
                             if frame.kind is FrameKind.REPLY)
            client.close()
        assert times == [float(sequence) for sequence in range(frames)]
        assert daemon.server.metrics.uplink_messages == frames
        registry = telemetry.registry
        sizes = registry.histogram("net_batch_size")
        assert sizes.max <= 8
        batches = registry.counter("net_batches").value
        assert 1 <= batches <= frames
        assert sizes.count == batches

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts open fds through /proc")
    def test_a_peer_that_stops_reading_stalls_only_itself(self,
                                                          sock_path):
        """Client A writes until the kernel refuses and never reads: its
        connection stalls in ``drain``, while client B's round trips
        are still answered in time.  One daemon task per connection,
        and after A closes the daemon stops with no leaked task, fd or
        span."""
        fds_before = open_fds()
        telemetry = Telemetry.capture()
        daemon = make_daemon(telemetry=telemetry)
        codec = daemon.codec
        sequences = itertools.count()

        def traced_requests(count):
            return b"".join(encode_frame(
                FrameKind.REQUEST,
                codec.encode_request(make_report(sequence)),
                float(sequence), trace_id=sequence + 1, span_id=1)
                for sequence in itertools.islice(sequences, count))

        with DaemonThread(daemon, path=sock_path) as hosted:
            flooder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            flooder.connect(sock_path)
            flooder.sendall(encode_frame(FrameKind.HELLO, encode_hello()))
            flooder.setblocking(False)
            # Refused five times running, 50 ms apart: the daemon has
            # stopped reading A.
            outgoing, sent, refusals = b"", 0, 0
            deadline = time.monotonic() + 30.0
            while refusals < 5:
                assert time.monotonic() < deadline, \
                    "the daemon kept reading a peer that never reads"
                if len(outgoing) < 4096:
                    outgoing += traced_requests(256)
                try:
                    accepted = flooder.send(outgoing)
                except BlockingIOError:
                    refusals += 1
                    time.sleep(0.05)
                    continue
                outgoing = outgoing[accepted:]
                sent += accepted
                refusals = 0
            assert sent > 1 << 16
            with SocketTransport.connect_unix(sock_path, codec,
                                              timeout_s=5.0) as other:
                for sequence in range(3):
                    reply = other.request(
                        make_report(sequence, user_id=2), 1.0)
                    assert isinstance(reply, tuple)
                assert _daemon_task_names(hosted) == [
                    "_handle_connection", "_handle_connection", "_main"]
            flooder.close()
        assert daemon._conn_tasks == set()
        assert validate_spans(telemetry.sink.records) == []
        registry = telemetry.registry
        assert registry.counter("spans_opened").value \
            == registry.counter("spans_closed").value > 0
        assert registry.counter("net_connections_opened").value \
            == registry.counter("net_connections_closed").value == 2
        assert open_fds() == fds_before


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

    def test_failure_at_close_leaves_the_with_block(self, sock_path):
        """What ends the loop thread — here the task-leak check at the
        daemon's close — is raised by leaving the ``with`` block."""
        daemon = make_daemon()
        with pytest.raises(RuntimeError,
                           match=r"task leak at daemon close: 1 daemon "
                                 r"task\(s\) still pending: "
                                 r"_handle_connection"):
            with DaemonThread(daemon, path=sock_path) as hosted:
                loop, _ = hosted._started.result()

                async def leak():
                    _leak_a_connection_task(daemon)

                asyncio.run_coroutine_threadsafe(leak(), loop).result(10.0)

    def test_failure_is_raised_once(self, sock_path):
        daemon = make_daemon()
        hosted = DaemonThread(daemon, path=sock_path).start()
        loop, _ = hosted._started.result()

        async def leak():
            _leak_a_connection_task(daemon)

        asyncio.run_coroutine_threadsafe(leak(), loop).result(10.0)
        with pytest.raises(RuntimeError, match="task leak at daemon close"):
            hosted.stop()
        hosted.stop()

    def test_daemon_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            make_daemon(batch_max=0)


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


class TestCloseChecks:
    """What a daemon's close refuses: a blocking call on its loop (the
    autouse guard of ``tests/conftest.py``), a stalled loop (the
    sampler of ``loop_stall_watch``), a leaked task (always on)."""

    def test_roundtrip_closes_clean(self, sock_path):
        """A healthy serve-and-close trips neither check."""
        daemon = make_daemon()
        with DaemonThread(daemon, path=sock_path):
            with SocketTransport.connect_unix(sock_path,
                                              daemon.codec) as transport:
                for sequence in range(3):
                    transport.request(make_report(sequence), 1.0)
        assert daemon.server.metrics.uplink_messages == 3

    def test_blocking_call_on_the_loop_is_caught_at_close(self):
        """A loop held by a CPU busy-wait calls nothing the
        blocking-call guard wraps, so only the sampler sees it: its
        pending wakeup fires late, the lag is recorded, and the close
        fails."""

        async def scenario():
            daemon = make_daemon()
            await daemon.start_tcp("127.0.0.1", 0)
            await asyncio.sleep(0.1)   # the sampler takes a baseline
            deadline = time.perf_counter() + 0.8
            while time.perf_counter() < deadline:
                pass                   # the loop is held, not blocked
            await asyncio.sleep(0.1)   # late wakeup records the lag
            await daemon.aclose()

        with pytest.raises(AssertionError, match="event loop stalled"):
            asyncio.run(scenario())

    def test_blocking_sleep_is_caught_by_the_guard_at_close(self):
        """A blocking sleep on the loop is recorded where it is made
        and fails the close, however short it is."""

        async def scenario():
            daemon = make_daemon()
            await daemon.start_tcp("127.0.0.1", 0)
            time.sleep(0.01)
            await daemon.aclose()

        with pytest.raises(AssertionError,
                           match=r"1 blocking call\(s\) on the daemon "
                                 r"loop: time\.sleep\(\) at .*"
                                 r"test_daemon\.py:\d+ in scenario"):
            asyncio.run(scenario())

    def test_cancel_parked_in_wait_closed_still_closes_the_books(
            self, monkeypatch):
        """aclose() can find a connection already tearing itself down
        and cancel it parked in ``wait_closed`` (the socket teardown
        flake): the close bookkeeping must run all the same — no task
        left behind, closed == opened, every span closed."""

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
        assert daemon._conn_tasks == set()
        assert registry.counter("net_connections_opened").value == 1
        assert registry.counter("net_connections_closed").value == 1
        assert registry.counter("spans_opened").value \
            == registry.counter("spans_closed").value > 0

    def test_untracked_daemon_task_is_reported_as_leak(self):
        """A daemon-module task that dodges the registries trips the
        task-leak check when aclose scans for survivors."""

        async def scenario():
            daemon = make_daemon()
            await daemon.start_tcp("127.0.0.1", 0)
            rogue = _leak_a_connection_task(daemon)
            try:
                await asyncio.sleep(0)
                await daemon.aclose()
            finally:
                rogue.cancel()
                try:
                    await rogue
                except asyncio.CancelledError:
                    pass

        with pytest.raises(RuntimeError,
                           match=r"task leak.*_handle_connection"):
            asyncio.run(scenario())


class TestFramedAccounting:
    """``verify_wire`` holds every frame to the bytes the transport
    charged; a drift is named in the connection's ERROR frame and
    raised when the daemon closes.  The frames are checked after the
    ``with`` block, so the close's raise cannot mask a failed check."""

    @staticmethod
    def _exchange(sock_path, daemon, *request_payloads, shut_wr=True):
        """HELLO and the REQUESTs in one write, then EOF unless
        ``shut_wr`` is false; the frames sent back until the daemon's
        EOF."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(10.0)
            client.connect(sock_path)
            client.sendall(encode_frame(FrameKind.HELLO, encode_hello())
                           + b"".join(
                               encode_frame(FrameKind.REQUEST, payload,
                                            1.0 + index)
                               for index, payload
                               in enumerate(request_payloads)))
            if shut_wr:
                client.shutdown(socket.SHUT_WR)
            decoder, frames = FrameDecoder(), []
            while True:
                chunk = client.recv(1 << 16)
                if not chunk:
                    return frames
                frames.extend(decoder.feed(chunk))

    @staticmethod
    def _drift_replies(monkeypatch, faithful=0):
        """A reply encoder that slips in an entry nobody charged, from
        the reply after the first ``faithful`` ones."""
        encode_reply = daemon_module.encode_reply
        calls = itertools.count()

        def drifting(codec, reply, sender, timestamp):
            if next(calls) < faithful:
                return encode_reply(codec, reply, sender, timestamp)
            return encode_reply(codec, reply + (InstallSafePeriod(9.0),),
                                sender, timestamp)

        monkeypatch.setattr(daemon_module, "encode_reply", drifting)

    def test_reply_whose_sized_entries_disagree_is_caught(
            self, sock_path, monkeypatch):
        self._drift_replies(monkeypatch)
        daemon = make_daemon(verify_wire=True)
        frames = None
        with pytest.raises(WireFidelityError,
                           match="framed reply accounting drift"):
            with DaemonThread(daemon, path=sock_path):
                frames = self._exchange(
                    sock_path, daemon,
                    daemon.codec.encode_request(make_report()))
        assert frames is not None, "the exchange did not end"
        assert [frame.kind for frame in frames] == [FrameKind.ERROR]
        assert "framed reply accounting drift" \
            in decode_error(frames[0].payload)

    def test_drifting_reply_ends_its_connection_at_once(
            self, sock_path, monkeypatch):
        """A stop-and-wait client keeps its write side open: the ERROR
        frame and the daemon's EOF come without the client's EOF, well
        inside its 10 s read timeout."""
        self._drift_replies(monkeypatch)
        daemon = make_daemon(verify_wire=True)
        frames = None
        with pytest.raises(WireFidelityError,
                           match="framed reply accounting drift"):
            with DaemonThread(daemon, path=sock_path):
                frames = self._exchange(
                    sock_path, daemon,
                    daemon.codec.encode_request(make_report()),
                    shut_wr=False)
        assert frames is not None, "the exchange did not end"
        assert [frame.kind for frame in frames] == [FrameKind.ERROR]
        assert "framed reply accounting drift" \
            in decode_error(frames[0].payload)

    def test_replies_drained_before_a_drifting_one_are_written(
            self, sock_path, monkeypatch):
        """Two REQUESTs in one write are answered in one write and the
        second reply drifts.  The first exchange was handled and charged, so
        its REPLY reaches the wire ahead of the ERROR frame."""
        self._drift_replies(monkeypatch, faithful=1)
        daemon = make_daemon(verify_wire=True)
        frames = None
        with pytest.raises(WireFidelityError,
                           match="framed reply accounting drift"):
            with DaemonThread(daemon, path=sock_path):
                frames = self._exchange(
                    sock_path, daemon,
                    daemon.codec.encode_request(make_report(0)),
                    daemon.codec.encode_request(make_report(1)))
        assert frames is not None, "the exchange did not end"
        assert [frame.kind for frame in frames] \
            == [FrameKind.REPLY, FrameKind.ERROR]
        assert "framed reply accounting drift" \
            in decode_error(frames[1].payload)
        # Each charged exchange is answered on the wire: by its REPLY,
        # or, for the one that drifted, by the ERROR frame naming it.
        assert daemon.server.metrics.uplink_messages == len(frames)

    def test_request_sizing_that_drifts_from_the_frame_is_caught(
            self, sock_path, monkeypatch):
        size_of_request = WireCodec.size_of_request
        monkeypatch.setattr(WireCodec, "size_of_request",
                            lambda codec, request:
                            size_of_request(codec, request) + 1)
        daemon = make_daemon(verify_wire=True)
        frames = None
        with pytest.raises(WireFidelityError,
                           match="framed uplink accounting drift"):
            with DaemonThread(daemon, path=sock_path):
                frames = self._exchange(
                    sock_path, daemon,
                    daemon.codec.encode_request(make_report()))
        assert frames is not None, "the exchange did not end"
        assert [frame.kind for frame in frames] == [FrameKind.ERROR]
