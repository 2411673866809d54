"""The asyncio alarm-serving daemon (``repro serve``).

One :class:`AlarmDaemon` serves one :class:`~repro.engine.server.AlarmServer`
plus one :class:`~repro.protocol.handlers.ServerPolicy` over a real byte
stream — TCP or a Unix domain socket.  Per connection it runs one
task, which answers each read where it reads it: it walks the read's
frames in order, decides each by one lookup in the session automaton
(:data:`~repro.protocol.spec.CLIENT_TRANSITIONS`; a frame without a
row is answered with ERROR, the connection's last frame), drives each
REQUEST through the stateless
:func:`~repro.protocol.handlers.handle_request` pipeline by way of the
same :class:`~repro.protocol.transport.InProcessTransport` accounting
path the serial engine uses, and answers a STATS frame with the state
the frames before it left.  The answers go out in one coalesced write
per ``batch_max`` replies and per read, each followed by
``await writer.drain()``: a peer that stops reading stalls its own
connection in ``drain``, and with it the reading of its socket, which
stalls the sender — backpressure end to end, and no other connection
waits.

Charging through the in-process transport is the point: the framed
path adds *zero* accounting code of its own, so its message and byte
totals are the in-process totals by construction — the conformance
suite then pins them against the wire goldens.

All mutable serving state (connection tasks, counters) lives on
daemon and connection scope — never at module level — so the module
satisfies rule RL004 in letter and intent; the only host-clock reads
are ``perf_counter`` deltas for the batch latency probe and the stage
spans (RL006's sanctioned form).
"""

from __future__ import annotations

import asyncio
import os
import stat
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Dict, List, Optional, Set, Tuple

from ..protocol.framing import (PROTOCOL_VERSION, Frame, FrameDecoder,
                                FrameKind, FramingError, decode_hello,
                                encode_error, encode_frame, encode_reply,
                                encode_stats, reply_summary)
from ..protocol.handlers import ServerPolicy
from ..protocol.spec import CLIENT_TRANSITIONS, STATE_AWAIT_HELLO
from ..protocol.transport import InProcessTransport, WireFidelityError
from ..protocol.wire import WireCodec
from ..telemetry.facade import Telemetry
from ..telemetry.metrics import Ledger, MetricsRegistry
from ..telemetry.spans import (SERVER_SPAN_IDS, SPAN_DECODE, SPAN_HANDLE,
                               SPAN_REPLY_ENCODE, STATUS_ERROR, STATUS_OK)
from ..engine.server import AlarmServer

#: Socket read size; large enough to complete many frames per wakeup.
_READ_CHUNK = 1 << 16

#: What a DaemonThread's loop thread publishes once bound: its running
#: loop and the bound TCP port (``None`` on a Unix socket).
_Bound = Tuple[asyncio.AbstractEventLoop, Optional[int]]


def _check_framed(direction: str, framed: int, charged: int) -> None:
    """A frame must carry exactly the bytes the transport charged.

    An uplink frame's payload is the request encoding; a reply frame's
    sized entries sum to the downlink bytes of that exchange.  The
    envelope (frame header, batch tags, in-band notifications) is free
    by design and is not counted in ``framed``.
    """
    if framed != charged:
        raise WireFidelityError(
            "framed %s accounting drift: frame carries %d charged "
            "byte(s) but the transport charged %d"
            % (direction, framed, charged))


def _stage_span(telemetry: Telemetry, frame: Frame, stage: str,
                status: str, started: float) -> float:
    """Record one finished serving stage; the ``perf_counter`` after it.

    ``started`` is the stage's begin reading.  The span id is the
    stage's fixed id from :data:`~repro.telemetry.spans.SERVER_SPAN_IDS`
    and the parent the client's root span id carried in the frame
    envelope; an untraced frame (trace id 0) feeds only the stage's
    histogram.
    """
    telemetry.span(frame.time_s, frame.trace_id, SERVER_SPAN_IDS[stage],
                   frame.span_id, stage, status,
                   (time.perf_counter() - started) * 1e6)
    return time.perf_counter()


class _OwnedByOneThread:
    """Refuse attribute writes from any thread but the owner's.

    ``__init__`` writes freely and ends with :meth:`_seal`.  The first
    thread to write after that owns the object, and a later write from
    any other thread raises ``RuntimeError`` naming the class, the
    attribute and both threads.  Reads are not intercepted, so the
    request path pays nothing.
    """

    _sealed = False
    _owner: Optional[threading.Thread] = None

    def _seal(self) -> None:
        object.__setattr__(self, "_sealed", True)

    def __setattr__(self, name: str, value: object) -> None:
        if self._sealed:
            current = threading.current_thread()
            owner = self._owner
            if owner is None:
                object.__setattr__(self, "_owner", current)
            elif owner is not current:
                raise RuntimeError(
                    "%s.%s written from thread %r; the object belongs to "
                    "thread %r" % (type(self).__name__, name, current.name,
                                   owner.name))
        object.__setattr__(self, name, value)


class AlarmDaemon(_OwnedByOneThread):
    """Asyncio server multiplexing framed client connections.

    ``batch_max`` bounds how many REPLY frames one coalesced write
    carries.  ``verify_wire`` extends the
    wire-fidelity contract to the framed path: every charged size is
    checked against the bytes actually framed.  A drift is named at
    once in the ERROR frame that ends its connection, and
    :meth:`aclose` raises it
    (:class:`~repro.protocol.transport.WireFidelityError`).
    Whatever the flags, :meth:`aclose` refuses to leave a daemon task
    running.
    The loop that serves the daemon owns it: attributes are written at
    start, at stop and once per connection, all on that loop's thread,
    and a write from any other thread raises.
    """

    def __init__(self, server: AlarmServer, policy: ServerPolicy,
                 codec: Optional[WireCodec] = None, *,
                 verify_wire: bool = False, batch_max: int = 64,
                 # Accepted, no effect: bench_e2e/daemon_main.py passes it.
                 queue_limit: int = 256) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be positive")
        self._accounting = InProcessTransport(server, policy, codec,
                                              verify_wire)
        self.server = server
        self.codec = self._accounting.codec
        self.batch_max = batch_max
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        # verify_wire failures of any connection, raised by aclose().
        self._failures: List[WireFidelityError] = []
        self._next_conn_id = 0
        self._seal()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start_unix(self, path: str) -> None:
        """Bind and listen on a Unix domain socket at ``path``."""
        self._prepare()
        if os.path.exists(path) and stat.S_ISSOCK(os.stat(path).st_mode):
            os.unlink(path)  # stale socket from a dead daemon
        self._asyncio_server = await asyncio.start_unix_server(
            self._accept, path=path)

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> int:
        """Bind and listen on TCP; returns the bound port."""
        self._prepare()
        self._asyncio_server = await asyncio.start_server(
            self._accept, host=host, port=port)
        sockets = self._asyncio_server.sockets
        assert sockets, "asyncio server bound no socket"
        bound_port: int = sockets[0].getsockname()[1]
        return bound_port

    def _prepare(self) -> None:
        if self._asyncio_server is not None:
            raise RuntimeError("daemon is already serving")
        self._stop_event = asyncio.Event()

    def request_stop(self) -> None:
        """Ask the daemon to stop (loop-thread only; idempotent).

        Also reachable over the wire: a SHUTDOWN frame on any
        connection (:meth:`SocketTransport.send_shutdown
        <repro.net.sockets.SocketTransport.send_shutdown>`) is the
        operator channel that stops a ``repro serve`` daemon.
        """
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`; then close every connection."""
        if self._asyncio_server is None or self._stop_event is None:
            raise RuntimeError("daemon was not started")
        try:
            await self._stop_event.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Stop listening and cancel live connections (idempotent).

        Connections accepted before the listener stopped are served
        and cancelled like the rest, and the listening server closes
        last, so no accepted socket outlives the close.  Then no task
        this module spawned may still be running: one that has escaped
        the ``_conn_tasks`` registry (a dropped ``create_task`` handle,
        a connection task spawned outside :meth:`_accept`), and the
        close raises ``RuntimeError``
        naming it.  Otherwise the first
        ``verify_wire`` failure of any connection is raised.
        """
        server = self._asyncio_server
        if server is None:
            return
        # Stop accepting before closing the server.  A connection that
        # asyncio has taken off the backlog still owes one loop turn
        # each to attach to the server, to reach _accept and to step
        # into the try whose finally closes it; an attach that runs
        # after server.close() fails inside asyncio and leaks the
        # accepted socket.
        loop = asyncio.get_running_loop()
        for listener in server.sockets:
            loop.remove_reader(listener.fileno())
        for _ in range(3):
            await asyncio.sleep(0)
        self._asyncio_server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        server.close()
        await server.wait_closed()
        pending = self._pending_task_names()
        if pending:
            raise RuntimeError(
                "task leak at daemon close: %d daemon task(s) still "
                "pending: %s" % (len(pending), ", ".join(sorted(pending))))
        if self._failures:
            raise self._failures[0]

    def _pending_task_names(self) -> List[str]:
        """Coroutine names of unfinished daemon-owned tasks.

        Run after :meth:`aclose` has cancelled and gathered everything
        it tracks: any task whose coroutine lives in this module and is
        still pending escaped the ``_conn_tasks`` registry (the daemon
        is the one module that spawns tasks, so this check is the whole
        task-lifecycle guard).
        """
        current = asyncio.current_task()
        names: List[str] = []
        for task in asyncio.all_tasks():
            if task is current or task.done():
                continue
            code = getattr(task.get_coro(), "cr_code", None)
            if code is not None and code.co_filename == __file__:
                names.append(code.co_name)
        return names

    # ------------------------------------------------------------------
    # Per-connection task
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Spawn a connection's task and register it in the same step.

        A task that registered itself on its first step would be missed
        by a close that came before that step.  A connection whose
        accept completes after the close is refused.
        """
        if self._asyncio_server is None:
            writer.close()
            return
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Answer each read's frames in order, in coalesced writes."""
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        telemetry = self.server.telemetry
        if telemetry.enabled:
            telemetry.net_conn_open(conn_id)
        decoder = FrameDecoder()
        batch_max = self.batch_max
        # Answers not yet written, and how many of them are REPLYs;
        # the first of those gives net_batch its clock and start.
        pending: List[bytes] = []
        replies = 0
        batch_time = batch_started = 0.0
        requests = 0
        clean = True
        error: Optional[str] = None

        async def write_pending() -> None:
            """One write of the pending answers; then wait out the peer."""
            nonlocal replies
            writer.write(b"".join(pending))
            pending.clear()
            written, replies = replies, 0
            await writer.drain()
            if written and telemetry.enabled:
                telemetry.net_batch(
                    batch_time, conn_id, written,
                    (time.perf_counter() - batch_started) * 1e6)

        try:
            state = STATE_AWAIT_HELLO
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    decoder.finish()  # raises if the peer died mid-frame
                    break
                for frame in decoder.frames(chunk):
                    # The session automaton decides every frame; the
                    # arms below only act on what it accepted.
                    kind = frame.kind
                    next_state = CLIENT_TRANSITIONS.get((state, kind))
                    if next_state is None:
                        raise FramingError(
                            "%s frame not accepted in session state %s"
                            % (kind.name, state))
                    state = next_state
                    if kind is FrameKind.REQUEST:
                        if not replies and telemetry.enabled:
                            batch_time = frame.time_s
                            batch_started = time.perf_counter()
                        pending.append(self._reply(frame, telemetry))
                        requests += 1
                        replies += 1
                        if replies == batch_max:
                            await write_pending()
                    elif kind is FrameKind.HELLO:
                        decode_hello(frame.payload)
                    elif kind is FrameKind.STATS:
                        # Read here, so it sees what every frame before
                        # it did, and sent after their replies.
                        pending.append(encode_frame(
                            FrameKind.STATS,
                            encode_stats(self.stats_snapshot()),
                            frame.time_s, frame.trace_id,
                            frame.span_id))
                    elif kind is FrameKind.SHUTDOWN:
                        if pending:
                            await write_pending()
                        self.request_stop()
                if pending:
                    await write_pending()
        except FramingError as exc:
            clean = False
            error = str(exc)
        except WireFidelityError as exc:
            clean = False
            error = str(exc)
            self._failures.append(exc)
        except (ConnectionError, OSError):
            clean = False
        except asyncio.CancelledError:
            # Daemon shutdown with this connection still open.  The
            # cancellation is absorbed (not re-raised): the canceller
            # is our own aclose(), which is already awaiting this
            # task's orderly exit.
            clean = False
        finally:
            try:
                await self._finish_connection(conn_id, writer, pending,
                                              clean, requests, error)
            except asyncio.CancelledError:
                # aclose() caught this connection already tearing
                # itself down; absorbed for the reason given above.
                pass

    def _reply(self, frame: Frame, telemetry: Telemetry) -> bytes:
        """Decode, handle and encode one REQUEST: its REPLY frame.

        With telemetry on, each stage is timed into one
        :func:`_stage_span` as it ends; the stage an exception escapes
        from is recorded ``error``, in the ``finally``.
        """
        time_s = frame.time_s
        codec = self.codec
        verify_wire = self._accounting.verify_wire
        timed = telemetry.enabled
        if timed:
            stage, status = SPAN_DECODE, STATUS_ERROR
            started = time.perf_counter()
        try:
            try:
                request = codec.decode_request(frame.payload)
            except ValueError as exc:
                raise FramingError("undecodable REQUEST payload: %s"
                                   % exc) from exc
            if verify_wire:
                _check_framed("uplink", len(frame.payload),
                              codec.size_of_request(request))
            if timed:
                started = _stage_span(telemetry, frame, stage, STATUS_OK,
                                      started)
                stage = SPAN_HANDLE
            reply = self._accounting.request(request, time_s)
            if timed:
                started = _stage_span(telemetry, frame, stage, STATUS_OK,
                                      started)
                stage = SPAN_REPLY_ENCODE
            payload = encode_reply(codec, reply, request.user_id, time_s)
            if verify_wire:
                _check_framed("reply", reply_summary(payload)[2], sum(
                    codec.size_of_response(message) for message in reply))
            # The REPLY envelope echoes the request's trace pair so the
            # client can correlate replies with its root spans.
            framed = encode_frame(FrameKind.REPLY, payload, time_s,
                                  frame.trace_id, frame.span_id)
            status = STATUS_OK
            return framed
        finally:
            if timed:
                _stage_span(telemetry, frame, stage, status, started)

    async def _finish_connection(
            self, conn_id: int, writer: asyncio.StreamWriter,
            pending: List[bytes], clean: bool, requests: int,
            error: Optional[str]) -> None:
        # The answers handled before the end go out first: nothing may
        # follow an ERROR on the wire.
        if error is not None:
            pending.append(encode_frame(FrameKind.ERROR,
                                        encode_error(error)))
        if pending:
            try:
                writer.write(b"".join(pending))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        finally:
            # Also on the CancelledError of an aclose() that finds the
            # task parked in wait_closed: the connection is over either
            # way, and a skipped close leaves net_connections_closed
            # one short of opened.
            telemetry = self.server.telemetry
            if telemetry.enabled:
                telemetry.net_conn_close(conn_id, clean, requests)

    # ------------------------------------------------------------------
    # Operator STATS channel
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, object]:
        """The live introspection snapshot a STATS frame is answered
        with.

        Deterministic given the serving state: engine counters, the
        telemetry registry dump (empty when telemetry is off), the live
        gauge of open connections read straight from the connection
        task registry (the scraping connection counts itself),
        and the serving configuration.  Encoded canonically by
        :func:`~repro.protocol.framing.encode_stats`, so two scrapes
        of an idle daemon are byte-identical.
        """
        telemetry = self.server.telemetry
        ledger = Ledger(self.server.metrics.counters(),
                        telemetry.registry if telemetry.enabled
                        else MetricsRegistry())
        return {
            **ledger.to_payload(),
            "live": {
                "connections_open": len(self._conn_tasks),
            },
            "serving": {
                "batch_max": self.batch_max,
                "protocol_version": PROTOCOL_VERSION,
            },
        }


class DaemonThread(_OwnedByOneThread):
    """Host one :class:`AlarmDaemon` in a background event-loop thread.

    The network engine and the test suite run daemon and client in one
    process — server state, metrics and telemetry stay inspectable —
    while the bytes still cross a real socket.  Context-manager use
    guarantees the loop thread is joined::

        with DaemonThread(daemon, path=sock) as hosted:
            transport = SocketTransport.connect_unix(hosted.path)
            ...

    The thread that calls :meth:`start` owns this object; the loop
    thread never writes to it and owns the daemon instead.  Whatever
    ended the loop thread — a failed close included — is raised again
    by :meth:`stop`, and so by leaving the ``with`` block.
    """

    def __init__(self, daemon: AlarmDaemon, *, path: Optional[str] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.daemon = daemon
        self.path = path
        self.host = host
        self._requested_port = port
        self._thread: Optional[threading.Thread] = None
        # The loop thread's one publication: what it bound, or the
        # exception that stopped it first.
        self._started: "Future[_Bound]" = Future()
        # Its last: how the loop ended, read once by stop().
        self._ended: "Future[None]" = Future()
        self._reported = False
        self._seal()

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port; ``None`` before start and on a Unix socket."""
        published = self._published()
        return None if published is None else published[1]

    def _published(self) -> Optional[_Bound]:
        started = self._started
        if started.done() and started.exception() is None:
            return started.result()
        return None

    def start(self) -> "DaemonThread":
        if self._thread is not None:
            raise RuntimeError("daemon thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-alarm-daemon", daemon=True)
        self._thread.start()
        try:
            error = self._started.exception(timeout=30.0)
        except FutureTimeout:
            raise RuntimeError(
                "daemon thread failed to start in time") from None
        if error is not None:
            raise RuntimeError("daemon failed to start: %s" % error) \
                from error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by stop()
            self._ended.set_exception(exc)
        else:
            self._ended.set_result(None)

    async def _main(self) -> None:
        # Everything before publication sits in the try, so start()
        # sees every startup failure at once rather than at its timeout.
        try:
            port: Optional[int] = None
            if self.path is not None:
                await self.daemon.start_unix(self.path)
            else:
                port = await self.daemon.start_tcp(
                    self.host, self._requested_port)
            self._started.set_result((asyncio.get_running_loop(), port))
        except BaseException as exc:  # surfaced by start()
            self._started.set_exception(exc)
            return
        await self.daemon.serve_until_stopped()

    def stop(self) -> None:
        """Stop the daemon and join the loop thread (idempotent).

        Raises, once, the exception that ended the loop thread.
        """
        published = self._published()
        loop = None if published is None else published[0]
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.daemon.request_stop)
            except RuntimeError:
                pass  # loop already shut down between the checks
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        ended = self._ended
        if ended.done() and not self._reported:
            error = ended.exception()
            if error is not None:
                self._reported = True
                raise error

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
