"""The asyncio alarm-serving daemon (``repro serve``).

One :class:`AlarmDaemon` serves one :class:`~repro.engine.server.AlarmServer`
plus one :class:`~repro.protocol.handlers.ServerPolicy` over a real byte
stream — TCP or a Unix domain socket.  Per connection it runs two
tasks:

* a **reader** that decides each frame by one lookup in the session
  automaton (:data:`~repro.protocol.spec.CLIENT_TRANSITIONS`; a frame
  without a row is answered with ERROR, the connection's last frame)
  and feeds decoded REQUEST frames into a bounded
  :class:`asyncio.Queue` — when the queue is full the reader blocks,
  which stops reading the socket, which fills the kernel buffers,
  which stalls the sender: backpressure end to end, with a
  ``net_backpressure`` event per stall;
* a **drain worker** pulling requests in batches (up to ``batch_max``
  per wakeup), driving the stateless
  :func:`~repro.protocol.handlers.handle_request` pipeline through the
  same :class:`~repro.protocol.transport.InProcessTransport` accounting
  path the serial engine uses, and writing one REPLY frame per request
  in a single coalesced write.

Charging through the in-process transport is the point: the framed
path adds *zero* accounting code of its own, so its message and byte
totals are the in-process totals by construction — the conformance
suite then pins them against the wire goldens.

All mutable serving state (connection tasks, queues, counters) lives
on daemon and connection scope — never at module level — so the module
satisfies rule RL004 in letter and intent; the only host-clock reads
are ``perf_counter`` deltas for the batch latency probe (RL006's
sanctioned form).
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
from ..protocol.messages import Request, downlink_kind
from ..protocol.spec import CLIENT_TRANSITIONS, STATE_AWAIT_HELLO
from ..protocol.transport import InProcessTransport
from ..protocol.wire import WireCodec
from ..sanitize import LOOP_WATCHDOG_INTERVAL_S, Sanitizer
from ..telemetry.facade import Telemetry
from ..telemetry.spans import (SERVER_SPAN_IDS, SPAN_DECODE, SPAN_HANDLE,
                               SPAN_QUEUE_WAIT, SPAN_REPLY_ENCODE,
                               STATUS_OK)
from ..engine.server import AlarmServer

#: Socket read size; large enough to complete many frames per wakeup.
_READ_CHUNK = 1 << 16

#: Queue sentinel telling a drain worker its connection is done.
_SENTINEL = None

#: One queued uplink: (envelope simulation time, decoded request,
#: trace id, client span id, enqueue ``perf_counter`` reading).  The
#: trace pair is 0/0 for untraced uplinks; the perf reading feeds the
#: ``queue_wait`` span when the drain worker picks the request up.
_QueuedRequest = Tuple[float, Request, int, int, float]

#: What a DaemonThread's loop thread publishes once bound: its running
#: loop and the bound TCP port (``None`` on a Unix socket).
_Bound = Tuple[asyncio.AbstractEventLoop, Optional[int]]


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

    ``batch_max`` bounds how many queued uplinks one drain wakeup
    processes before writing; ``queue_limit`` bounds the per-connection
    uplink queue (the backpressure knob).  ``verify_wire`` and
    ``sanitizer`` extend the wire-fidelity contract to the framed path:
    every charged size is checked against the bytes actually framed.
    The loop that serves the daemon owns it: attributes are written at
    start, at stop and once per connection, all on that loop's thread,
    and a write from any other thread raises.
    """

    def __init__(self, server: AlarmServer, policy: ServerPolicy,
                 codec: Optional[WireCodec] = None, *,
                 verify_wire: bool = False, batch_max: int = 64,
                 queue_limit: int = 256,
                 sanitizer: Optional[Sanitizer] = None) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be positive")
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        self._accounting = InProcessTransport(server, policy, codec,
                                              verify_wire)
        self.server = server
        self.codec = self._accounting.codec
        self.batch_max = batch_max
        self.queue_limit = queue_limit
        # None consults REPRO_SANITIZE, so a sanitized test run (or
        # `repro serve` under the env flag) gets the loop watchdog
        # without every construction site threading the flag through.
        self._sanitizer = sanitizer if sanitizer is not None \
            else Sanitizer.resolve(None)
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        self._watchdog: Optional["asyncio.Task[None]"] = None
        self._next_conn_id = 0
        # Live per-connection uplink queues, keyed by connection id —
        # the STATS snapshot reads open-connection and queue-depth
        # gauges straight from here (loop-thread only, like all daemon
        # state).
        self._conn_queues: Dict[
            int, "asyncio.Queue[Optional[_QueuedRequest]]"] = {}
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
            self._handle_connection, path=path)

    async def start_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> int:
        """Bind and listen on TCP; returns the bound port."""
        self._prepare()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, host=host, port=port)
        sockets = self._asyncio_server.sockets
        assert sockets, "asyncio server bound no socket"
        bound_port: int = sockets[0].getsockname()[1]
        return bound_port

    def _prepare(self) -> None:
        if self._asyncio_server is not None:
            raise RuntimeError("daemon is already serving")
        self._stop_event = asyncio.Event()
        if self._sanitizer.enabled and self._watchdog is None:
            self._watchdog = asyncio.create_task(
                self._stall_watchdog())

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
        """Stop listening and cancel live connections (idempotent)."""
        server = self._asyncio_server
        if server is None:
            await self._close_watchdog()
            return
        self._asyncio_server = None
        server.close()
        await server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        await self._close_watchdog()
        if self._sanitizer.enabled:
            self._sanitizer.check_task_leaks(self._pending_task_names())
            self._sanitizer.check_loop_health()
            self._sanitizer.check_span_balance()

    async def _stall_watchdog(self) -> None:
        """Sample event-loop responsiveness while serving.

        Each wakeup measures how late a periodic ``asyncio.sleep``
        fired; the worst delay is reported to the sanitizer, whose
        ``check_loop_health`` fails the run at close if any callback
        held the loop past the stall threshold — the runtime shadow of
        the PA005 no-blocking-calls contract.  Only spawned when the
        sanitizer is on; cancelled (and awaited) by :meth:`aclose`.
        """
        interval = LOOP_WATCHDOG_INTERVAL_S
        while True:
            before = time.perf_counter()
            await asyncio.sleep(interval)
            lag = time.perf_counter() - before - interval
            self._sanitizer.note_loop_lag(lag)

    async def _close_watchdog(self) -> None:
        if self._watchdog is None:
            return
        self._watchdog.cancel()
        try:
            await self._watchdog
        except asyncio.CancelledError:
            pass
        self._watchdog = None

    def _pending_task_names(self) -> List[str]:
        """Coroutine names of unfinished daemon-owned tasks.

        Run after :meth:`aclose` has cancelled and gathered everything
        it tracks: any task whose coroutine lives in this module and is
        still pending escaped the ``_conn_tasks``/watchdog registries
        (the daemon is the one module that spawns tasks, so this check
        is the whole task-lifecycle guard).
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
    # Per-connection reader
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        telemetry = self.server.telemetry
        if telemetry.enabled:
            telemetry.net_conn_open(conn_id)
        queue: "asyncio.Queue[Optional[_QueuedRequest]]" = asyncio.Queue(
            maxsize=self.queue_limit)
        self._conn_queues[conn_id] = queue
        decoder = FrameDecoder()
        requests = 0
        clean = True
        error: Optional[str] = None
        # Spawned last: every statement between this spawn and the
        # try/finally that reaps the worker would be a window where an
        # exception leaks the task (the PA009 contract).
        worker = asyncio.create_task(
            self._drain_queue(conn_id, queue, writer))
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
                        traced = (telemetry.enabled
                                  and frame.trace_id != 0)
                        decode_started = (time.perf_counter() if traced
                                          else 0.0)
                        request = self._decode_request(frame)
                        if traced:
                            self._emit_server_span(
                                telemetry, frame.time_s, frame.trace_id,
                                frame.span_id, SPAN_DECODE,
                                decode_started)
                        requests += 1
                        item: _QueuedRequest = (
                            frame.time_s, request, frame.trace_id,
                            frame.span_id, time.perf_counter())
                        try:
                            # Fast path: space available, no await.
                            queue.put_nowait(item)
                        except asyncio.QueueFull:
                            if telemetry.enabled:
                                telemetry.net_backpressure(
                                    frame.time_s, conn_id, queue.qsize())
                            await queue.put(item)
                    elif kind is FrameKind.HELLO:
                        decode_hello(frame.payload)
                    elif kind is FrameKind.STATS:
                        # Answered directly from the reader: one
                        # writer.write call is atomic with respect to
                        # the drain worker's coalesced writes, so the
                        # snapshot frame never interleaves mid-frame.
                        writer.write(encode_frame(
                            FrameKind.STATS,
                            encode_stats(self.stats_snapshot()),
                            frame.time_s, frame.trace_id,
                            frame.span_id))
                        await writer.drain()
                    elif kind is FrameKind.SHUTDOWN:
                        self.request_stop()
        except FramingError as exc:
            clean = False
            error = str(exc)
        except (ConnectionError, OSError):
            clean = False
        except asyncio.CancelledError:
            # Daemon shutdown with this connection still open.  The
            # cancellation is absorbed (not re-raised): asyncio.streams
            # logs a callback error for a connection task that ends
            # cancelled, and the only canceller is our own aclose(),
            # which is already awaiting this task's orderly exit.
            clean = False
        finally:
            try:
                await self._finish_connection(conn_id, queue, worker,
                                              writer, clean, requests,
                                              error)
            except asyncio.CancelledError:
                # aclose() caught this connection already tearing
                # itself down; absorbed for the reason given above.
                pass
            finally:
                if task is not None:
                    self._conn_tasks.discard(task)

    def _decode_request(self, frame: Frame) -> Request:
        try:
            request = self.codec.decode_request(frame.payload)
        except Exception as exc:
            raise FramingError("undecodable REQUEST payload: %s"
                               % exc) from exc
        if self._sanitizer.enabled:
            self._sanitizer.check_frame(
                "uplink", len(frame.payload),
                self.codec.size_of_request(request))
        return request

    async def _finish_connection(
            self, conn_id: int,
            queue: "asyncio.Queue[Optional[_QueuedRequest]]",
            worker: "asyncio.Task[None]", writer: asyncio.StreamWriter,
            clean: bool, requests: int,
            error: Optional[str]) -> None:
        # Answer the work queued before the end (or, when the queue is
        # full and a put would block, cancel it) before any ERROR
        # frame: nothing may follow an ERROR on the wire.
        try:
            queue.put_nowait(_SENTINEL)
        except asyncio.QueueFull:
            worker.cancel()
        try:
            await worker
        except asyncio.CancelledError:
            pass
        if error is not None:
            try:
                writer.write(encode_frame(FrameKind.ERROR,
                                          encode_error(error)))
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
            # way, and a skipped close leaks the queue entry and leaves
            # net_connections_closed one short of opened.
            self._conn_queues.pop(conn_id, None)
            telemetry = self.server.telemetry
            if telemetry.enabled:
                telemetry.net_conn_close(conn_id, clean, requests)

    # ------------------------------------------------------------------
    # Per-connection drain worker
    # ------------------------------------------------------------------
    async def _drain_queue(
            self, conn_id: int,
            queue: "asyncio.Queue[Optional[_QueuedRequest]]",
            writer: asyncio.StreamWriter) -> None:
        broken = False
        while True:
            item = await queue.get()
            if item is _SENTINEL:
                return
            batch: List[_QueuedRequest] = [item]
            stop = False
            while len(batch) < self.batch_max:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _SENTINEL:
                    stop = True
                    break
                batch.append(extra)
            if not broken:
                broken = not await self._serve_batch(conn_id, batch,
                                                     writer)
            if stop:
                return

    async def _serve_batch(self, conn_id: int,
                           batch: List[_QueuedRequest],
                           writer: asyncio.StreamWriter) -> bool:
        """Handle one drained batch; returns ``False`` on a dead peer."""
        telemetry = self.server.telemetry
        started = time.perf_counter() if telemetry.enabled else 0.0
        parts: List[bytes] = []
        for time_s, request, trace_id, span_id, enqueued in batch:
            traced = telemetry.enabled and trace_id != 0
            if traced:
                # queue_wait: enqueue (reader) → this drain wakeup.
                self._emit_server_span(telemetry, time_s, trace_id,
                                       span_id, SPAN_QUEUE_WAIT,
                                       enqueued)
            handle_started = time.perf_counter() if traced else 0.0
            reply = self._accounting.request(request, time_s)
            if traced:
                self._emit_server_span(telemetry, time_s, trace_id,
                                       span_id, SPAN_HANDLE,
                                       handle_started)
            encode_started = time.perf_counter() if traced else 0.0
            payload = encode_reply(self.codec, reply, request.user_id,
                                   time_s)
            if self._sanitizer.enabled:
                charged = sum(
                    self.codec.size_of_response(message)
                    for message in reply
                    if downlink_kind(message) is not None)
                self._sanitizer.check_frame(
                    "reply", reply_summary(payload)[2], charged)
            # The REPLY envelope echoes the request's trace pair so
            # the client can correlate replies with its root spans.
            parts.append(encode_frame(FrameKind.REPLY, payload, time_s,
                                      trace_id, span_id))
            if traced:
                self._emit_server_span(telemetry, time_s, trace_id,
                                       span_id, SPAN_REPLY_ENCODE,
                                       encode_started)
        try:
            writer.write(b"".join(parts))
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        if telemetry.enabled:
            telemetry.net_batch(batch[0][0], conn_id, len(batch),
                                (time.perf_counter() - started) * 1e6)
        return True

    def _emit_server_span(self, telemetry: Telemetry, time_s: float,
                          trace_id: int, parent_id: int, name: str,
                          started: float) -> None:
        """Emit one completed server-stage span, retrospectively.

        Server spans are opened and closed adjacently (the stage has
        already finished; ``started`` is its begin ``perf_counter``
        reading) so no span is ever held across an ``await`` — the
        ledger stays balanced even if the connection dies between
        stages.  The span id is the stage's fixed id from
        :data:`~repro.telemetry.spans.SERVER_SPAN_IDS`; the parent is
        the client's root span id carried in the frame envelope.
        """
        span_id = SERVER_SPAN_IDS[name]
        # Sanitizer bookkeeping runs before the telemetry pair so the
        # open and close events are emitted back to back with nothing
        # exception-capable between them (the PA009 contract).
        if self._sanitizer.enabled:
            self._sanitizer.note_span_open(trace_id, span_id)
            self._sanitizer.note_span_close(trace_id, span_id)
        telemetry.span_open(time_s, trace_id, span_id, parent_id, name)
        telemetry.span_close(time_s, trace_id, span_id, STATUS_OK,
                             (time.perf_counter() - started) * 1e6)

    # ------------------------------------------------------------------
    # Operator STATS channel
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, object]:
        """The live introspection snapshot a STATS frame is answered
        with.

        Deterministic given the serving state: engine counters, the
        telemetry registry dump (empty when telemetry is off), live
        gauges read straight from the connection registry (the
        scraping connection counts itself in ``connections_open``),
        and the serving configuration.  Encoded canonically by
        :func:`~repro.protocol.framing.encode_stats`, so two scrapes
        of an idle daemon are byte-identical.
        """
        telemetry = self.server.telemetry
        queues = {str(conn_id): q.qsize()
                  for conn_id, q in sorted(self._conn_queues.items())}
        return {
            "metrics": self.server.metrics.counters(),
            "registry": (telemetry.registry.to_dict()
                         if telemetry.enabled else {}),
            "live": {
                "connections_open": len(self._conn_queues),
                "queue_depth": queues,
                "queue_depth_total": sum(queues.values()),
            },
            "serving": {
                "batch_max": self.batch_max,
                "queue_limit": self.queue_limit,
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
    thread never writes to it and owns the daemon instead.
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
            target=lambda: asyncio.run(self._main()),
            name="repro-alarm-daemon", daemon=True)
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
        """Stop the daemon and join the loop thread (idempotent)."""
        published = self._published()
        loop = None if published is None else published[0]
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self.daemon.request_stop)
            except RuntimeError:
                pass  # loop already shut down between the checks
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
