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
import functools
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
from ..protocol.messages import Request
from ..protocol.spec import CLIENT_TRANSITIONS, STATE_AWAIT_HELLO
from ..protocol.transport import InProcessTransport, WireFidelityError
from ..protocol.wire import WireCodec
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
#: trace pair is 0/0 for untraced uplinks; the perf reading, taken
#: only for a traced one (else 0.0), feeds the ``queue_wait`` span
#: when the drain worker picks the request up.
_QueuedRequest = Tuple[float, Request, int, int, float]

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


def _end_reading(reader_task: Optional["asyncio.Task[None]"],
                 worker: "asyncio.Task[None]") -> None:
    """A drain worker that failed ends its connection's read at once.

    Otherwise the reader waits on the socket, and the ERROR frame
    naming the failure (a reply that failed ``verify_wire``) is sent
    only once the peer closes.  Cancelling the reader sends the
    connection through :meth:`AlarmDaemon._finish_connection`, which
    names the failure and closes.
    """
    if (reader_task is not None and not worker.cancelled()
            and worker.exception() is not None):
        reader_task.cancel()


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
    uplink queue (the backpressure knob).  ``verify_wire`` extends the
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
                 queue_limit: int = 256) -> None:
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
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        # verify_wire failures of any connection, raised by aclose().
        self._failures: List[WireFidelityError] = []
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
        a worker never reaped), and the close raises ``RuntimeError``
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
    # Per-connection reader
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
        # exception leaks the task (aclose()'s task-leak check).
        worker = asyncio.create_task(
            self._drain_queue(conn_id, queue, writer))
        worker.add_done_callback(
            functools.partial(_end_reading, asyncio.current_task()))
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
                            frame.span_id,
                            time.perf_counter() if traced else 0.0)
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
        except WireFidelityError as exc:
            clean = False
            error = str(exc)
            self._failures.append(exc)
        except (ConnectionError, OSError):
            clean = False
        except asyncio.CancelledError:
            # Daemon shutdown with this connection still open, or a
            # failed drain worker ending the read (_end_reading).  The
            # cancellation is absorbed (not re-raised): the cancellers
            # are our own aclose(), which is already awaiting this
            # task's orderly exit, and the worker, whose failure
            # _finish_connection reports.
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

    def _decode_request(self, frame: Frame) -> Request:
        try:
            request = self.codec.decode_request(frame.payload)
        except ValueError as exc:
            raise FramingError("undecodable REQUEST payload: %s"
                               % exc) from exc
        if self._accounting.verify_wire:
            _check_framed("uplink", len(frame.payload),
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
        except (asyncio.CancelledError, WireFidelityError):
            # The worker's own outcome is read below: _end_reading's
            # cancellation lands on this await when the worker fails
            # just as the reader finishes.
            pass
        failure = (worker.exception()
                   if worker.done() and not worker.cancelled() else None)
        if isinstance(failure, WireFidelityError):  # failed verify_wire
            error = error if error is not None else str(failure)
            self._failures.append(failure)
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
        failure: Optional[WireFidelityError] = None
        try:
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
                if self._accounting.verify_wire:
                    _check_framed("reply", reply_summary(payload)[2], sum(
                        self.codec.size_of_response(message)
                        for message in reply))
                # The REPLY envelope echoes the request's trace pair so
                # the client can correlate replies with its root spans.
                parts.append(encode_frame(FrameKind.REPLY, payload, time_s,
                                          trace_id, span_id))
                if traced:
                    self._emit_server_span(telemetry, time_s, trace_id,
                                           span_id, SPAN_REPLY_ENCODE,
                                           encode_started)
        except WireFidelityError as exc:
            # The exchanges before the failing one were handled and
            # charged: their replies go out ahead of the ERROR frame.
            failure = exc
        try:
            writer.write(b"".join(parts))
            await writer.drain()
        except (ConnectionError, OSError):
            if failure is None:
                return False
        if failure is not None:
            raise failure
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
