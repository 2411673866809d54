"""Client side of the framed socket protocol.

:class:`SocketTransport` is a blocking-socket
:class:`~repro.protocol.transport.Transport`: a
:class:`~repro.protocol.transport.ClientSession` drives it exactly as it
drives the in-process transports, while every exchange actually
crosses a TCP or Unix-domain stream as frames (see
:mod:`repro.protocol.framing`).

Division of accounting labour: the **daemon** charges all traffic
(through its in-process transport), so this client charges nothing —
with client and daemon in one test process the shared ``Metrics``
would otherwise double-count.  The client's only instruments are the
optional ``net_rtt_us`` histogram and the client span records.

Bitmap strategies need one extra ingredient: a bitmap downlink carries
the cell reference and the payload bits, but decoding the bits into a
:class:`~repro.saferegion.bitmap.PyramidBitmap` requires the pyramid
*geometry* (fan-out and height), which both ends know statically from
the strategy.  :func:`bitmap_geometry_of` extracts it from a strategy
and :func:`pyramid_resolver` turns it into the ``pyramid_for``
callback :func:`~repro.protocol.framing.decode_reply` wants.
"""

from __future__ import annotations

import socket
import time
from collections import deque
from typing import Callable, Deque, Dict, NamedTuple, Optional

from ..index import CellId, GridOverlay, Pyramid
from ..protocol.framing import (Frame, FrameDecoder, FrameKind, FramingError,
                                decode_error, decode_reply, decode_stats,
                                encode_frame, encode_hello)
from ..protocol.messages import Request, Response, ServerReply
from ..protocol.transport import Transport, TransportError
from ..protocol.wire import WireCodec, unpack_cell_ref
from ..telemetry.facade import DISABLED, Telemetry
from ..telemetry.spans import (ROOT_SPAN_ID, SPAN_CLIENT_REQUEST,
                               STATUS_ERROR, STATUS_OK, make_trace_id)

#: Socket read size, matching the daemon's.
_READ_CHUNK = 1 << 16
#: Default bound on connecting and on each blocking read, in seconds.
_TIMEOUT_S = 30.0


class PyramidGeometry(NamedTuple):
    """Static pyramid shape a bitmap strategy and its clients share."""

    fan_cols: int
    fan_rows: int
    height: int


def bitmap_geometry_of(strategy: object) -> Optional[PyramidGeometry]:
    """The pyramid geometry a strategy's bitmap downlinks assume.

    Returns ``None`` for strategies that never ship bitmaps.  The bitmap
    computer exposes its shape as ``fan``/``height`` (GBSR is height 1).
    """
    computer = getattr(strategy, "computer", None)
    fan = getattr(computer, "fan", None)
    height = getattr(computer, "height", None)
    if fan is not None and height is not None:
        return PyramidGeometry(fan, fan, height)
    return None


def pyramid_resolver(grid: GridOverlay,
                     geometry: PyramidGeometry
                     ) -> Callable[[int], Pyramid]:
    """``pyramid_for`` callback mapping a wire cell ref to its pyramid."""

    def resolve(cell_ref: int) -> Pyramid:
        col, row = unpack_cell_ref(cell_ref)
        return Pyramid(grid.cell_rect(CellId(col, row)),
                       fan_cols=geometry.fan_cols,
                       fan_rows=geometry.fan_rows,
                       height=geometry.height)

    return resolve


class SocketTransport(Transport):
    """Blocking framed-socket client transport (stop-and-wait).

    ``request`` frames one uplink, then reads until the matching REPLY
    frame arrives.  Any ERROR frame, a frame of a kind the daemon never
    sends, EOF, or timeout surfaces as
    :class:`~repro.protocol.transport.TransportError` — never a hang.

    With telemetry enabled, every request is traced: the transport
    assigns a trace id (``client_id`` salts the ids so concurrently
    tracing transports never collide in one trace file), stamps the
    REQUEST frame's envelope with the ``(trace, span)`` pair for the
    daemon to continue, and writes one ``client_request`` root span
    on *every* exit path — ``"ok"`` on a decoded reply, ``"error"`` on
    a send failure, timeout, EOF, ERROR frame or undecodable reply.
    """

    def __init__(self, sock: socket.socket,
                 codec: Optional[WireCodec] = None, *,
                 pyramid_for: Optional[Callable[[int], Pyramid]] = None,
                 telemetry: Optional[Telemetry] = None,
                 timeout_s: float = _TIMEOUT_S,
                 client_id: int = 0) -> None:
        self.codec = codec if codec is not None else WireCodec()
        self.pyramid_for = pyramid_for
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self._sock: Optional[socket.socket] = sock
        self._decoder = FrameDecoder()
        self._pending: Deque[Frame] = deque()
        self._client_id = client_id
        self._trace_count = 0
        sock.settimeout(timeout_s)
        sock.sendall(encode_frame(FrameKind.HELLO, encode_hello()))

    # ------------------------------------------------------------------
    @classmethod
    def connect_unix(cls, path: str, codec: Optional[WireCodec] = None,
                     **kwargs: object) -> "SocketTransport":
        """Connect to a daemon listening on a Unix domain socket."""
        timeout_s = kwargs.get("timeout_s", _TIMEOUT_S)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout_s)  # type: ignore[arg-type]
            sock.connect(path)
            return cls(sock, codec, **kwargs)  # type: ignore[arg-type]
        except BaseException:
            sock.close()
            raise

    @classmethod
    def connect_tcp(cls, host: str, port: int,
                    codec: Optional[WireCodec] = None,
                    **kwargs: object) -> "SocketTransport":
        """Connect to a daemon listening on TCP ``host:port``."""
        timeout_s = kwargs.get("timeout_s", _TIMEOUT_S)
        sock = socket.create_connection(
            (host, port), timeout_s)  # type: ignore[arg-type]
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return cls(sock, codec, **kwargs)  # type: ignore[arg-type]
        except BaseException:
            sock.close()
            raise

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    def request(self, request: Request, time_s: float) -> ServerReply:
        self._require_socket()
        payload = self.codec.encode_request(request)
        telemetry = self.telemetry
        traced = telemetry.enabled
        trace_id = span_id = 0
        if traced:
            self._trace_count += 1
            trace_id = make_trace_id(self._client_id, self._trace_count)
            span_id = ROOT_SPAN_ID
            status = STATUS_ERROR
            started = time.perf_counter()
        try:
            self._send(encode_frame(FrameKind.REQUEST, payload, time_s,
                                    trace_id, span_id))
            frame = self._read_frame(FrameKind.REPLY)
            try:
                reply = decode_reply(self.codec, frame.payload,
                                     pyramid_for=self.pyramid_for)
            except FramingError as exc:
                raise TransportError("undecodable REPLY: %s"
                                     % exc) from exc
            if traced:
                telemetry.net_rtt((time.perf_counter() - started) * 1e6)
                status = STATUS_OK
            return reply
        finally:
            # Every exit writes the span: an exchange that died (send
            # error, timeout, EOF, ERROR frame, undecodable reply)
            # still happened, and its record is the worst latency.
            if traced:
                telemetry.span(time_s, trace_id, span_id, 0,
                               SPAN_CLIENT_REQUEST, status,
                               (time.perf_counter() - started) * 1e6)

    def push(self, user_id: int, message: Response,
             time_s: float) -> None:
        raise TransportError(
            "socket clients receive pushes; they cannot send them")

    # ------------------------------------------------------------------
    def _require_socket(self) -> socket.socket:
        if self._sock is None:
            raise TransportError("transport is closed")
        return self._sock

    def _send(self, data: bytes) -> None:
        try:
            self._require_socket().sendall(data)
        except OSError as exc:
            raise TransportError("send failed: %s" % exc) from exc

    def _read_frame(self, wanted: FrameKind) -> Frame:
        """Read until a ``wanted`` frame arrives."""
        sock = self._require_socket()
        while True:
            while self._pending:
                frame = self._pending.popleft()
                if frame.kind is wanted:
                    return frame
                if frame.kind is FrameKind.ERROR:
                    raise TransportError(
                        "server error: %s" % decode_error(frame.payload))
                else:
                    raise TransportError(
                        "unexpected %s frame from the server"
                        % frame.kind.name)
            try:
                chunk = sock.recv(_READ_CHUNK)
            except socket.timeout as exc:
                raise TransportError(
                    "timed out waiting for a %s frame"
                    % wanted.name) from exc
            except OSError as exc:
                raise TransportError("receive failed: %s" % exc) from exc
            if not chunk:
                mid_frame = self._decoder.buffered > 0
                raise TransportError(
                    "server closed the connection mid-frame" if mid_frame
                    else "server closed the connection")
            try:
                self._pending.extend(self._decoder.feed(chunk))
            except FramingError as exc:
                raise TransportError(
                    "corrupt frame from the server: %s" % exc) from exc

    # ------------------------------------------------------------------
    def send_shutdown(self) -> None:
        """Ask the daemon to stop serving (operator channel)."""
        self._send(encode_frame(FrameKind.SHUTDOWN, b""))

    def stats(self) -> Dict[str, object]:
        """One STATS exchange (operator channel): the daemon's snapshot.

        The scrape's whole conversation: the daemon sends nothing after
        the snapshot, so bytes that follow it are refused.
        """
        self._send(encode_frame(FrameKind.STATS, b""))
        frame = self._read_frame(FrameKind.STATS)
        if self._pending or self._decoder.buffered:
            raise TransportError("undecodable STATS snapshot: bytes "
                                 "follow it")
        try:
            return decode_stats(frame.payload)
        except FramingError as exc:
            raise TransportError("undecodable STATS snapshot: %s"
                                 % exc) from exc

    def close(self) -> None:
        """Close the socket (idempotent)."""
        sock = self._sock
        if sock is None:
            return
        self._sock = None
        try:
            sock.close()
        except OSError:
            pass

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
