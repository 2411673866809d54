"""Length-prefixed frame codec for the socket transport (sans-IO).

The :class:`~repro.protocol.wire.WireCodec` defines what one *message*
looks like in bytes; this module defines how messages travel over a
*byte stream* (TCP or a Unix domain socket), where the peer's reads may
split the stream at any boundary.  Every frame is a fixed 32-byte
header followed by a length-prefixed payload::

    magic:    u8   (0xF7 — rejects peers speaking another protocol)
    kind:     u8   (:class:`FrameKind`)
    reserved: u16  (zero on the wire)
    length:   u32  (payload bytes; capped at :data:`MAX_FRAME_PAYLOAD`)
    time:     f64  (simulation-clock seconds of the exchange)
    trace:    u64  (client-assigned trace id; 0 = untraced)
    span:     u64  (sender's span id within the trace; 0 = untraced)

The simulation clock and the trace context ride the *envelope*, never
a charged payload: an uplink report carries no timestamp field of its
own (the 32-byte :class:`~repro.protocol.messages.LocationReport`
layout is unchanged), so the framed path charges exactly the bytes the
in-process path charges — the conformance suite pins the equality
against the wire goldens.  A REPLY echoes the REQUEST's trace and span
ids, which is how a client follows one uplink from its own span
through the daemon's child spans to the answer
(``docs/OBSERVABILITY.md``).

:class:`FrameDecoder` is deliberately incremental — feed it chunks as
they arrive and it yields complete frames, buffering any tail —
because the property suite replays encodings split at every byte
boundary.  Nothing in this module touches a socket; both the asyncio
daemon and the blocking client transport (:mod:`repro.net`) drive it.

A REPLY frame carries a whole :data:`~repro.protocol.messages.ServerReply`
batch: a u16 message count, then per message a tag byte — tag 0 is an
in-band :class:`~repro.protocol.messages.AlarmNotification` (u64 alarm
id, charged zero bytes like the in-process path), tag 1 is a sized
payload (u32 length + the codec's ``encode_response`` bytes, the only
part that counts as downlink traffic).
"""

from __future__ import annotations

import json
import struct
from enum import IntEnum
from typing import (Dict, Iterator, List, Mapping, NamedTuple, Optional,
                    Tuple)

from .messages import AlarmNotification, Response, ServerReply
from .wire import PyramidResolver, WireCodec

#: First byte of every frame; anything else is a foreign protocol.
FRAME_MAGIC = 0xF7

#: Hard cap on one frame's payload.  Large enough for any OPT alarm
#: push the 16-bit downlink length field can express, small enough
#: that a corrupt length prefix cannot make a peer buffer gigabytes.
MAX_FRAME_PAYLOAD = 1 << 20

#: Version carried by HELLO; bumped on any layout change.  Version 2
#: widened the header from 16 to 32 bytes for the trace/span ids.
PROTOCOL_VERSION = 2

_FRAME_HEADER = struct.Struct("<BBHIdQQ")   # 32 bytes
FRAME_HEADER_SIZE = _FRAME_HEADER.size

_HELLO = struct.Struct("<H")
_REPLY_COUNT = struct.Struct("<H")
_REPLY_NOTIFICATION = struct.Struct("<Q")
_REPLY_LENGTH = struct.Struct("<I")

#: REPLY batch entry tags.
_TAG_NOTIFICATION = 0
_TAG_PAYLOAD = 1

#: The payload of an empty REPLY batch (a PRD fix that fires nothing).
_EMPTY_REPLY = _REPLY_COUNT.pack(0)


class FrameKind(IntEnum):
    """Frame discriminators of the socket protocol."""

    HELLO = 1      # client -> server: protocol version handshake
    REQUEST = 2    # client -> server: one encoded uplink report
    REPLY = 3      # server -> client: the request's ServerReply batch
    PUSH = 4       # unused: no session state accepts it either way
    ERROR = 5      # server -> client: UTF-8 reason, connection closing
    SHUTDOWN = 6   # client -> server: stop the daemon (operator channel)
    STATS = 7      # both ways: operator scrape of the live registry


#: Value -> member map for the decoder's hot path (an ``IntEnum`` call
#: costs about a microsecond; at frame rates that is real money).
_FRAME_KINDS = {member.value: member for member in FrameKind}


class FramingError(ValueError):
    """A byte stream violated the frame layout (garbage, oversize)."""


class TruncatedFrameError(FramingError):
    """The stream ended mid-frame (header or payload incomplete)."""


class Frame(NamedTuple):
    """One decoded frame: kind, envelope timestamp, raw payload.

    A ``NamedTuple`` rather than a frozen dataclass: the decoder builds
    one per frame on the serving hot path, and tuple construction skips
    the per-field ``object.__setattr__`` a frozen dataclass pays.  It
    is also cheaper than the slotted values of :mod:`repro.values`:
    built with keywords, a ``slot_init`` ``Frame`` measured 0.96 µs
    against the ``NamedTuple``'s 0.66 µs (2-vCPU Xeon, CPython 3.11,
    best of 7 × 300k); the decoder builds it positionally.

    ``trace_id``/``span_id`` are the envelope's trace context; both are
    zero on untraced frames, so pre-tracing callers that build frames
    positionally keep working unchanged.
    """

    kind: FrameKind
    time_s: float
    payload: bytes
    trace_id: int = 0
    span_id: int = 0


def encode_frame(kind: FrameKind, payload: bytes, time_s: float = 0.0,
                 trace_id: int = 0, span_id: int = 0) -> bytes:
    """Serialize one frame (header + payload)."""
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FramingError("frame payload of %d bytes exceeds the %d-byte "
                           "cap" % (len(payload), MAX_FRAME_PAYLOAD))
    return _FRAME_HEADER.pack(FRAME_MAGIC, int(kind), 0, len(payload),
                              time_s, trace_id, span_id) + payload


class FrameDecoder:
    """Incremental frame parser tolerant of arbitrary read boundaries.

    Feed it byte chunks exactly as they came off the socket; it returns
    every frame completed by the chunk and buffers the remainder.  A
    malformed header (wrong magic, unknown kind, oversized length)
    raises :class:`FramingError` immediately — the connection is not
    recoverable past a framing violation.  Call :meth:`finish` at
    end-of-stream to distinguish a clean close from a mid-frame one.

    The buffer is a ``bytearray`` grown in place, so a frame assembled
    from many reads costs time linear in its size, whoever picks the
    read size.  ``_offset`` marks the first byte not yet yielded: the
    walk moves it frame by frame, copies each payload out as ``bytes``,
    and drops the consumed prefix once, when it ends.
    """

    __slots__ = ("_buffer", "_offset")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._offset = 0

    @property
    def buffered(self) -> int:
        """Bytes not yet taken as frames: an incomplete frame's, and
        those of any frame a stopped walk did not reach."""
        return len(self._buffer) - self._offset

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb one chunk; return the frames it completed."""
        return list(self.frames(data))

    def frames(self, data: bytes) -> Iterator[Frame]:
        """Absorb one chunk; yield the frames it completed in order.

        A malformed header raises only when the iteration reaches it,
        so a consumer acts on every frame that preceded the violation
        (the daemon serves them before it answers with ERROR).  A
        consumer that stops early leaves every frame it did not take
        buffered for the next walk.
        """
        self._buffer += data
        return self._walk()

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self.buffered:
            raise TruncatedFrameError(
                "stream ended mid-frame with %d buffered byte(s)"
                % self.buffered)

    def _walk(self) -> Iterator[Frame]:
        """Yield the buffer's complete frames from ``_offset`` on.

        The offset lives on the decoder, not in the walk, so walks that
        overlap (one left open while the next chunk is fed) still take
        each frame once, in stream order.
        """
        buffer = self._buffer
        unpack = _FRAME_HEADER.unpack_from
        kinds = _FRAME_KINDS
        try:
            while True:
                offset = self._offset
                if len(buffer) - offset < FRAME_HEADER_SIZE:
                    return
                (magic, kind, _, length, time_s, trace_id,
                 span_id) = unpack(buffer, offset)
                if magic != FRAME_MAGIC:
                    raise FramingError(
                        "bad frame magic 0x%02X (expected 0x%02X)"
                        % (magic, FRAME_MAGIC))
                frame_kind = kinds.get(kind)
                if frame_kind is None:
                    raise FramingError("unknown frame kind %d" % kind)
                if length > MAX_FRAME_PAYLOAD:
                    raise FramingError(
                        "frame announces a %d-byte payload, above the "
                        "%d-byte cap" % (length, MAX_FRAME_PAYLOAD))
                start = offset + FRAME_HEADER_SIZE
                end = start + length
                if end > len(buffer):
                    return
                self._offset = end
                yield Frame(frame_kind, time_s, bytes(buffer[start:end]),
                            trace_id, span_id)
        finally:
            if self._offset:
                del buffer[:self._offset]
                self._offset = 0


# ----------------------------------------------------------------------
# HELLO / ERROR payloads
# ----------------------------------------------------------------------
def encode_hello() -> bytes:
    """The version-handshake payload a client sends first."""
    return _HELLO.pack(PROTOCOL_VERSION)


def decode_hello(payload: bytes) -> int:
    """Validate a HELLO payload; returns the peer's version."""
    if len(payload) != _HELLO.size:
        raise FramingError("HELLO payload must be %d bytes, got %d"
                           % (_HELLO.size, len(payload)))
    (version,) = _HELLO.unpack(payload)
    if version != PROTOCOL_VERSION:
        raise FramingError("peer speaks protocol version %d, this end "
                           "speaks %d" % (version, PROTOCOL_VERSION))
    return version


def encode_error(reason: str) -> bytes:
    """The payload of an ERROR frame (UTF-8 reason)."""
    return reason.encode("utf-8")


def decode_error(payload: bytes) -> str:
    return payload.decode("utf-8", errors="replace")


# ----------------------------------------------------------------------
# STATS payloads (operator channel)
# ----------------------------------------------------------------------
def encode_stats(snapshot: Mapping[str, object]) -> bytes:
    """Serialize one stats snapshot (the daemon's STATS answer).

    Canonical JSON (sorted keys, no whitespace) so two scrapes of the
    same registry state are byte-identical — ``repro stats`` and the
    Prometheus byte-compare tests rely on that determinism.  A STATS
    *request* carries an empty payload; only the answer uses this.
    """
    encoded = json.dumps(snapshot, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(encoded) > MAX_FRAME_PAYLOAD:
        raise FramingError("stats snapshot of %d bytes exceeds the "
                           "%d-byte frame cap"
                           % (len(encoded), MAX_FRAME_PAYLOAD))
    return encoded


def decode_stats(payload: bytes) -> Dict[str, object]:
    """Deserialize a STATS answer back into its snapshot mapping."""
    try:
        snapshot = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise FramingError("undecodable STATS payload: %s" % error)
    if not isinstance(snapshot, dict):
        raise FramingError("STATS payload must be a JSON object, got %s"
                           % type(snapshot).__name__)
    return snapshot


# ----------------------------------------------------------------------
# REPLY batches
# ----------------------------------------------------------------------
def encode_reply(codec: WireCodec, reply: ServerReply, sender: int,
                 timestamp: float) -> bytes:
    """Serialize one ``ServerReply`` batch into a REPLY payload.

    In-band notifications take the 9-byte tag-0 form (they encode to
    ``b""`` under the codec and are charged zero bytes, matching the
    in-process transport); every other response is a tag-1 entry whose
    sized payload is exactly ``codec.encode_response(...)`` — the bytes
    the transport charged.
    """
    if not reply:
        return _EMPTY_REPLY
    if len(reply) > 0xFFFF:
        raise FramingError("reply batch of %d messages overflows the "
                           "u16 count" % len(reply))
    parts = [_REPLY_COUNT.pack(len(reply))]
    for message in reply:
        if isinstance(message, AlarmNotification):
            parts.append(bytes((_TAG_NOTIFICATION,)))
            parts.append(_REPLY_NOTIFICATION.pack(message.alarm_id))
            continue
        encoded = codec.encode_response(message, sender=sender,
                                        timestamp=timestamp)
        parts.append(bytes((_TAG_PAYLOAD,)))
        parts.append(_REPLY_LENGTH.pack(len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


def _reply_entries(payload: bytes) -> List[Tuple[int, int, int]]:
    """``(tag, start, end)`` of every entry of a REPLY payload.

    The one walk of the batch envelope: ``payload[start:end]`` is a
    notification's u64 alarm id or a sized entry's codec bytes.  Every
    count, tag and length is checked against the bytes there are, so a
    malformed envelope raises :class:`FramingError`.
    """
    size = len(payload)
    if size < _REPLY_COUNT.size:
        raise FramingError("reply payload shorter than its count field")
    (count,) = _REPLY_COUNT.unpack_from(payload)
    cursor = _REPLY_COUNT.size
    entries: List[Tuple[int, int, int]] = []
    for index in range(count):
        if cursor >= size:
            raise FramingError("reply batch truncated before entry %d"
                               % index)
        tag = payload[cursor]
        cursor += 1
        if tag == _TAG_NOTIFICATION:
            length = _REPLY_NOTIFICATION.size
        elif tag == _TAG_PAYLOAD:
            if cursor + _REPLY_LENGTH.size > size:
                raise FramingError("payload entry length truncated")
            (length,) = _REPLY_LENGTH.unpack_from(payload, cursor)
            cursor += _REPLY_LENGTH.size
        else:
            raise FramingError("unknown reply entry tag %d" % tag)
        end = cursor + length
        if end > size:
            raise FramingError("reply entry %d truncated: announced %d "
                               "bytes, %d available"
                               % (index, length, size - cursor))
        entries.append((tag, cursor, end))
        cursor = end
    if cursor != size:
        raise FramingError("%d trailing byte(s) after the last reply "
                           "entry" % (size - cursor))
    return entries


def decode_reply(codec: WireCodec, payload: bytes,
                 pyramid_for: Optional[PyramidResolver] = None
                 ) -> ServerReply:
    """Deserialize a REPLY payload back into typed responses.

    ``pyramid_for`` supplies the client-side pyramid geometry for
    bitmap safe regions (see
    :meth:`~repro.protocol.wire.WireCodec.decode_response`); replies
    without bitmap payloads need none.  A malformed envelope or entry
    raises :class:`FramingError`.
    """
    messages: List[Response] = []
    for tag, start, end in _reply_entries(payload):
        if tag == _TAG_NOTIFICATION:
            (alarm_id,) = _REPLY_NOTIFICATION.unpack_from(payload, start)
            messages.append(AlarmNotification(alarm_id=alarm_id))
            continue
        try:
            messages.append(codec.decode_response(payload[start:end],
                                                  pyramid_for))
        except ValueError as exc:
            raise FramingError("undecodable reply entry %d: %s"
                               % (len(messages), exc)) from exc
    return tuple(messages)


def reply_summary(payload: bytes) -> Tuple[int, int, int]:
    """``(messages, notifications, charged_bytes)`` of a REPLY payload.

    Walks the batch envelope without decoding any message — the load
    generator's fast accounting path, and the daemon's ``verify_wire``
    check that a reply frame carries exactly the downlink bytes the
    server charged (tag-0 notifications are in-band and charge nothing).
    """
    entries = _reply_entries(payload)
    notifications = 0
    charged = 0
    for tag, start, end in entries:
        if tag == _TAG_NOTIFICATION:
            notifications += 1
        else:
            charged += end - start
    return len(entries), notifications, charged
