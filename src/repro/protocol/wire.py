"""Wire-format codec for the typed protocol messages.

This module owns the byte layout of every message in
:mod:`repro.protocol.messages` and is the *source of truth* for message
sizes: the struct sizes exported here are the accounting's sizes (only
the OPT alarm entry, :class:`~repro.engine.network.MessageSizes`, is
chosen by a caller), and :meth:`WireCodec.size_of_request`
/ :meth:`WireCodec.size_of_response` compute a payload's accounted byte
cost from the same layout that :meth:`WireCodec.encode_response`
serializes — so "bytes charged" equals "bytes on the wire" by
construction (a property the wire-fidelity suite asserts by encoding).

Layout conventions: little-endian, fixed-width header of
``(message_type: u8, reserved: u8, length: u16, sender: u32,
timestamp: f64)`` = 16 bytes on downlinks (a payload of 0xFFFF bytes or
more escapes its length into a trailing u32, see :data:`LENGTH_ESCAPE`);
the uplink location report is a bare 32-byte struct (the header fields
are folded into it).  A region-exit report is wire-identical to a
location report except for the top bit of the sequence field
(:data:`EXIT_FLAG`).  Bitmap payloads
carry the pyramid geometry needed to decode them (base-cell reference
and bit count) followed by the packed bits.
"""

from __future__ import annotations

import dataclasses
import struct
from enum import IntEnum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..geometry import Rect, Point
from .messages import (AlarmNotification, AlarmRecord, InstallAlarmList,
                       InstallSafePeriod, InstallSafeRegion,
                       InvalidateState, LocationReport, RegionExitReport,
                       Request, Response)

if TYPE_CHECKING:  # typing only: the codec stays import-light at runtime
    from ..engine.network import MessageSizes
    from ..index import Pyramid
    from ..saferegion.bitmap import PyramidBitmap

_UPLINK = struct.Struct("<IIddff")          # 32 bytes
_HEADER = struct.Struct("<BBHId")           # 16 bytes
#: The u16 length value that announces a long payload: the true length
#: follows the header as a u32 (``_LONG_LENGTH``), so an escaped payload
#: pays 4 header bytes more.  A payload is escaped exactly when it is
#: 0xFFFF bytes or more (0xFFFF itself included), so the value is
#: unambiguous and every shorter payload keeps its 16-byte header.  A
#: full 3x3 pyramid split outgrows the u16 from height 6 on.
LENGTH_ESCAPE = 0xFFFF
_LONG_LENGTH = struct.Struct("<I")          # 4 bytes, escaped lengths only
_RECT = struct.Struct("<dddd")              # 32 bytes
_SAFE_PERIOD = struct.Struct("<d")          # 8 bytes
_ALARM_FIXED = struct.Struct("<Qdddd")      # 40 bytes: id + rect
_BITMAP_FIXED = struct.Struct("<QI")        # 12 bytes: cell ref + bit count

#: Struct-derived sizes: the accounting charges these, so it cannot
#: drift from the actual encoding.
UPLINK_LOCATION_SIZE = _UPLINK.size
DOWNLINK_HEADER_SIZE = _HEADER.size
RECT_PAYLOAD_SIZE = _RECT.size
SAFE_PERIOD_PAYLOAD_SIZE = _SAFE_PERIOD.size
ALARM_FIXED_SIZE = _ALARM_FIXED.size
BITMAP_FIXED_SIZE = _BITMAP_FIXED.size

#: Opaque alert content shipped with each OPT alarm entry (the
#: text/media a client must raise without contacting the server); the
#: default makes one entry 40 + 216 = 256 bytes.
DEFAULT_ALERT_PAYLOAD_BYTES = 216
DEFAULT_ALARM_ENTRY_SIZE = ALARM_FIXED_SIZE + DEFAULT_ALERT_PAYLOAD_BYTES

#: Top bit of the uplink sequence field: set on region-exit reports.
EXIT_FLAG = 0x8000_0000

#: Declarative per-message field layout: for every protocol message
#: class, the wire values it serializes, in wire order, named by the
#: dataclass field they come from (``position.x`` is the ``x``
#: component of field ``position``).  Dropping the component suffixes
#: and deduplicating yields the dataclass's declared field order —
#: :func:`verify_field_layouts` asserts exactly that, plus, for the
#: fixed-layout messages, that the value count matches the struct.
#: :meth:`WireCodec.from_sizes` runs that check whenever a transport
#: builds its codec, so a field added to a dataclass without a layout
#: (or vice versa) fails the first run that sends a message.
FIELD_LAYOUTS: Dict[str, Tuple[str, ...]] = {
    "LocationReport": ("user_id", "sequence", "position.x",
                       "position.y", "heading", "speed"),
    "RegionExitReport": ("user_id", "sequence", "position.x",
                         "position.y", "heading", "speed"),
    "InstallSafeRegion": ("rect", "cell_ref", "bitmap"),
    "InstallSafePeriod": ("expiry",),
    "AlarmRecord": ("alarm_id", "region.min_x", "region.min_y",
                    "region.max_x", "region.max_y"),
    "InstallAlarmList": ("cell", "alarms"),
    "AlarmNotification": ("alarm_id",),
    "InvalidateState": (),
}

#: The fixed struct serializing each fixed-layout message (variable
#: or multi-representation payloads — bitmaps, alarm lists — have no
#: single struct and are checked by the wire-fidelity suite instead).
_LAYOUT_STRUCTS: Dict[str, struct.Struct] = {
    "LocationReport": _UPLINK,
    "RegionExitReport": _UPLINK,
    "InstallSafePeriod": _SAFE_PERIOD,
    "AlarmRecord": _ALARM_FIXED,
}


def _layout_field_order(layout: Tuple[str, ...]) -> Tuple[str, ...]:
    """Dataclass field order implied by a layout's dotted names."""
    order: List[str] = []
    for name in layout:
        first = name.split(".", 1)[0]
        if first not in order:
            order.append(first)
    return tuple(order)


def verify_field_layouts(
        layouts: Optional[Dict[str, Tuple[str, ...]]] = None
) -> List[str]:
    """Cross-check :data:`FIELD_LAYOUTS` against the message classes.

    Returns a list of human-readable problems (empty when the layouts
    agree).  Three properties are checked per entry: the named class
    exists and is a dataclass, the layout's implied field order equals
    the dataclass's declared order, and — for fixed-layout messages —
    the layout's value count matches the struct's.  Additionally every
    ``Request``/``Response`` union member must have an entry.

    ``layouts`` defaults to the module table; tests inject corrupted
    tables to assert the comparison actually bites.
    """
    from typing import get_args

    from . import messages

    table = layouts if layouts is not None else FIELD_LAYOUTS
    problems: List[str] = []
    for name, layout in sorted(table.items()):
        cls = getattr(messages, name, None)
        if cls is None or not dataclasses.is_dataclass(cls):
            problems.append("FIELD_LAYOUTS names %s, which is not a "
                            "message dataclass" % name)
            continue
        declared = tuple(f.name for f in dataclasses.fields(cls))
        implied = _layout_field_order(layout)
        if implied != declared:
            problems.append(
                "%s layout orders fields %s but the dataclass "
                "declares %s" % (name, list(implied), list(declared)))
        fixed = _LAYOUT_STRUCTS.get(name)
        if fixed is not None:
            count = len(fixed.unpack(bytes(fixed.size)))
            if count != len(layout):
                problems.append(
                    "%s layout lists %d wire values but its struct "
                    "packs %d" % (name, len(layout), count))
    for union in (messages.Request, messages.Response):
        for member in get_args(union):
            if member.__name__ not in table:
                problems.append("message class %s has no FIELD_LAYOUTS "
                                "entry" % member.__name__)
    return problems


class MessageType(IntEnum):
    """Downlink message discriminators."""

    RECT_SAFE_REGION = 1
    BITMAP_SAFE_REGION = 2
    SAFE_PERIOD = 3
    ALARM_PUSH = 4
    INVALIDATE = 5


def pack_cell_ref(col: int, row: int) -> int:
    """Pack grid-cell coordinates into the 64-bit wire cell reference."""
    if col < 0 or row < 0 or col > 0xFFFF_FFFF or row > 0xFFFF_FFFF:
        raise ValueError("cell coordinates out of range for the wire")
    return (col << 32) | row


def unpack_cell_ref(cell_ref: int) -> Tuple[int, int]:
    """Unpack a wire cell reference into ``(col, row)``."""
    return cell_ref >> 32, cell_ref & 0xFFFF_FFFF


# ----------------------------------------------------------------------
# Uplink: location / region-exit reports
# ----------------------------------------------------------------------
def encode_location(report: Request) -> bytes:
    """Encode an uplink report (32 bytes; exit flag in the sequence)."""
    sequence = report.sequence
    if sequence & EXIT_FLAG:
        raise ValueError("sequence overflows into the exit-flag bit")
    if isinstance(report, RegionExitReport):
        sequence |= EXIT_FLAG
    return _UPLINK.pack(report.user_id, sequence,
                        report.position.x, report.position.y,
                        report.heading, report.speed)


def decode_location(payload: bytes) -> Request:
    """Decode an uplink report (exit flag selects the request type)."""
    user_id, sequence, x, y, heading, speed = _UPLINK.unpack(payload)
    if sequence & EXIT_FLAG:
        return RegionExitReport(user_id, sequence & ~EXIT_FLAG,
                                Point(x, y), heading, speed)
    return LocationReport(user_id, sequence, Point(x, y), heading, speed)


def length_escape_size(payload_length: int) -> int:
    """Extra header bytes a downlink payload of this length pays."""
    return _LONG_LENGTH.size if payload_length >= LENGTH_ESCAPE else 0


def _header(message_type: MessageType, payload_length: int, sender: int,
            timestamp: float) -> bytes:
    if payload_length < LENGTH_ESCAPE:
        return _HEADER.pack(int(message_type), 0, payload_length, sender,
                            timestamp)
    if payload_length > 0xFFFF_FFFF:
        raise ValueError("payload too large for the 32-bit length field")
    return (_HEADER.pack(int(message_type), 0, LENGTH_ESCAPE, sender,
                         timestamp)
            + _LONG_LENGTH.pack(payload_length))


def _payload_start(data: bytes) -> Tuple[int, int]:
    """``(payload length, payload offset)`` of an encoded downlink."""
    length = _HEADER.unpack_from(data)[2]
    if length != LENGTH_ESCAPE:
        return length, _HEADER.size
    (length,) = _LONG_LENGTH.unpack_from(data, _HEADER.size)
    if length < LENGTH_ESCAPE:
        raise ValueError("escaped length %d fits the 16-bit field" % length)
    return length, _HEADER.size + _LONG_LENGTH.size


def _split_header(data: bytes) -> Tuple[MessageType, int, float, bytes]:
    message_type, _, _, sender, timestamp = _HEADER.unpack_from(data)
    length, start = _payload_start(data)
    payload = data[start:]
    if len(payload) != length:
        raise ValueError("payload length mismatch: header says %d, got %d"
                         % (length, len(payload)))
    return MessageType(message_type), sender, timestamp, payload


# ----------------------------------------------------------------------
# Rectangular safe region
# ----------------------------------------------------------------------
def encode_rect_region(rect: Rect, sender: int = 0,
                       timestamp: float = 0.0) -> bytes:
    """Encode a rectangular safe-region downlink (16 + 32 bytes)."""
    payload = _RECT.pack(rect.min_x, rect.min_y, rect.max_x, rect.max_y)
    return _header(MessageType.RECT_SAFE_REGION, len(payload), sender,
                   timestamp) + payload


def decode_rect_region(data: bytes) -> Rect:
    message_type, _, _, payload = _split_header(data)
    if message_type is not MessageType.RECT_SAFE_REGION:
        raise ValueError("not a rectangular safe-region message")
    return Rect(*_RECT.unpack(payload))


# ----------------------------------------------------------------------
# Safe period
# ----------------------------------------------------------------------
def encode_safe_period(expiry: float, sender: int = 0,
                       timestamp: float = 0.0) -> bytes:
    """Encode a safe-period downlink (16 + 8 bytes)."""
    payload = _SAFE_PERIOD.pack(expiry)
    return _header(MessageType.SAFE_PERIOD, len(payload), sender,
                   timestamp) + payload


def decode_safe_period(data: bytes) -> float:
    message_type, _, _, payload = _split_header(data)
    if message_type is not MessageType.SAFE_PERIOD:
        raise ValueError("not a safe-period message")
    return float(_SAFE_PERIOD.unpack(payload)[0])


# ----------------------------------------------------------------------
# Alarm push (the OPT strategy)
# ----------------------------------------------------------------------
def encode_alarm_push(cell: Rect, alarms: List[Tuple[int, Rect]],
                      alert_payload_bytes: int = DEFAULT_ALERT_PAYLOAD_BYTES,
                      sender: int = 0, timestamp: float = 0.0) -> bytes:
    """Encode an OPT alarm push.

    Each alarm entry carries its id, region and ``alert_payload_bytes``
    of opaque alert content (the text/media the client must be able to
    raise without contacting the server).  The default entry size
    (40 + 216 = 256 bytes) matches ``MessageSizes.alarm_entry``.
    """
    parts = [_RECT.pack(cell.min_x, cell.min_y, cell.max_x, cell.max_y)]
    for alarm_id, region in alarms:
        parts.append(_ALARM_FIXED.pack(alarm_id, region.min_x, region.min_y,
                                       region.max_x, region.max_y))
        parts.append(bytes(alert_payload_bytes))
    payload = b"".join(parts)
    return _header(MessageType.ALARM_PUSH, len(payload), sender,
                   timestamp) + payload


def decode_alarm_push(data: bytes,
                      alert_payload_bytes: int = DEFAULT_ALERT_PAYLOAD_BYTES
                      ) -> Tuple[Rect, List[Tuple[int, Rect]]]:
    message_type, _, _, payload = _split_header(data)
    if message_type is not MessageType.ALARM_PUSH:
        raise ValueError("not an alarm-push message")
    cell = Rect(*_RECT.unpack(payload[:_RECT.size]))
    cursor = _RECT.size
    entry_size = _ALARM_FIXED.size + alert_payload_bytes
    alarms: List[Tuple[int, Rect]] = []
    while cursor < len(payload):
        alarm_id, min_x, min_y, max_x, max_y = _ALARM_FIXED.unpack(
            payload[cursor:cursor + _ALARM_FIXED.size])
        alarms.append((alarm_id, Rect(min_x, min_y, max_x, max_y)))
        cursor += entry_size
    return cell, alarms


# ----------------------------------------------------------------------
# Bitmap safe region
# ----------------------------------------------------------------------
def encode_bitmap_region(cell_ref: int, bitmap: "PyramidBitmap",
                         sender: int = 0, timestamp: float = 0.0) -> bytes:
    """Encode a bitmap safe-region downlink.

    ``cell_ref`` identifies the base grid cell (the client derives the
    cell rectangle and pyramid geometry from its grid parameters).  The
    bit count travels explicitly so the final partial byte is
    unambiguous; total size is 16 + 12 + ceil(bits/8) bytes (plus the
    4-byte length escape from 0xFFFF payload bytes on), matching
    :meth:`WireCodec.size_of_response`.
    """
    bits = bitmap.to_bitstring()
    size = (len(bits) + 7) // 8
    # Bit i lands in byte i // 8 at position 7 - i % 8: the zero-padded
    # string read as one big-endian integer.
    packed = int(bits.ljust(size * 8, "0"), 2).to_bytes(size, "big")
    payload = _BITMAP_FIXED.pack(cell_ref, len(bits)) + packed
    return _header(MessageType.BITMAP_SAFE_REGION, len(payload), sender,
                   timestamp) + payload


def decode_bitmap_region(data: bytes, pyramid: "Pyramid"
                         ) -> Tuple[int, "PyramidBitmap"]:
    """Decode a bitmap downlink against the client's pyramid geometry."""
    from ..saferegion.bitmap import decode_bitstring

    message_type, _, _, payload = _split_header(data)
    if message_type is not MessageType.BITMAP_SAFE_REGION:
        raise ValueError("not a bitmap safe-region message")
    cell_ref, bit_count = _BITMAP_FIXED.unpack(
        payload[:_BITMAP_FIXED.size])
    packed = payload[_BITMAP_FIXED.size:]
    if bit_count > len(packed) * 8:
        raise ValueError("bitmap payload shorter than its bit count")
    bits = format(int.from_bytes(packed, "big"), "0%db" % (len(packed) * 8))
    return cell_ref, decode_bitstring(pyramid, bits[:bit_count])


def encode_invalidate(sender: int = 0, timestamp: float = 0.0) -> bytes:
    """Encode a header-only state-invalidation push (16 bytes)."""
    return _header(MessageType.INVALIDATE, 0, sender, timestamp)


def decode_invalidate(data: bytes) -> InvalidateState:
    message_type, _, _, payload = _split_header(data)
    if message_type is not MessageType.INVALIDATE:
        raise ValueError("not an invalidation message")
    return InvalidateState()


def peek_type(data: bytes) -> MessageType:
    """Message type of an encoded downlink without full decoding."""
    return MessageType(data[0])


def peek_bitmap_cell_ref(data: bytes) -> int:
    """Wire cell reference of an encoded bitmap downlink.

    Reads only the fixed prefix — the framed client uses this to build
    the pyramid geometry *before* the full decode, which needs it.
    """
    if peek_type(data) is not MessageType.BITMAP_SAFE_REGION:
        raise ValueError("not a bitmap safe-region message")
    cell_ref, _ = _BITMAP_FIXED.unpack_from(data, _payload_start(data)[1])
    return cell_ref


# ----------------------------------------------------------------------
# The codec object: typed message <-> bytes, with derived sizes
# ----------------------------------------------------------------------
class WireCodec:
    """Serializer for protocol messages with struct-derived sizing.

    The transport charges every exchange through :meth:`size_of_request`
    and :meth:`size_of_response`; both are computed from the struct
    layouts above, and the wire-fidelity tests additionally assert
    ``size_of_response(m) == len(encode_response(m))`` for every payload
    a simulation ships.
    """

    __slots__ = ("alert_payload_bytes",)

    def __init__(self,
                 alert_payload_bytes: int = DEFAULT_ALERT_PAYLOAD_BYTES
                 ) -> None:
        if alert_payload_bytes < 0:
            raise ValueError("alert payload size must be non-negative")
        self.alert_payload_bytes = alert_payload_bytes

    @classmethod
    def from_sizes(cls, sizes: "MessageSizes") -> "WireCodec":
        """Codec matching a ``MessageSizes`` accounting table.

        Only the alarm-entry size is a free parameter (its alert
        payload); every other size is the struct this codec encodes.
        The per-field layouts are verified first
        (:func:`verify_field_layouts`) — two messages can agree on total
        bytes while disagreeing on field order, and that drift must not
        decode silently.
        """
        problems = verify_field_layouts()
        if problems:
            raise ValueError(
                "wire field layouts disagree with the message "
                "dataclasses: %s" % "; ".join(problems))
        alert = sizes.alarm_entry - ALARM_FIXED_SIZE
        if alert < 0:
            raise ValueError("alarm_entry smaller than its fixed part")
        return cls(alert_payload_bytes=alert)

    # -- sizing --------------------------------------------------------
    def size_of_request(self, request: Request) -> int:
        """Accounted bytes of an uplink report (fixed 32)."""
        return UPLINK_LOCATION_SIZE

    def size_of_response(self, message: Response) -> int:
        """Accounted bytes of a downlink payload (0 for in-band)."""
        if isinstance(message, InstallSafeRegion):
            if message.rect is not None:
                return DOWNLINK_HEADER_SIZE + RECT_PAYLOAD_SIZE
            assert message.bitmap is not None
            payload = (BITMAP_FIXED_SIZE
                       + (message.bitmap.bit_length() + 7) // 8)
            return (DOWNLINK_HEADER_SIZE + length_escape_size(payload)
                    + payload)
        if isinstance(message, InstallSafePeriod):
            return DOWNLINK_HEADER_SIZE + SAFE_PERIOD_PAYLOAD_SIZE
        if isinstance(message, InstallAlarmList):
            entry = ALARM_FIXED_SIZE + self.alert_payload_bytes
            payload = RECT_PAYLOAD_SIZE + len(message.alarms) * entry
            return (DOWNLINK_HEADER_SIZE + length_escape_size(payload)
                    + payload)
        if isinstance(message, InvalidateState):
            return DOWNLINK_HEADER_SIZE
        if isinstance(message, AlarmNotification):
            return 0  # in-band with the reply; never a downlink payload
        raise TypeError("unknown response message: %r" % (message,))

    # -- encoding ------------------------------------------------------
    def encode_request(self, request: Request) -> bytes:
        """Serialize an uplink report."""
        return encode_location(request)

    def decode_request(self, payload: bytes) -> Request:
        """Deserialize an uplink report."""
        return decode_location(payload)

    def encode_response(self, message: Response, sender: int = 0,
                        timestamp: float = 0.0) -> bytes:
        """Serialize a downlink payload (empty for in-band messages)."""
        if isinstance(message, InstallSafeRegion):
            if message.rect is not None:
                return encode_rect_region(message.rect, sender, timestamp)
            assert message.cell_ref is not None
            assert message.bitmap is not None
            return encode_bitmap_region(message.cell_ref, message.bitmap,
                                        sender, timestamp)
        if isinstance(message, InstallSafePeriod):
            return encode_safe_period(message.expiry, sender, timestamp)
        if isinstance(message, InstallAlarmList):
            entries = [(record.alarm_id, record.region)
                       for record in message.alarms]
            return encode_alarm_push(message.cell, entries,
                                     self.alert_payload_bytes, sender,
                                     timestamp)
        if isinstance(message, InvalidateState):
            return encode_invalidate(sender, timestamp)
        if isinstance(message, AlarmNotification):
            return b""  # rides the reply; nothing crosses the downlink
        raise TypeError("unknown response message: %r" % (message,))

    def decode_response(self, data: bytes,
                        pyramid: Optional["Pyramid"] = None) -> Response:
        """Deserialize a downlink payload into its typed message."""
        message_type = peek_type(data)
        if message_type is MessageType.RECT_SAFE_REGION:
            return InstallSafeRegion(rect=decode_rect_region(data))
        if message_type is MessageType.BITMAP_SAFE_REGION:
            if pyramid is None:
                raise ValueError("bitmap decoding needs the client's "
                                 "pyramid geometry")
            cell_ref, bitmap = decode_bitmap_region(data, pyramid)
            return InstallSafeRegion(cell_ref=cell_ref, bitmap=bitmap)
        if message_type is MessageType.SAFE_PERIOD:
            return InstallSafePeriod(expiry=decode_safe_period(data))
        if message_type is MessageType.ALARM_PUSH:
            cell, entries = decode_alarm_push(data,
                                              self.alert_payload_bytes)
            return InstallAlarmList(
                cell=cell,
                alarms=tuple(AlarmRecord(alarm_id=a, region=r)
                             for a, r in entries))
        if message_type is MessageType.INVALIDATE:
            return decode_invalidate(data)
        raise ValueError("undecodable message type: %r" % (message_type,))
