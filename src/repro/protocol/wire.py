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
:class:`WireCodec` is the one codec: each message's layout, size and
validation live in its methods, so a new payload is added there.

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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..geometry import Rect, Point
from .messages import (AlarmNotification, AlarmRecord, InstallAlarmList,
                       InstallSafePeriod, InstallSafeRegion,
                       InvalidateState, LocationReport, RegionExitReport,
                       Request, Response)

if TYPE_CHECKING:  # typing only: the codec stays import-light at runtime
    from ..engine.network import MessageSizes
    from ..index import Pyramid

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


#: Value -> member map of the downlink discriminators: the decoder's
#: one lookup (an unknown byte is a malformed downlink).
_MESSAGE_TYPES = {member.value: member for member in MessageType}

#: Payload bytes of the fixed-size downlinks; any other length is a
#: malformed downlink.
_FIXED_PAYLOADS = {MessageType.RECT_SAFE_REGION: _RECT.size,
                   MessageType.SAFE_PERIOD: _SAFE_PERIOD.size,
                   MessageType.INVALIDATE: 0}

_RECT_DOWNLINK_SIZE = DOWNLINK_HEADER_SIZE + RECT_PAYLOAD_SIZE
_SAFE_PERIOD_DOWNLINK_SIZE = DOWNLINK_HEADER_SIZE + SAFE_PERIOD_PAYLOAD_SIZE

#: Resolves a bitmap downlink's wire cell reference to the pyramid
#: geometry the client derives from its grid configuration.
PyramidResolver = Callable[[int], "Pyramid"]


def pack_cell_ref(col: int, row: int) -> int:
    """Pack grid-cell coordinates into the 64-bit wire cell reference."""
    if col < 0 or row < 0 or col > 0xFFFF_FFFF or row > 0xFFFF_FFFF:
        raise ValueError("cell coordinates out of range for the wire")
    return (col << 32) | row


def unpack_cell_ref(cell_ref: int) -> Tuple[int, int]:
    """Unpack a wire cell reference into ``(col, row)``."""
    return cell_ref >> 32, cell_ref & 0xFFFF_FFFF


def _downlink_size(payload_length: int) -> int:
    """Bytes of a downlink carrying ``payload_length`` payload bytes."""
    if payload_length < LENGTH_ESCAPE:
        return DOWNLINK_HEADER_SIZE + payload_length
    return DOWNLINK_HEADER_SIZE + _LONG_LENGTH.size + payload_length


def _downlink(message_type: MessageType, payload: bytes, sender: int,
              timestamp: float) -> bytes:
    """Header plus payload of one downlink."""
    length = len(payload)
    if length < LENGTH_ESCAPE:
        return _HEADER.pack(message_type, 0, length, sender,
                            timestamp) + payload
    if length > 0xFFFF_FFFF:
        raise ValueError("payload too large for the 32-bit length field")
    return (_HEADER.pack(message_type, 0, LENGTH_ESCAPE, sender, timestamp)
            + _LONG_LENGTH.pack(length) + payload)


def _split_downlink(data: bytes) -> Tuple[MessageType, bytes]:
    """``(message type, payload)`` of an encoded downlink.

    The one header split: every length the header announces is checked
    against the bytes there are, so a malformed downlink raises
    ``ValueError`` here and nowhere else in the header.
    """
    if len(data) < DOWNLINK_HEADER_SIZE:
        raise ValueError("downlink of %d byte(s) is shorter than its "
                         "%d-byte header" % (len(data), DOWNLINK_HEADER_SIZE))
    type_byte, _, length, _, _ = _HEADER.unpack_from(data)
    start = DOWNLINK_HEADER_SIZE
    if length == LENGTH_ESCAPE:
        if len(data) < start + _LONG_LENGTH.size:
            raise ValueError("escaped downlink length truncated")
        (length,) = _LONG_LENGTH.unpack_from(data, start)
        if length < LENGTH_ESCAPE:
            raise ValueError("escaped length %d fits the 16-bit field"
                             % length)
        start += _LONG_LENGTH.size
    message_type = _MESSAGE_TYPES.get(type_byte)
    if message_type is None:
        raise ValueError("unknown downlink message type %d" % type_byte)
    payload = data[start:]
    if len(payload) != length:
        raise ValueError("payload length mismatch: header says %d, got %d"
                         % (length, len(payload)))
    fixed = _FIXED_PAYLOADS.get(message_type)
    if fixed is not None and length != fixed:
        raise ValueError("%s payload must be %d bytes, got %d"
                         % (message_type.name, fixed, length))
    return message_type, payload


# ----------------------------------------------------------------------
# The codec: typed message <-> bytes, with derived sizes
# ----------------------------------------------------------------------
class WireCodec:
    """The one serializer of protocol messages, with struct-derived sizing.

    The transport charges every exchange through :meth:`size_of_request`
    and :meth:`size_of_response`; both are computed from the struct
    layouts above, and the wire-fidelity tests additionally assert
    ``size_of_response(m) == len(encode_response(m))`` for every payload
    a simulation ships.  A size of 0 marks an in-band message
    (:class:`~repro.protocol.messages.AlarmNotification`, which rides
    the reply): it encodes to ``b""`` and nothing is charged for it.

    Downlink payloads: a rectangular safe region is four float64s; a
    bitmap safe region is its base-cell reference and bit count, then
    the bits packed big-endian (bit ``i`` in byte ``i // 8`` at position
    ``7 - i % 8``); a safe period is one float64; an OPT alarm push is
    the cell rectangle, then per alarm its id, its region and
    ``alert_payload_bytes`` of opaque alert content (the text/media the
    client must raise without contacting the server; the default makes
    one entry 40 + 216 = 256 bytes, ``MessageSizes.alarm_entry``); an
    invalidation is header-only.
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

    # -- uplink --------------------------------------------------------
    def size_of_request(self, request: Request) -> int:
        """Accounted bytes of an uplink report (fixed 32)."""
        return UPLINK_LOCATION_SIZE

    def encode_request(self, request: Request) -> bytes:
        """Serialize an uplink report (exit flag in the sequence)."""
        sequence = request.sequence
        if sequence & EXIT_FLAG:
            raise ValueError("sequence overflows into the exit-flag bit")
        if isinstance(request, RegionExitReport):
            sequence |= EXIT_FLAG
        position = request.position
        return _UPLINK.pack(request.user_id, sequence, position.x,
                            position.y, request.heading, request.speed)

    def decode_request(self, payload: bytes) -> Request:
        """Deserialize an uplink report (the exit flag picks the type)."""
        user_id, sequence, x, y, heading, speed = _UPLINK.unpack(payload)
        if sequence & EXIT_FLAG:
            return RegionExitReport(user_id, sequence & ~EXIT_FLAG,
                                    Point(x, y), heading, speed)
        return LocationReport(user_id, sequence, Point(x, y), heading,
                              speed)

    # -- downlink ------------------------------------------------------
    def size_of_response(self, message: Response) -> int:
        """Accounted bytes of a downlink payload (0 for in-band)."""
        if isinstance(message, InstallSafeRegion):
            if message.rect is not None:
                return _RECT_DOWNLINK_SIZE
            assert message.bitmap is not None
            return _downlink_size(
                BITMAP_FIXED_SIZE + (message.bitmap.bit_length() + 7) // 8)
        if isinstance(message, InstallSafePeriod):
            return _SAFE_PERIOD_DOWNLINK_SIZE
        if isinstance(message, InstallAlarmList):
            entry = ALARM_FIXED_SIZE + self.alert_payload_bytes
            return _downlink_size(RECT_PAYLOAD_SIZE
                                  + len(message.alarms) * entry)
        if isinstance(message, InvalidateState):
            return DOWNLINK_HEADER_SIZE
        if isinstance(message, AlarmNotification):
            return 0  # in-band with the reply; never a downlink payload
        raise TypeError("unknown response message: %r" % (message,))

    def encode_response(self, message: Response, sender: int = 0,
                        timestamp: float = 0.0) -> bytes:
        """Serialize a downlink payload (empty for in-band messages)."""
        if isinstance(message, InstallSafeRegion):
            rect = message.rect
            if rect is not None:
                return _downlink(MessageType.RECT_SAFE_REGION,
                                 _RECT.pack(rect.min_x, rect.min_y,
                                            rect.max_x, rect.max_y),
                                 sender, timestamp)
            assert message.cell_ref is not None
            assert message.bitmap is not None
            bits = message.bitmap.to_bitstring()
            size = (len(bits) + 7) // 8
            # The zero-padded string read as one big-endian integer.
            packed = int(bits.ljust(size * 8, "0"), 2).to_bytes(size, "big")
            return _downlink(MessageType.BITMAP_SAFE_REGION,
                             _BITMAP_FIXED.pack(message.cell_ref, len(bits))
                             + packed, sender, timestamp)
        if isinstance(message, InstallSafePeriod):
            return _downlink(MessageType.SAFE_PERIOD,
                             _SAFE_PERIOD.pack(message.expiry), sender,
                             timestamp)
        if isinstance(message, InstallAlarmList):
            cell = message.cell
            parts = [_RECT.pack(cell.min_x, cell.min_y, cell.max_x,
                                cell.max_y)]
            alert = bytes(self.alert_payload_bytes)
            for record in message.alarms:
                region = record.region
                parts.append(_ALARM_FIXED.pack(
                    record.alarm_id, region.min_x, region.min_y,
                    region.max_x, region.max_y))
                parts.append(alert)
            return _downlink(MessageType.ALARM_PUSH, b"".join(parts),
                             sender, timestamp)
        if isinstance(message, InvalidateState):
            return _downlink(MessageType.INVALIDATE, b"", sender, timestamp)
        if isinstance(message, AlarmNotification):
            return b""  # rides the reply; nothing crosses the downlink
        raise TypeError("unknown response message: %r" % (message,))

    def decode_response(self, data: bytes,
                        pyramid_for: Optional[PyramidResolver] = None
                        ) -> Response:
        """Deserialize a downlink payload into its typed message.

        ``pyramid_for`` maps a bitmap's wire cell reference to the
        client's pyramid geometry, which decoding the bits needs;
        downlinks without a bitmap need none.  Any malformed downlink
        raises ``ValueError``.
        """
        message_type, payload = _split_downlink(data)
        if message_type is MessageType.RECT_SAFE_REGION:
            return InstallSafeRegion(rect=Rect(*_RECT.unpack(payload)))
        if message_type is MessageType.SAFE_PERIOD:
            return InstallSafePeriod(expiry=_SAFE_PERIOD.unpack(payload)[0])
        if message_type is MessageType.INVALIDATE:
            return InvalidateState()
        if message_type is MessageType.ALARM_PUSH:
            entry = ALARM_FIXED_SIZE + self.alert_payload_bytes
            if (len(payload) < RECT_PAYLOAD_SIZE
                    or (len(payload) - RECT_PAYLOAD_SIZE) % entry):
                raise ValueError(
                    "alarm push of %d payload bytes is not a cell and "
                    "whole %d-byte entries" % (len(payload), entry))
            alarms: List[AlarmRecord] = []
            for offset in range(RECT_PAYLOAD_SIZE, len(payload), entry):
                alarm_id, min_x, min_y, max_x, max_y = \
                    _ALARM_FIXED.unpack_from(payload, offset)
                alarms.append(AlarmRecord(alarm_id,
                                          Rect(min_x, min_y, max_x, max_y)))
            return InstallAlarmList(cell=Rect(*_RECT.unpack_from(payload)),
                                    alarms=tuple(alarms))
        assert message_type is MessageType.BITMAP_SAFE_REGION
        from ..saferegion.bitmap import decode_bitstring

        if len(payload) < BITMAP_FIXED_SIZE:
            raise ValueError("bitmap payload shorter than its fixed part")
        cell_ref, bit_count = _BITMAP_FIXED.unpack_from(payload)
        packed = payload[BITMAP_FIXED_SIZE:]
        if len(packed) != (bit_count + 7) // 8:
            raise ValueError("bitmap of %d bits packed in %d bytes"
                             % (bit_count, len(packed)))
        if pyramid_for is None:
            raise ValueError("a bitmap safe region needs a pyramid "
                             "resolver to decode")
        bits = format(int.from_bytes(packed, "big"),
                      "0%db" % (len(packed) * 8))
        return InstallSafeRegion(
            cell_ref=cell_ref,
            bitmap=decode_bitstring(pyramid_for(cell_ref),
                                    bits[:bit_count]))
