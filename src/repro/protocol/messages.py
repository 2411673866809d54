"""Typed wire-protocol messages (the client/server contract).

The paper's distributed architecture (§2, §5) is a division of labor
across a network link: clients send position fixes, the server answers
with installable monitoring state (a safe region, a safe period, an
alarm list).  This module is that contract as *types*: every value that
crosses the wire is one of the frozen dataclasses below, every payload's
byte cost is derived from its codec encoding (:mod:`repro.protocol.wire`)
rather than asserted by hand, and both endpoints — the strategies'
client halves and the server-side policies — speak only these messages.

Client -> server requests
    :class:`LocationReport`    an ordinary position fix (the client's
                               silence condition failed, or the strategy
                               reports every fix);
    :class:`RegionExitReport`  a position fix sent *because* the client
                               left its installed safe region / base
                               cell.  Wire-identical to a location
                               report except for a flag bit; the
                               distinction lets server policies renew
                               monitoring state only when the client's
                               residency actually ended.

Server -> client responses
    :class:`InstallSafeRegion`  a rectangular or bitmap safe region;
    :class:`InstallSafePeriod`  a safe-period expiry timestamp;
    :class:`InstallAlarmList`   the OPT push: a cell's full alarm set;
    :class:`AlarmNotification`  an alarm fired for this subscriber
                                (rides the reply to the triggering
                                report — no separate downlink payload);
    :class:`InvalidateState`    server push: installed state is stale
                                (dynamic/tracking alarm churn).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple, Union

from ..geometry import Point, Rect
from ..values import slot_init

if TYPE_CHECKING:  # typing only: keeps the protocol package import-light
    from ..saferegion.bitmap import PyramidBitmap

#: Downlink payload kinds as reported in telemetry (``downlink_sent``
#: events and the per-kind ``downlink_messages_<kind>`` counters).  One
#: kind per protocol payload, plus the push-invalidation of the
#: dynamic/tracking engines.
DOWNLINK_RECT = "rect"
DOWNLINK_SAFE_PERIOD = "safe_period"
DOWNLINK_BITMAP = "bitmap"
DOWNLINK_ALARM_PUSH = "alarm_push"
DOWNLINK_INVALIDATE = "invalidate"

DOWNLINK_KINDS: Tuple[str, ...] = (DOWNLINK_RECT, DOWNLINK_SAFE_PERIOD,
                                   DOWNLINK_BITMAP, DOWNLINK_ALARM_PUSH,
                                   DOWNLINK_INVALIDATE)


# ----------------------------------------------------------------------
# Client -> server
# ----------------------------------------------------------------------
@slot_init
@dataclass(frozen=True, slots=True)
class LocationReport:
    """Client -> server position fix."""

    user_id: int
    sequence: int
    position: Point
    heading: float
    speed: float


@slot_init
@dataclass(frozen=True, slots=True)
class RegionExitReport:
    """Client -> server position fix reported on safe-region/cell exit.

    Same wire layout (and byte cost) as :class:`LocationReport`; the
    exit flag travels in the sequence field's top bit.  Server policies
    use the distinction to decide between *renew monitoring state* (the
    client's residency ended) and *evaluate only* (the client is merely
    reporting from an unsafe area or a locally-detected trigger).
    """

    user_id: int
    sequence: int
    position: Point
    heading: float
    speed: float


Request = Union[LocationReport, RegionExitReport]


# ----------------------------------------------------------------------
# Server -> client
# ----------------------------------------------------------------------
@slot_init
@dataclass(frozen=True, slots=True)
class InstallSafeRegion:
    """Install a safe region: a rectangle, or a cell-scoped bitmap.

    Exactly one representation is present: ``rect`` (the MWPSR
    rectangle, four float64s on the wire) or ``cell_ref`` + ``bitmap``
    (the GBSR/PBSR pyramid bitmap; the client derives the cell rectangle
    and pyramid geometry from ``cell_ref`` and its grid configuration).
    """

    rect: Optional[Rect] = None
    cell_ref: Optional[int] = None
    bitmap: Optional["PyramidBitmap"] = None

    def __post_init__(self) -> None:
        has_rect = self.rect is not None
        has_bitmap = self.cell_ref is not None and self.bitmap is not None
        if has_rect == has_bitmap:
            raise ValueError("InstallSafeRegion carries either rect or "
                             "(cell_ref, bitmap), exactly one")

    @property
    def kind(self) -> str:
        return DOWNLINK_RECT if self.rect is not None else DOWNLINK_BITMAP


@slot_init
@dataclass(frozen=True, slots=True)
class InstallSafePeriod:
    """Install a safe period: the client stays silent until ``expiry``."""

    expiry: float


@slot_init
@dataclass(frozen=True, slots=True)
class AlarmRecord:
    """One alarm in an OPT push: id + region (+ opaque alert content).

    The alert content (text/media the client must be able to raise
    without contacting the server) is accounted by the codec's
    per-entry alert payload size; its bytes are opaque to the
    simulation.
    """

    alarm_id: int
    region: Rect


@slot_init
@dataclass(frozen=True, slots=True)
class InstallAlarmList:
    """Install a grid cell's full pending alarm set (the OPT push)."""

    cell: Rect
    alarms: Tuple[AlarmRecord, ...]


@slot_init
@dataclass(frozen=True, slots=True)
class AlarmNotification:
    """An alarm fired (one-shot) for the reporting subscriber.

    Notifications ride the reply to the uplink that triggered them; the
    protocol charges no separate downlink payload for them (matching
    the paper's accounting, where trigger delivery is counted as a
    notification, not bandwidth).
    """

    alarm_id: int


@slot_init
@dataclass(frozen=True, slots=True)
class InvalidateState:
    """Server push: drop installed monitoring state and re-sync.

    Header-only on the wire.  Sent by the dynamic/tracking engines when
    alarm churn (install/remove/relocate) makes a client's installed
    safe region, safe period or alarm list unsafe to keep.
    """


Response = Union[InstallSafeRegion, InstallSafePeriod, InstallAlarmList,
                 AlarmNotification, InvalidateState]

#: What one uplink exchange returns to the client.
ServerReply = Tuple[Response, ...]


def downlink_kind(message: Response) -> Optional[str]:
    """Telemetry kind of a response, or ``None`` for in-band messages.

    Only names the kind: whether a message is charged is decided by its
    size (:meth:`~repro.protocol.wire.WireCodec.size_of_response` is 0
    for an in-band :class:`AlarmNotification`).
    """
    if isinstance(message, InstallSafeRegion):
        return message.kind
    if isinstance(message, InstallSafePeriod):
        return DOWNLINK_SAFE_PERIOD
    if isinstance(message, InstallAlarmList):
        return DOWNLINK_ALARM_PUSH
    if isinstance(message, InvalidateState):
        return DOWNLINK_INVALIDATE
    return None
