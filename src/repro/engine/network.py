"""Wire-format sizing for the client-server protocol.

The paper measures the number of client-to-server messages and the
downstream bandwidth consumed broadcasting safe regions; to report the
latter we need byte sizes for every message the protocol exchanges.
Since the protocol refactor the sizes are *derived*, not asserted: every
default below points at the struct layout in :mod:`repro.protocol.wire`,
so the accounting table cannot drift from what the codec actually
serializes (``WireCodec.from_sizes`` additionally rejects any
``MessageSizes`` whose fixed fields disagree with the wire).  The
comparisons depend on the ratios (a rectangle is tiny, a bitmap is
``|B|`` bits, an OPT alarm push grows with alarm count), not the
absolute values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from ..protocol import wire


@dataclass(frozen=True)
class MessageSizes:
    """Byte sizes of the protocol messages (struct-derived defaults).

    uplink_location     client -> server position report: user id and
                        sequence (8), x, y (16), heading (4), speed (4).
    downlink_header     fixed header on every server -> client payload.
    rect_payload        a rectangular safe region: 4 x float64.
    safe_period_payload a safe period: one float64.
    alarm_entry         one alarm in an OPT push.  Unlike the safe-region
                        downlinks, which are pure geometry, an OPT push
                        must carry the *full alarm record* — id, region,
                        scope, authorization and the alert payload — since
                        the OPT client raises alerts autonomously without
                        contacting the server.  The alert payload is the
                        one size the wire cannot dictate (it is opaque
                        application content), so ``alarm_entry`` is the
                        single tunable: fixed part (40) + default alert
                        payload (216) = 256 bytes.
    bitmap_fixed        bitmap safe-region fixed part: base-cell
                        reference (8) + bit count (4).
    """

    uplink_location: int = wire.UPLINK_LOCATION_SIZE
    downlink_header: int = wire.DOWNLINK_HEADER_SIZE
    rect_payload: int = wire.RECT_PAYLOAD_SIZE
    safe_period_payload: int = wire.SAFE_PERIOD_PAYLOAD_SIZE
    alarm_entry: int = wire.DEFAULT_ALARM_ENTRY_SIZE
    bitmap_fixed: int = wire.BITMAP_FIXED_SIZE

    def rect_message(self) -> int:
        """Bytes of a rectangular safe-region downlink."""
        return self.downlink_header + self.rect_payload

    def safe_period_message(self) -> int:
        """Bytes of a safe-period downlink."""
        return self.downlink_header + self.safe_period_payload

    def bitmap_message(self, bit_length: int) -> int:
        """Bytes of a bitmap safe-region downlink of ``bit_length`` bits."""
        return self._variable_message(self.bitmap_fixed
                                      + (bit_length + 7) // 8)

    def alarm_push_message(self, alarm_count: int) -> int:
        """Bytes of an OPT downlink carrying ``alarm_count`` alarms."""
        return self._variable_message(self.rect_payload  # the cell rect
                                      + alarm_count * self.alarm_entry)

    def _variable_message(self, payload: int) -> int:
        return (self.downlink_header + wire.length_escape_size(payload)
                + payload)

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for run-manifest provenance."""
        return asdict(self)
