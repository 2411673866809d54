"""The one free value of the protocol's byte accounting.

The paper measures the number of client-to-server messages and the
downstream bandwidth consumed broadcasting safe regions; to report the
latter we need byte sizes for every message the protocol exchanges.
Every size but one is the struct layout in :mod:`repro.protocol.wire`
(the ``*_SIZE`` constants), so the accounting cannot drift from what the
codec serializes.  A message's size is :meth:`WireCodec.size_of_response
<repro.protocol.wire.WireCodec.size_of_response>` — the one sizing the
transport charges.  The comparisons depend on the ratios (a rectangle
is tiny, a bitmap is ``|B|`` bits, an OPT alarm push grows with alarm
count), not the absolute values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

from ..protocol import wire


@dataclass(frozen=True)
class MessageSizes:
    """The byte size a caller can choose: one alarm in an OPT push.

    Unlike the safe-region downlinks, which are pure geometry, an OPT
    push must carry the *full alarm record* — id, region, scope,
    authorization and the alert payload — since the OPT client raises
    alerts autonomously without contacting the server.  The alert
    payload is the one size the wire cannot dictate (it is opaque
    application content), so ``alarm_entry`` is the single tunable:
    fixed part (40) + default alert payload (216) = 256 bytes.
    """

    alarm_entry: int = wire.DEFAULT_ALARM_ENTRY_SIZE

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for run-manifest provenance."""
        return asdict(self)
