"""The typed client/server wire protocol.

Layering (see ``docs/ARCHITECTURE.md``):

* :mod:`~repro.protocol.messages` — the typed requests and responses
  (the contract both endpoints speak);
* :mod:`~repro.protocol.wire` — their byte layout, in the one
  :class:`~repro.protocol.wire.WireCodec` that encodes, decodes and
  derives every accounted size from it;
* :mod:`~repro.protocol.handlers` — stateless request handling plus the
  per-strategy :class:`~repro.protocol.handlers.ServerPolicy` hooks;
* :mod:`~repro.protocol.transport` — pluggable carriers (reliable
  in-process, simulated lossy) where all byte accounting happens, and
  the :class:`~repro.protocol.transport.ClientSession` endpoint
  strategies talk to.

This package intentionally re-exports only the message types and the
flat downlink-kind constants: they are import-light (geometry only) and
safe to pull from anywhere.  The heavier layers — codec, transport,
handlers — are imported as submodules by the engine and the strategies,
which keeps the import graph acyclic (``engine.network`` derives its
size defaults from :mod:`~repro.protocol.wire` while the transport in
turn types against ``engine.server``).
"""

from .messages import (DOWNLINK_ALARM_PUSH, DOWNLINK_BITMAP,
                       DOWNLINK_INVALIDATE, DOWNLINK_KINDS, DOWNLINK_RECT,
                       DOWNLINK_SAFE_PERIOD,
                       AlarmNotification, AlarmRecord, InstallAlarmList,
                       InstallSafePeriod, InstallSafeRegion,
                       InvalidateState, LocationReport, RegionExitReport,
                       Request, Response, ServerReply, downlink_kind)

__all__ = [
    "AlarmNotification", "AlarmRecord", "InstallAlarmList",
    "InstallSafePeriod", "InstallSafeRegion", "InvalidateState",
    "LocationReport", "RegionExitReport", "Request", "Response",
    "ServerReply", "downlink_kind",
    "DOWNLINK_ALARM_PUSH", "DOWNLINK_BITMAP", "DOWNLINK_INVALIDATE",
    "DOWNLINK_KINDS", "DOWNLINK_RECT", "DOWNLINK_SAFE_PERIOD",
]
