"""Typed trace events and their wire schema.

Every telemetry trace is a sequence of flat JSON records.  Three record
kinds exist (``RECORD_*``): one *manifest* header describing the run
(see :mod:`repro.telemetry.manifest`), zero or more *events*, and one
trailing *summary* carrying the run's merged counters for offline
reconciliation.  An event record always has the base fields

``record``  the literal ``"event"``;
``type``    one of :data:`EVENT_TYPES`;
``t``       the simulation-clock timestamp in seconds (never the host
            clock — replays of the same seeded world produce identical
            timestamps);
``shard``   the shard index that produced the event (0 for serial runs)

plus the per-type payload fields listed in :data:`EVENT_FIELDS`.
``Telemetry.emit`` refuses a type that is not declared there, and ``repro
trace validate`` and the CI smoke job assert the fields, so extending
the schema is an explicit act: add the type constant, its field set,
an emitter on :class:`~repro.telemetry.facade.Telemetry`, and a schema
row in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Tuple

#: Record kinds (the ``record`` field of every trace line).
RECORD_MANIFEST = "manifest"
RECORD_EVENT = "event"
RECORD_SUMMARY = "summary"

#: Event types, in rough protocol order.
EVENT_LOCATION_REPORT = "location_report"
EVENT_SAFEREGION_COMPUTED = "saferegion_computed"
EVENT_SAFEREGION_EXIT = "saferegion_exit"
EVENT_ALARM_FIRED = "alarm_fired"
EVENT_DOWNLINK_SENT = "downlink_sent"
EVENT_TRANSPORT_DROP = "transport_drop"
EVENT_SHARD_STARTED = "shard_started"
EVENT_SHARD_FINISHED = "shard_finished"
EVENT_NET_CONN_OPEN = "net_conn_open"
EVENT_NET_CONN_CLOSE = "net_conn_close"
EVENT_NET_BATCH = "net_batch"
EVENT_SPAN = "span"

#: Required payload fields per event type (beyond the base fields).
#: ``user`` appears where the event concerns one subscriber.
EVENT_FIELDS: Dict[str, FrozenSet[str]] = {
    EVENT_LOCATION_REPORT: frozenset({"user", "nbytes", "cost_us"}),
    EVENT_SAFEREGION_COMPUTED: frozenset({"user", "elapsed_us"}),
    EVENT_SAFEREGION_EXIT: frozenset({"user", "residence_s"}),
    EVENT_ALARM_FIRED: frozenset({"user", "alarm"}),
    EVENT_DOWNLINK_SENT: frozenset({"user", "nbytes", "kind"}),
    EVENT_TRANSPORT_DROP: frozenset({"user", "direction"}),
    EVENT_SHARD_STARTED: frozenset({"vehicles"}),
    EVENT_SHARD_FINISHED: frozenset({"vehicles", "wall_s"}),
    EVENT_NET_CONN_OPEN: frozenset({"conn"}),
    EVENT_NET_CONN_CLOSE: frozenset({"conn", "clean", "requests"}),
    EVENT_NET_BATCH: frozenset({"conn", "requests"}),
    EVENT_SPAN: frozenset({"trace", "span", "parent", "name", "status",
                           "elapsed_us"}),
}

#: All known event types, sorted for stable listings.
EVENT_TYPES: Tuple[str, ...] = tuple(sorted(EVENT_FIELDS))

#: Base fields present on every event record.
BASE_FIELDS: FrozenSet[str] = frozenset({"record", "type", "t", "shard"})


def validate_event(record: Mapping[str, object]) -> List[str]:
    """Schema problems of one event record (empty list when valid)."""
    problems: List[str] = []
    if record.get("record") != RECORD_EVENT:
        problems.append("record kind is %r, expected %r"
                        % (record.get("record"), RECORD_EVENT))
        return problems
    event_type = record.get("type")
    if not isinstance(event_type, str) or event_type not in EVENT_FIELDS:
        problems.append("unknown event type %r" % (event_type,))
        return problems
    time_s = record.get("t")
    if not isinstance(time_s, (int, float)) or isinstance(time_s, bool):
        problems.append("%s: timestamp 't' must be a number, got %r"
                        % (event_type, time_s))
    shard = record.get("shard")
    if not isinstance(shard, int) or isinstance(shard, bool) or shard < 0:
        problems.append("%s: 'shard' must be a non-negative int, got %r"
                        % (event_type, shard))
    required = EVENT_FIELDS[event_type]
    payload_keys = set(record) - BASE_FIELDS
    for missing in sorted(required - payload_keys):
        problems.append("%s: missing field %r" % (event_type, missing))
    for extra in sorted(payload_keys - required):
        problems.append("%s: unexpected field %r" % (event_type, extra))
    return problems
