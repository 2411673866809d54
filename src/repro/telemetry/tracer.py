"""The event emitter: builds records, stamps them, hands them to a sink.

One :class:`Tracer` serves one shard of one run.  It is deliberately
thin — a record dict built inline and a single sink call — because it
sits on the engine's hot paths; everything schema-shaped lives in
:mod:`repro.telemetry.events`, and the decision *whether* to emit at
all is the facade's single ``enabled`` attribute check (see
:mod:`repro.telemetry.facade`).

Timestamps are simulation-clock seconds supplied by the caller, never
read from the host clock, so traces of the same seeded world are equal
except in their wall-time fields: ``cost_us``, ``elapsed_us``,
``wall_s``, the summary's ``wall_time_s`` and the registry's
non-deterministic instruments (``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from typing import Dict, Optional

from .events import EVENT_FIELDS, RECORD_EVENT
from .metrics import TelemetryError
from .sinks import TraceSink


class Tracer:
    """Emits typed event records for one shard into a sink."""

    __slots__ = ("sink", "shard")

    def __init__(self, sink: TraceSink, shard: int = 0) -> None:
        if shard < 0:
            raise ValueError("shard index must be non-negative")
        self.sink = sink
        self.shard = shard

    def emit(self, event_type: str, time_s: float,
             user_id: Optional[int] = None, **fields: object) -> None:
        """Emit one event at simulation time ``time_s``.

        ``event_type`` must be declared in
        :data:`~repro.telemetry.events.EVENT_FIELDS`, or
        :class:`TelemetryError` is raised.  ``fields`` must match its
        schema; that is checked offline, by ``repro trace validate``
        and the test suite, not on the hot path.
        """
        if event_type not in EVENT_FIELDS:
            raise TelemetryError("undeclared event type %r" % event_type)
        record: Dict[str, object] = {"record": RECORD_EVENT,
                                     "type": event_type, "t": time_s,
                                     "shard": self.shard}
        if user_id is not None:
            record["user"] = user_id
        record.update(fields)
        self.sink.write_record(record)

    def close(self) -> None:
        self.sink.close()
