"""Pluggable trace sinks: where emitted event records go.

The facade is sink-agnostic: anything with ``write_record``/``close``
works.  Two implementations cover every current consumer —

* :class:`ListSink` buffers records in memory (tests, and the parallel
  engine's workers, whose buffered events ship back to the parent
  through the shard outcome);
* :class:`JsonlSink` appends one compact JSON object per line to a
  file — the on-disk trace format ``repro report`` and ``repro trace``
  consume.

Records are plain dicts with JSON-scalar values; sinks never mutate
them.  JSON encoding sorts keys, so two traces of the same seeded run
diff line by line and differ only in their wall-time fields
(``cost_us``, ``elapsed_us``, ``wall_s``, the summary's
``wall_time_s`` and the registry's non-deterministic instruments).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO, List, Mapping, Union


class TraceSink:
    """Sink interface: receive event records, release resources."""

    def write_record(self, record: Mapping[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # noqa: B027 - optional hook, default no-op
        """Release resources (default: nothing to release)."""


class ListSink(TraceSink):
    """Buffers records in memory, in emission order."""

    def __init__(self) -> None:
        self.records: List[Mapping[str, object]] = []

    def write_record(self, record: Mapping[str, object]) -> None:
        self.records.append(record)

    def drain(self) -> List[Mapping[str, object]]:
        """Return and clear the buffered records."""
        records, self.records = self.records, []
        return records


class JsonlSink(TraceSink):
    """Writes one compact, key-sorted JSON object per line.

    Accepts a path (opened for writing, closed by :meth:`close`) or an
    already-open text handle (left open — the caller owns it).

    Writes are serialized by a lock: the network engine's client
    (main thread) and daemon (event-loop thread) share one sink, and
    buffered text handles interleave unlocked concurrent writes
    mid-line, corrupting the trace.  Each record is encoded outside
    the lock and written as one string.
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        self._owns_handle = isinstance(target, (str, Path))
        if isinstance(target, (str, Path)):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
        else:
            self._handle = target
        self._lock = threading.Lock()

    def write_record(self, record: Mapping[str, object]) -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            self._handle.write(line)

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL trace file into raw record dicts.

    Raises ``ValueError`` with the offending line number on corrupt
    input — a truncated final line (a run killed mid-write) is reported,
    not silently dropped.
    """
    records: List[dict] = []
    text = Path(path).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError("%s:%d: corrupt trace line: %s"
                             % (path, number, exc)) from exc
        if not isinstance(record, dict):
            raise ValueError("%s:%d: trace line is not an object"
                             % (path, number))
        records.append(record)
    return records
