"""Outside-in layer tracing: spans around calls into each layer.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
rebinds the public functions named in :data:`WRAP_TARGETS` to timing
wrappers for the length of one traced pass and restores them after.
Spans are aggregated in memory per span path — count, total time, time
covered by child spans — so a layer's *self time* is
its total minus its children, and the self times under a root span sum
to that root exactly.  Per-fix client calls (``on_sample``, bitmap
probes) are deliberately not wrapped: there are ~10^5 of them per pass
and the client's share is read off as the root span's own self time.

A target that no longer exists (a later refactor renamed or removed
it) is reported in :attr:`Tracer.missing`; every metric fed by that
span then reads ``None`` and the run prints a warning instead of
crashing.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

#: (span name, module, dotted attribute inside the module).  Span names
#: are ``<layer module>.<operation>``; several targets may feed one span.
WRAP_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # world build
    ("roadnet.generate", "repro.roadnet.generator", "generate_network"),
    ("mobility.generate", "repro.mobility.simulator",
     "TraceGenerator.generate"),
    ("alarms.install_batch", "repro.alarms.registry",
     "install_random_alarms"),
    ("alarms.install", "repro.alarms.registry", "AlarmRegistry.install"),
    ("alarms.remove", "repro.alarms.registry", "AlarmRegistry.remove"),
    ("groundtruth.scan", "repro.engine.groundtruth",
     "compute_ground_truth"),
    ("groundtruth.dynamic_scan", "repro.engine.dynamic",
     "compute_dynamic_ground_truth"),
    # server side of one uplink
    ("transport.request", "repro.protocol.transport",
     "InProcessTransport.request"),
    ("transport.push", "repro.protocol.transport",
     "InProcessTransport.push"),
    ("handlers.handle", "repro.protocol.handlers", "handle_request"),
    ("alarms.trigger_eval", "repro.alarms.registry",
     "AlarmRegistry.triggered_at"),
    ("alarms.range_lookup", "repro.alarms.registry",
     "AlarmRegistry.relevant_intersecting"),
    ("alarms.range_lookup", "repro.alarms.registry",
     "AlarmRegistry.nearest_relevant_distance"),
    ("index.query", "repro.index.rstar", "RStarTree.search_intersecting"),
    ("index.query", "repro.index.rstar",
     "RStarTree.search_interior_intersecting"),
    ("index.query", "repro.index.rstar", "RStarTree.search_containing"),
    ("index.query", "repro.index.rstar", "RStarTree.nearest_distance"),
    ("index.insert", "repro.index.rstar", "RStarTree.insert"),
    ("index.delete", "repro.index.rstar", "RStarTree.delete"),
    ("saferegion.compute", "repro.saferegion.mwpsr",
     "MWPSRComputer.compute"),
    ("saferegion.compute", "repro.saferegion.pbsr", "PBSRComputer.compute"),
    # downlink sizing and the byte codecs
    ("wire.size", "repro.protocol.wire", "WireCodec.size_of_response"),
    ("saferegion.sizing", "repro.saferegion.bitmap",
     "PyramidBitmap.bit_length"),
    ("saferegion.sizing", "repro.saferegion.bitmap",
     "LazyPyramidBitmap.bit_length"),
    ("saferegion.sizing", "repro.saferegion.bitmap",
     "BitmapSafeRegion.size_bits"),
    ("wire.encode", "repro.protocol.wire", "WireCodec.encode_request"),
    ("wire.encode", "repro.protocol.wire", "WireCodec.encode_response"),
    ("wire.decode", "repro.protocol.wire", "WireCodec.decode_request"),
    ("framing.encode", "repro.protocol.framing", "encode_reply"),
    ("framing.encode", "repro.protocol.framing", "encode_frame"),
    ("framing.decode", "repro.protocol.framing", "FrameDecoder.feed"),
)

#: Aggregates are keyed by the whole span path, packed base ``_RADIX``:
#: ``path_key = parent_path_key * _RADIX + span_id`` (0 = outside any span).
_RADIX = 256
_TOP = 0

Path = Tuple[str, ...]


class SpanTable:
    """Aggregated spans of one traced phase (what :meth:`Tracer.take` returns).

    ``paths`` maps a span path (outermost first) to ``[count, total_ns,
    child_ns]``.  ``missing`` lists span names with a wrap target that
    does not exist; their readings are ``None`` rather than a silent zero.
    """

    def __init__(self, paths: Dict[Path, List[int]],
                 missing: Sequence[str] = ()) -> None:
        self.paths = paths
        self.missing = frozenset(missing)

    @classmethod
    def from_rows(cls, rows: Sequence[Dict[str, Any]],
                  missing: Sequence[str] = ()) -> "SpanTable":
        """Rebuild a table from :meth:`to_rows` output (the daemon's report)."""
        return cls({tuple(row["path"].split("/")):
                    [row["count"], row["total_ns"], row["child_ns"]]
                    for row in rows}, missing)

    def to_rows(self) -> List[Dict[str, Any]]:
        """One JSON-ready row per span path."""
        return [{"path": "/".join(path), "count": count,
                 "total_ns": total_ns, "child_ns": child_ns}
                for path, (count, total_ns, child_ns)
                in sorted(self.paths.items())]

    def _sum(self, name: str, column: int,
             under: Optional[str]) -> Optional[int]:
        if name in self.missing or under in self.missing:
            return None
        return sum(entry[column] for path, entry in self.paths.items()
                   if path[-1] == name
                   and (under is None or under in path[:-1]))

    def count(self, name: str, under: Optional[str] = None) -> Optional[int]:
        """How many spans of this name ended (below ``under``, if given)."""
        return self._sum(name, 0, under)

    def total_s(self, name: str,
                under: Optional[str] = None) -> Optional[float]:
        """Summed duration of the named spans, nested work included."""
        total = self._sum(name, 1, under)
        return None if total is None else total / 1e9

    def self_s(self, name: str,
               under: Optional[str] = None) -> Optional[float]:
        """Summed duration minus the part child spans cover."""
        total = self._sum(name, 1, under)
        child = self._sum(name, 2, under)
        if total is None or child is None:
            return None
        return (total - child) / 1e9

    def names(self) -> List[str]:
        """Every span name that occurred."""
        return sorted({path[-1] for path in self.paths})


class Tracer:
    """Installs, drives and removes the timing wrappers."""

    def __init__(self, targets: Sequence[Tuple[str, str, str]]
                 = WRAP_TARGETS) -> None:
        self._targets = tuple(targets)
        self._names: List[str] = ["<top>"]  # id 0 is never a real span
        self._ids: Dict[str, int] = {"<top>": _TOP}
        self._totals: Dict[int, List[int]] = {}
        self._stack: List[List[int]] = [[_TOP, 0]]
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self.missing: List[str] = []
        self.warnings: List[str] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _span_id(self, name: str) -> int:
        span_id = self._ids.get(name)
        if span_id is None:
            span_id = len(self._names)
            if span_id >= _RADIX:
                raise ValueError("too many span names")
            self._ids[name] = span_id
            self._names.append(name)
        return span_id

    def _record(self, parent: List[int], frame: List[int],
                elapsed: int) -> None:
        parent[1] += elapsed
        key = frame[0]
        entry = self._totals.get(key)
        if entry is None:
            self._totals[key] = [1, elapsed, frame[1]]
        else:
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += frame[1]

    def _wrapper(self, name: str,
                 function: Callable[..., Any]) -> Callable[..., Any]:
        span_id = self._span_id(name)
        stack = self._stack
        record = self._record
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            frame = [parent[0] * _RADIX + span_id, 0]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                record(parent, frame, elapsed)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A root (or manual) span opened from the benchmark's own code."""
        parent = self._stack[-1]
        frame = [parent[0] * _RADIX + self._span_id(name), 0]
        self._stack.append(frame)
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - started
            self._stack.pop()
            self._record(parent, frame, elapsed)

    def take(self) -> SpanTable:
        """The spans recorded since the last call; recording starts afresh."""
        if len(self._stack) != 1:
            raise RuntimeError("take() inside an open span")
        table = SpanTable({self._path(key): entry
                           for key, entry in self._totals.items()},
                          self.missing)
        self._totals = {}
        return table

    def _path(self, key: int) -> Path:
        names: List[str] = []
        while key:
            key, span_id = divmod(key, _RADIX)
            names.append(self._names[span_id])
        return tuple(reversed(names))

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Rebind every wrap target; record the ones that are gone."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        self.warnings = []
        for name, module_name, dotted in self._targets:
            try:
                owner: Any = importlib.import_module(module_name)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                self.warnings.append(
                    "wrap target %s:%s is gone; metrics fed by span %r "
                    "read null" % (module_name, dotted, name))
                continue
            wrapper = self._wrapper(name, original)
            if path:
                self._rebind(owner, attr, wrapper)
            else:
                # ``from x import f`` copies the binding: rebind every
                # alias inside the package, not only the defining module.
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith(
                            "repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, alias, wrapper)

    def _rebind(self, owner: Any, attr: str, wrapper: Any) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound attribute (idempotent)."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
