"""Telemetry instruments: counters and fixed-bucket histograms.

:class:`~repro.engine.metrics.Metrics` reduces a run to the paper's
aggregate numbers; the roadmap's scale needs *distributions* — how long
clients reside in their safe regions, how large downlink payloads are,
how much one report costs the server.  A :class:`MetricsRegistry` holds
named instruments and merges associatively across shards exactly like
``Metrics.merged``, so the parallel engine folds per-shard registries
into one run-level registry without ordering sensitivity (the property
suite in ``tests/telemetry`` asserts associativity and commutativity).

Instruments carry a ``deterministic`` flag: counters and histograms fed
from simulation-clock quantities (residence seconds, payload bits, index
fan-out) are bit-identical between serial and sharded replays of the
same seeded world, while wall-time histograms (per-report server cost)
are machine-dependent by nature.  Equality tests compare
:meth:`MetricsRegistry.deterministic_snapshot` only.

:data:`INSTRUMENTS` declares every instrument once — name, kind, flag,
buckets and reconciliation witness — and a registry creates nothing
else, so a misspelt name fails where it is written.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Type, TypeVar, Union)

Number = Union[int, float]


class Declared(NamedTuple):
    """One registry instrument as the code may create it."""

    #: ``"counter"`` or ``"histogram"``.
    kind: str
    #: Bit-identical between serial and sharded replays of one world.
    deterministic: bool = True
    #: Histogram upper bounds (``le`` semantics; one implicit overflow
    #: bucket above the last bound).
    buckets: Tuple[float, ...] = ()
    #: What ``reconcile`` sets a deterministic counter against: the
    #: event type it counts, or the ``Metrics`` field that its family
    #: (``<field>_<member>``) sums to.
    witness: Optional[str] = None


_COST_US = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0)
_STAGE_US = (2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0)

#: Every instrument a registry can create, and nothing else: the
#: accessors refuse an undeclared name or the wrong kind, and
#: ``reconcile`` derives its registry rows from the witnesses.
INSTRUMENTS: Dict[str, Declared] = {
    # Counters with an event-stream witness.
    "saferegion_exits": Declared("counter", witness="saferegion_exit"),
    "net_connections_opened": Declared("counter",
                                       witness="net_conn_open"),
    "net_connections_closed": Declared("counter",
                                       witness="net_conn_close"),
    "net_batches": Declared("counter", witness="net_batch"),
    # Downlinks by protocol message kind; the family sums to Metrics.
    "downlink_messages_rect": Declared("counter",
                                       witness="downlink_messages"),
    "downlink_messages_safe_period": Declared(
        "counter", witness="downlink_messages"),
    "downlink_messages_bitmap": Declared("counter",
                                         witness="downlink_messages"),
    "downlink_messages_alarm_push": Declared(
        "counter", witness="downlink_messages"),
    "downlink_messages_invalidate": Declared(
        "counter", witness="downlink_messages"),
    # The shared safe-region memo: each shard fills a memo of its own.
    "saferegion_cache_hits": Declared("counter", deterministic=False),
    "saferegion_cache_misses": Declared("counter", deterministic=False),
    # Seconds a client stays inside one safe region before exiting.
    "saferegion_residence_s": Declared(
        "histogram", buckets=(1.0, 2.0, 5.0, 10.0, 20.0, 60.0, 120.0,
                              300.0, 600.0)),
    # Downlink payload size in bits (rects are tiny, alarm pushes huge).
    "downlink_payload_bits": Declared(
        "histogram", buckets=(128.0, 256.0, 512.0, 1024.0, 2048.0,
                              8192.0, 32768.0, 131072.0)),
    # Pending alarms returned by one index lookup (fan-out).
    "index_fanout": Declared(
        "histogram", buckets=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
                              100.0)),
    # Wall-clock cost of serving one location report and of one safe
    # region, microseconds, and the stages nested inside them: trigger
    # evaluation of one report, one index lookup feeding a safe region,
    # sizing one downlink payload.
    "report_cost_us": Declared("histogram", deterministic=False,
                               buckets=_COST_US),
    "saferegion_compute_cost_us": Declared("histogram", deterministic=False,
                                           buckets=_COST_US),
    "trigger_eval_cost_us": Declared("histogram", deterministic=False,
                                     buckets=_STAGE_US),
    "index_lookup_cost_us": Declared("histogram", deterministic=False,
                                     buckets=_STAGE_US),
    "downlink_sizing_cost_us": Declared(
        "histogram", deterministic=False,
        buckets=(1.0, 2.0, 5.0, 10.0, 50.0, 200.0, 1000.0)),
    # The daemon's serving stages of one REQUEST, microseconds: decode,
    # handle (the in-process exchange), reply encode and framing.
    "decode_cost_us": Declared("histogram", deterministic=False,
                               buckets=_STAGE_US),
    "handle_cost_us": Declared("histogram", deterministic=False,
                               buckets=_STAGE_US),
    "reply_encode_cost_us": Declared("histogram", deterministic=False,
                                     buckets=_STAGE_US),
    # REPLY frames per coalesced daemon write (1 = no coalescing); the
    # split depends on socket arrival timing.
    "net_batch_size": Declared(
        "histogram", deterministic=False,
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)),
    # Wall-clock cost of one coalesced write, first decode to drain,
    # microseconds.
    "net_batch_handle_us": Declared(
        "histogram", deterministic=False,
        buckets=(10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0,
                 20000.0)),
    # Client-observed framed request-reply round trip, microseconds.
    "net_rtt_us": Declared(
        "histogram", deterministic=False,
        buckets=(50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
                 20000.0, 100000.0)),
}


class TelemetryError(Exception):
    """Instrument misuse or malformed telemetry payload."""


class Counter:
    """Monotonic sum; merge adds."""

    kind = "counter"
    __slots__ = ("name", "deterministic", "value")

    def __init__(self, name: str, deterministic: bool = True) -> None:
        self.name = name
        self.deterministic = deterministic
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise TelemetryError("counter %r cannot decrease" % self.name)
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "deterministic": self.deterministic,
                "value": self.value}


class Histogram:
    """Fixed-bucket histogram with ``le`` (at-or-below) bucket semantics.

    ``buckets`` are strictly ascending upper bounds; one implicit
    overflow bucket counts observations above the last bound.  The
    merge is element-wise and therefore associative and commutative —
    the property the shard reduction relies on and the hypothesis suite
    pins.
    """

    kind = "histogram"
    __slots__ = ("name", "deterministic", "buckets", "bucket_counts",
                 "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float],
                 deterministic: bool = True) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise TelemetryError("histogram %r needs at least one bucket"
                                 % name)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                "histogram %r buckets must be strictly ascending" % name)
        self.name = name
        self.deterministic = deterministic
        self.buckets = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation within the bucket the quantile falls in, its
        edges clamped to the observed minimum and maximum (no sample lies
        outside them, so a histogram of equal samples reads their value at
        every quantile); a quantile landing in the overflow bucket reports
        the observed maximum.  Exact percentiles need the raw samples.
        """
        minimum, maximum = self.min, self.max
        if self.count <= 0 or minimum is None or maximum is None:
            return 0.0
        rank = q * self.count
        cumulative = 0.0
        lower = minimum
        for bound, count in zip(self.buckets, self.bucket_counts):
            if count and cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                return float(lower + (min(bound, maximum) - lower) * fraction)
            cumulative += count
            lower = max(bound, minimum)
        return float(maximum)

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise TelemetryError(
                "cannot merge histogram %r: bucket bounds differ "
                "(%r vs %r)" % (self.name, self.buckets, other.buckets))
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "deterministic": self.deterministic,
                "buckets": list(self.buckets),
                "bucket_counts": list(self.bucket_counts),
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max}


Instrument = Union[Counter, Histogram]

_InstrumentT = TypeVar("_InstrumentT", Counter, Histogram)


class MetricsRegistry:
    """Named instruments with an associative cross-shard merge.

    ``counter``/``histogram`` are get-or-create over
    :data:`INSTRUMENTS`: repeated calls with the same name return the
    same instrument, and the first call creates it with the declared
    kind, flag and buckets — or raises :class:`TelemetryError` for an
    undeclared name or the wrong kind.  Registries serialize to plain
    dicts (picklable across the parallel engine's process boundary,
    JSON-ready for the trace summary record) and rebuild via
    :meth:`from_dict`; that and :meth:`merge` take instruments as
    recorded, their own metadata included.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._lookup(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._lookup(name, Histogram)

    def _lookup(self, name: str, cls: Type[_InstrumentT]) -> _InstrumentT:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = _declared(name)
            if isinstance(instrument, cls):
                self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise TelemetryError(
                "instrument %r is a %s, not a %s"
                % (name, instrument.kind, cls.kind))
        return instrument

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    # Merge contract (mirrors Metrics.merged)
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one."""
        for name in sorted(other._instruments):
            theirs = other._instruments[name]
            mine = self._instruments.get(name)
            if mine is None:
                self._instruments[name] = _copy_instrument(theirs)
            elif type(mine) is not type(theirs):
                raise TelemetryError(
                    "instrument %r kind mismatch in merge: %s vs %s"
                    % (name, mine.kind, theirs.kind))
            else:
                mine.merge(theirs)  # type: ignore[arg-type]
        return self

    @classmethod
    def merged(cls, parts: Sequence["MetricsRegistry"]
               ) -> "MetricsRegistry":
        """Combine per-shard registries into one (associative)."""
        combined = cls()
        for part in parts:
            combined.merge(part)
        return combined

    # ------------------------------------------------------------------
    # Serialized form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """``{name: instrument dict}``, sorted by name."""
        return {name: self._instruments[name].to_dict()
                for name in sorted(self._instruments)}

    def deterministic_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Serialized form restricted to run-deterministic instruments.

        This is the signature the serial-vs-sharded golden tests compare
        bit-for-bit; wall-time histograms are machine-dependent and
        excluded (``Metrics`` holds no time at all).
        """
        return {name: inst.to_dict()
                for name, inst in sorted(self._instruments.items())
                if inst.deterministic}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for name in sorted(payload):
            registry._instruments[name] = _instrument_from_dict(
                name, payload[name])
        return registry


def _declared(name: str) -> Instrument:
    """A fresh instrument as :data:`INSTRUMENTS` declares ``name``."""
    spec = INSTRUMENTS.get(name)
    if spec is None:
        raise TelemetryError("undeclared telemetry instrument %r" % name)
    if spec.kind == Histogram.kind:
        return Histogram(name, spec.buckets, spec.deterministic)
    return Counter(name, spec.deterministic)


def _copy_instrument(instrument: Instrument) -> Instrument:
    return _instrument_from_dict(instrument.name, instrument.to_dict())


def _instrument_from_dict(name: str, data: object) -> Instrument:
    if not isinstance(data, dict):
        raise TelemetryError("instrument %r is not an object" % name)
    kind = data.get("kind")
    deterministic = bool(data.get("deterministic", True))
    if kind == Counter.kind:
        counter = Counter(name, deterministic)
        counter.value = _number(data.get("value"))
        return counter
    if kind == Histogram.kind:
        buckets, counts = data.get("buckets"), data.get("bucket_counts")
        if not isinstance(buckets, list) or not isinstance(counts, list):
            raise TelemetryError("histogram %r payload lacks its bucket "
                                 "lists" % name)
        histogram = Histogram(name, [_number(b) for b in buckets],
                              deterministic)
        if len(counts) != len(histogram.bucket_counts):
            raise TelemetryError(
                "histogram %r payload has %d bucket counts for %d "
                "buckets" % (name, len(counts), len(histogram.buckets)))
        histogram.bucket_counts = [int(_number(c)) for c in counts]
        histogram.count = int(_number(data.get("count")))
        histogram.sum = _number(data.get("sum"))
        minimum, maximum = data.get("min"), data.get("max")
        histogram.min = _number(minimum) if minimum is not None else None
        histogram.max = _number(maximum) if maximum is not None else None
        return histogram
    raise TelemetryError("unknown instrument kind %r for %r" % (kind, name))


def _number(value: object) -> Number:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TelemetryError("expected a number, got %r" % (value,))
    return value


def payload_object(payload: Mapping[str, object],
                   name: str) -> Dict[str, object]:
    """Section ``name`` of a payload read from outside the process."""
    section = payload.get(name)
    if not isinstance(section, dict):
        raise TelemetryError("payload section %r is not an object (%s)"
                             % (name, type(section).__name__))
    return section


@dataclass(frozen=True)
class Ledger:
    """A run's counts and times: ``Metrics.counters()`` and a registry.

    The one ``{metrics, registry}`` payload that a trace's summary
    record and a daemon's STATS snapshot both carry.  :meth:`to_payload`
    writes it; :meth:`from_payload` parses it, once, for every reader
    (``repro report``, ``repro stats``/``top``, the exporters).
    """

    counters: Mapping[str, Number] = field(default_factory=dict)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    def to_payload(self) -> Dict[str, object]:
        return {"metrics": dict(self.counters),
                "registry": self.registry.to_dict()}

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "Ledger":
        """Parse a trace summary or a STATS snapshot: each section must
        be an object, of numbers and of instruments, or
        :class:`TelemetryError` says which is not."""
        counters = payload_object(payload, "metrics")
        return cls({name: _number(value)
                    for name, value in counters.items()},
                   MetricsRegistry.from_dict(
                       payload_object(payload, "registry")))
