"""``repro bench-hotpath``: scalar-vs-vectorized hot-path timings.

Two microbenchmarks time one kernel against its scalar oracle on the
same data — rectangle containment (:func:`repro.geometry.batch.contains`
vs :meth:`~repro.geometry.rect.Rect.contains_point`) and bitmap
bitstring packing/unpacking (:func:`repro.saferegion.packed.pack_bitstring`
vs a pure-Python reference).  Each microbench *verifies* agreement
before it times anything: a kernel that drifted from its oracle fails
the run instead of producing a meaningless speedup number.  (The
``bitmap_probe`` case is gone with its subject, see :data:`NOTE`.)

The ``index_build`` section sets the two ways of building the alarm
index side by side at 10^3/10^4/10^5 alarms of the paper's density:
grown by R* inserts, or packed by :meth:`RStarTree.bulk_load` (what the
registry does with a population known up front).  It reports what the
packed tree buys (build seconds) *and* what it costs (nodes read per
query: STR fills every leaf, forced reinsertion leaves ~30% slack), for
point and cell-sized range queries, plus the price of a later dynamic
insert into each tree.

The end-to-end section replays one workload through the engines four
ways — serial scalar, serial batch, sharded scalar, sharded batch —
and records wall times plus whether every deterministic counter and the
trigger sequence agreed (the batch contract).  Timings use
``time.perf_counter`` deltas only (RL006's sanctioned duration form);
this module never prints (RL007) — the CLI renders
:meth:`HotpathBenchResult.to_dict` as JSON, manifest-embedded like
``repro bench-net``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Tuple)

import numpy as np

from ..geometry import Point, Rect
from ..geometry.batch import PointBatch, contains
from ..index import Pyramid, RStarTree
from ..saferegion.bitmap import PyramidBitmap
from ..saferegion.packed import pack_bitstring, unpack_bitstring
from ..telemetry.manifest import RunManifest

#: Carried at the head of every report (and so of ``BENCH_hotpath.json``).
NOTE = ("bitmap_probe dropped in PR 13: the batch bitmap probe it timed "
        "(PackedBitmap.probe_batch) no longer exists; PyramidBitmap.probe "
        "is the only probe and bench_e2e's replay_pbsr/replay_gbsr time it "
        "end to end.  bitmap_codec packs the new class's to_bitstring().  "
        "GBSR/PBSR have no batch kernel: for them the *_batch_s walls "
        "re-run the scalar loop.")

if TYPE_CHECKING:
    from ..engine.parallel import StrategyFactory
    from ..engine.simulation import World


@dataclass
class MicroBench:
    """One kernel-vs-oracle timing: same inputs, verified-equal outputs."""

    name: str
    items: int
    scalar_s: float
    batch_s: float

    @property
    def speedup(self) -> float:
        return self.scalar_s / self.batch_s if self.batch_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "items": self.items,
            "scalar_s": round(self.scalar_s, 6),
            "batch_s": round(self.batch_s, 6),
            "speedup": round(self.speedup, 1),
        }


@dataclass
class HotpathBenchResult:
    """What one ``bench-hotpath`` run measured."""

    micro: List[MicroBench] = field(default_factory=list)
    #: One row per population size, see :func:`_bench_index_build`.
    index_build: List[Dict[str, object]] = field(default_factory=list)
    strategy: str = ""
    vehicles: int = 0
    samples: int = 0
    workers: int = 1
    serial_scalar_s: float = 0.0
    serial_batch_s: float = 0.0
    sharded_scalar_s: float = 0.0
    sharded_batch_s: float = 0.0
    #: Did serial-batch and sharded-batch reproduce the serial-scalar
    #: run's deterministic counters and trigger sequence exactly?  The
    #: batch contract — ``False`` fails the CLI with a non-zero exit.
    counters_match: bool = False

    def to_dict(self, manifest: Optional[RunManifest] = None
                ) -> Dict[str, object]:
        """JSON-ready summary (the ``repro bench-hotpath`` output).

        With ``manifest`` the run's provenance is embedded under
        ``run_manifest``, the same record ``BENCH_net.json`` carries, so
        the committed ``BENCH_hotpath.json`` baseline states what
        produced it.
        """
        payload: Dict[str, object] = {
            "note": NOTE,
            "micro": [bench.to_dict() for bench in self.micro],
            "index_build": self.index_build,
            "end_to_end": {
                "strategy": self.strategy,
                "vehicles": self.vehicles,
                "samples": self.samples,
                "workers": self.workers,
                "serial_scalar_s": round(self.serial_scalar_s, 4),
                "serial_batch_s": round(self.serial_batch_s, 4),
                "sharded_scalar_s": round(self.sharded_scalar_s, 4),
                "sharded_batch_s": round(self.sharded_batch_s, 4),
                "serial_speedup": round(
                    self.serial_scalar_s / self.serial_batch_s, 2)
                if self.serial_batch_s > 0 else 0.0,
                "counters_match": self.counters_match,
            },
        }
        if manifest is not None:
            payload["run_manifest"] = manifest.to_dict()
        return payload


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall time of ``repeats`` calls (noise-resistant minimum)."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# ----------------------------------------------------------------------
# Microbenchmarks
# ----------------------------------------------------------------------
def _bench_containment(rng: random.Random, points: int,
                       repeats: int) -> MicroBench:
    """Closed rectangle containment: scalar loop vs broadcast kernel."""
    rect = Rect(200.0, 300.0, 1800.0, 1500.0)
    xs = [rng.uniform(0.0, 2000.0) for _ in range(points)]
    ys = [rng.uniform(0.0, 2000.0) for _ in range(points)]
    scalar_points = [Point(x, y) for x, y in zip(xs, ys)]
    batch = PointBatch(np.array(xs, dtype=np.float64),
                       np.array(ys, dtype=np.float64))

    expected = [rect.contains_point(p) for p in scalar_points]
    if contains(rect, batch).tolist() != expected:
        raise AssertionError("containment kernel disagrees with "
                             "Rect.contains_point")
    scalar_s = _best_of(
        lambda: [rect.contains_point(p) for p in scalar_points], repeats)
    batch_s = _best_of(lambda: contains(rect, batch), repeats)
    return MicroBench("containment", points, scalar_s, batch_s)


def _busy_bitmap(rng: random.Random) -> PyramidBitmap:
    """A busy height-5 pyramid bitmap (24 alarms over a 900 m cell)."""
    base = Rect(0.0, 0.0, 900.0, 900.0)
    obstacles = []
    for _ in range(24):
        x = rng.uniform(0.0, 850.0)
        y = rng.uniform(0.0, 850.0)
        side = rng.uniform(20.0, 120.0)
        obstacles.append(Rect(x, y, x + side, y + side))
    return PyramidBitmap.from_obstacles(Pyramid(base, height=5), obstacles)


def _pack_scalar(bits: str) -> List[int]:
    """Pure-Python oracle of :func:`pack_bitstring`'s word layout."""
    words: List[int] = []
    for start in range(0, len(bits), 64):
        word = 0
        for offset, char in enumerate(bits[start:start + 64]):
            if char == "1":
                word |= 1 << offset
            elif char != "0":
                raise ValueError("bitstring must contain only 0 and 1")
        words.append(word)
    return words


def _unpack_scalar(words: List[int], bit_length: int) -> str:
    """Pure-Python oracle of :func:`unpack_bitstring`."""
    chars: List[str] = []
    for index in range(bit_length):
        word = words[index // 64]
        chars.append("1" if (word >> (index % 64)) & 1 else "0")
    return "".join(chars)


def _bench_bitmap_codec(rng: random.Random, points: int,
                        repeats: int) -> MicroBench:
    """Bitstring pack+unpack round trip: Python loop vs packbits."""
    # One busy pyramid serialization, tiled to the requested item count
    # so the codec benches the same order of magnitude of bits as the
    # other microbenches do points.
    bits = _busy_bitmap(rng).to_bitstring()
    bits = bits * max(1, points // max(len(bits), 1))

    words, bit_length = pack_bitstring(bits)
    if words.tolist() != _pack_scalar(bits):
        raise AssertionError("pack_bitstring disagrees with the "
                             "pure-Python packer")
    if (unpack_bitstring(words, bit_length) != bits
            or _unpack_scalar(words.tolist(), bit_length) != bits):
        raise AssertionError("bitstring unpack round trip failed")

    def scalar_codec() -> None:
        packed = _pack_scalar(bits)
        _unpack_scalar(packed, len(bits))

    def batch_codec() -> None:
        packed, length = pack_bitstring(bits)
        unpack_bitstring(packed, length)

    scalar_s = _best_of(scalar_codec, repeats)
    batch_s = _best_of(batch_codec, repeats)
    return MicroBench("bitmap_codec", len(bits), scalar_s, batch_s)


# ----------------------------------------------------------------------
# Index build: grown by inserts vs packed by STR
# ----------------------------------------------------------------------
#: Populations benched (those no larger than ``points``).
INDEX_BUILD_SIZES = (1_000, 10_000, 100_000)
ALARMS_PER_KM2 = 10.0           # the paper's 10,000 alarms on ~1,000 km^2
CELL_SIDE_M = 1581.0            # a 2.5 km^2 grid cell


def _grow(items: List[Tuple[int, Rect]]) -> RStarTree:
    tree = RStarTree()
    for item, rect in items:
        tree.insert(item, rect)
    return tree


def _squares(rng: random.Random, count: int, side_m: float,
             first_id: int = 0) -> List[Tuple[int, Rect]]:
    """``count`` alarm-sized squares (50-250 m) uniform over the universe."""
    items = []
    for item in range(first_id, first_id + count):
        x, y = rng.uniform(0.0, side_m), rng.uniform(0.0, side_m)
        side = rng.uniform(50.0, 250.0)
        items.append((item, Rect(x, y, x + side, y + side)))
    return items


def _leaf_fill(tree: RStarTree) -> float:
    """Mean entries per leaf (``max_entries`` is 16)."""
    leaves = 0
    stack = [tree._root]
    while stack:
        node = stack.pop()
        if node.leaf:
            leaves += 1
        else:
            stack.extend(entry.child for entry in node.entries
                         if entry.child is not None)
    return round(len(tree) / leaves, 2)


def _bench_index_build(rng: random.Random, alarms: int, queries: int,
                       repeats: int) -> Dict[str, object]:
    """Both builds of one population, their query cost, a later insert."""
    side_m = math.sqrt(alarms / ALARMS_PER_KM2) * 1000.0
    items = _squares(rng, alarms, side_m)
    later = _squares(rng, max(1, queries // 10), side_m, first_id=alarms)
    points = [Point(rng.uniform(0.0, side_m), rng.uniform(0.0, side_m))
              for _ in range(queries)]
    cells = [Rect(p.x, p.y, p.x + CELL_SIDE_M, p.y + CELL_SIDE_M)
             for p in points]
    row: Dict[str, object] = {"alarms": alarms, "queries": queries,
                              "later_inserts": len(later)}
    answers = []
    for name, build in (("inserted", _grow), ("packed", RStarTree.bulk_load)):
        started = time.perf_counter()
        tree = build(items)
        measures = {"build_s": time.perf_counter() - started}
        shape = {"height": tree.height, "leaf_fill": _leaf_fill(tree)}
        answers.append(
            [sorted(tree.search_containing(p, interior=True))
             for p in points]
            + [sorted(tree.search_interior_intersecting(cell))
               for cell in cells])
        for kind, run in (
                ("point", lambda: [tree.search_containing(p, interior=True)
                                   for p in points]),
                ("range", lambda: [tree.search_interior_intersecting(cell)
                                   for cell in cells])):
            tree.stats.reset()
            elapsed = _best_of(run, repeats)
            measures[kind + "_us_per_query"] = elapsed * 1e6 / queries
            measures[kind + "_nodes_per_query"] = (
                tree.stats.node_accesses / (queries * repeats))
        started = time.perf_counter()
        for item, rect in later:
            tree.insert(item, rect)
        measures["later_insert_us"] = ((time.perf_counter() - started)
                                       * 1e6 / len(later))
        tree.validate()
        row[name] = dict({key: round(value, 4)
                          for key, value in measures.items()}, **shape)
    if answers[0] != answers[1]:
        raise AssertionError("packed and inserted trees answer differently")
    return row


# ----------------------------------------------------------------------
# End-to-end engine comparison
# ----------------------------------------------------------------------
def _run_end_to_end(world: "World", strategy_factory: "StrategyFactory",
                    workers: int, result: HotpathBenchResult) -> None:
    """Replay the workload four ways; record walls and the equivalence."""
    from ..engine.parallel import run_parallel_simulation
    from ..engine.simulation import run_simulation

    serial_scalar = run_simulation(world, strategy_factory())
    serial_batch = run_simulation(world, strategy_factory(),
                                  use_batch=True)
    sharded_scalar = run_parallel_simulation(world, strategy_factory,
                                             workers=workers)
    sharded_batch = run_parallel_simulation(world, strategy_factory,
                                            workers=workers,
                                            use_batch=True)
    reference = serial_scalar.metrics
    result.strategy = serial_scalar.strategy_name
    result.vehicles = serial_scalar.client_count
    result.samples = serial_scalar.total_samples
    result.workers = sharded_batch.workers
    result.serial_scalar_s = serial_scalar.wall_time_s
    result.serial_batch_s = serial_batch.wall_time_s
    result.sharded_scalar_s = sharded_scalar.wall_time_s
    result.sharded_batch_s = sharded_batch.wall_time_s
    result.counters_match = all(
        run.metrics.counters() == reference.counters()
        and run.metrics.triggers == reference.triggers
        for run in (serial_batch, sharded_scalar, sharded_batch))


def run_hotpath_bench(world: "World",
                      strategy_factory: "StrategyFactory",
                      workers: int = 2,
                      points: int = 100_000,
                      repeats: int = 3,
                      seed: int = 11) -> HotpathBenchResult:
    """Measure the vectorized hot paths against their scalar oracles.

    ``points`` sizes the microbench populations; ``repeats`` runs each
    timed section that many times and keeps the best (minimum) wall
    time; ``seed`` feeds the private RNG that lays out the microbench
    geometry, so two runs on the same machine bench identical inputs.
    The end-to-end section replays ``world`` through
    ``strategy_factory`` with and without ``use_batch``, serial and
    sharded over ``workers`` processes.  The ``index_build`` section
    runs every population of :data:`INDEX_BUILD_SIZES` up to ``points``
    with ``points // 10`` queries of each kind.
    """
    if points < 1:
        raise ValueError("points must be positive")
    if repeats < 1:
        raise ValueError("repeats must be positive")
    rng = random.Random(seed)
    result = HotpathBenchResult()
    result.micro.append(_bench_containment(rng, points, repeats))
    result.micro.append(_bench_bitmap_codec(rng, points, repeats))
    _run_end_to_end(world, strategy_factory, workers, result)
    # Last: a 10^5-alarm tree leaves a heap the forked shard workers
    # above would otherwise inherit (and pay for, page by page).
    for alarms in INDEX_BUILD_SIZES:
        if alarms <= points:
            result.index_build.append(
                _bench_index_build(rng, alarms, max(1, points // 10),
                                   repeats))
    return result
