"""Event-stream goldens: what a traced run writes, pinned per strategy.

``goldens/event_goldens.json`` holds one sha256 per (strategy, mode) of
a traced TINY run, for every strategy ``repro simulate`` names and three
modes: the serial engine, the two-shard engine, and a serial run over a
lossy link (``uplink_drop=0.2, downlink_drop=0.2, seed=3``).  Each hash
covers

* the event records as the JSONL sink writes them (compact, key-sorted
  JSON, one line each, in emission order), with the wall-time fields
  ``cost_us``, ``elapsed_us`` and ``wall_s`` dropped, and
* the registry's ``deterministic_snapshot()``.

The other goldens pin ``Metrics``; these pin what the telemetry plane
writes beside them, so a refactor of the emitters must leave every
record — type, order, shard stamp and fields — byte-for-byte the same.

Regenerate (only for a change that means to alter the stream) with
``PYTHONPATH=src python -m tests.telemetry.test_event_goldens``.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.engine import run_parallel_simulation, run_simulation
from repro.experiments import TINY, build_world
from repro.experiments.figures import (make_mwpsr_strategy,
                                       make_pbsr_strategy)
from repro.protocol.transport import LossyTransport
from repro.strategies import (OptimalStrategy, PeriodicStrategy,
                              SafePeriodStrategy)
from repro.telemetry import ListSink, Telemetry

GOLDEN_PATH = Path(__file__).parent / "goldens" / "event_goldens.json"

#: The strategies ``repro simulate`` names, as picklable factories.
STRATEGIES = ("periodic", "sp", "mwpsr", "mwpsr-nw", "gbsr", "pbsr",
              "opt")
MODES = ("serial", "sharded", "lossy")

#: Host-time fields: they differ between any two runs.
WALL_TIME_FIELDS = ("cost_us", "elapsed_us", "wall_s")

LOSSY = functools.partial(LossyTransport, uplink_drop=0.2,
                          downlink_drop=0.2, seed=3)


def _factory(name, max_speed):
    if name == "periodic":
        return PeriodicStrategy
    if name == "sp":
        return functools.partial(SafePeriodStrategy, max_speed=max_speed)
    if name == "mwpsr":
        return make_mwpsr_strategy
    if name == "mwpsr-nw":
        return functools.partial(make_mwpsr_strategy, weighted=False)
    if name == "gbsr":
        return functools.partial(make_pbsr_strategy, 1)
    if name == "pbsr":
        return functools.partial(make_pbsr_strategy, 5)
    assert name == "opt"
    return OptimalStrategy


def event_digest(world, name, mode):
    """The sha256 of one traced run's events and deterministic registry."""
    sink = ListSink()
    telemetry = Telemetry.capture(sink)
    factory = _factory(name, world.max_speed())
    if mode == "sharded":
        run_parallel_simulation(world, factory, workers=2,
                                telemetry=telemetry)
    else:
        run_simulation(world, factory(), telemetry=telemetry,
                       transport_factory=LOSSY if mode == "lossy"
                       else None)
    digest = hashlib.sha256()
    for record in sink.records:
        kept = {key: value for key, value in record.items()
                if key not in WALL_TIME_FIELDS}
        digest.update(json.dumps(kept, sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n")
    digest.update(json.dumps(telemetry.registry.deterministic_snapshot(),
                             sort_keys=True).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def world():
    return build_world(TINY)


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_every_strategy_and_mode(goldens):
    assert sorted(goldens) == sorted("%s/%s" % (name, mode)
                                     for name in STRATEGIES
                                     for mode in MODES)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", STRATEGIES)
def test_event_stream_matches_golden(world, goldens, name, mode):
    assert event_digest(world, name, mode) == goldens["%s/%s" % (name, mode)]


if __name__ == "__main__":
    tiny = build_world(TINY)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"%s/%s" % (name, mode): event_digest(tiny, name, mode)
         for name in STRATEGIES for mode in MODES},
        indent=2, sort_keys=True) + "\n")
