"""Transport conformance: one accounting contract, three transports.

Every transport — in-process, lossy (at zero drop probability), and a
real Unix-domain socket through the asyncio daemon — must charge the
*identical* message and byte totals pinned in
``goldens/wire_goldens.json``, for every strategy.  The socket rows are
the tentpole claim of the networking layer: the daemon charges through
the same in-process accounting path the serial engine uses, so framing
must be accounting-invisible, byte for byte.
"""

import pytest

from repro.engine import run_simulation
from repro.net import run_network_simulation
from repro.protocol.transport import LossyTransport
from repro.strategies import PeriodicStrategy
from repro.telemetry import Telemetry, reconcile, validate_event

from ..engine.test_golden_protocol import (GOLDENS, STRATEGY_NAMES,
                                           _factory, _observed)
from ..strategies.conftest import make_world
from ..telemetry.test_reconcile import trace_data

TRANSPORTS = ("inprocess", "lossy", "socket")


@pytest.fixture(scope="module")
def world():
    return make_world()


def _run(world, name, transport):
    strategy = _factory(name, world.max_speed())()
    if transport == "socket":
        return run_network_simulation(world, strategy, sanitize=True)
    factory = LossyTransport if transport == "lossy" else None
    return run_simulation(world, strategy, transport_factory=factory,
                          sanitize=True)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_counters_match_the_wire_goldens(world, transport, name):
    result = _run(world, name, transport)
    assert result.accuracy.perfect
    assert _observed(result.metrics) == GOLDENS[name]


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_socket_goldens_hold_with_tracing_enabled(world, name):
    """Distributed tracing must be accounting-invisible: the trace
    context rides the frame envelope (never charged), so a fully
    traced socket run pins the same byte totals as the untraced
    goldens."""
    strategy = _factory(name, world.max_speed())()
    result = run_network_simulation(world, strategy, sanitize=True,
                                    telemetry=Telemetry.capture())
    assert result.accuracy.perfect
    assert _observed(result.metrics) == GOLDENS[name]


def test_socket_run_telemetry_reconciles(world):
    """The framed run's events and registry agree with its metrics,
    and every traced event is schema-valid — the same reconciliation
    ``repro report`` performs on a serve trace."""
    telemetry = Telemetry.capture()
    result = run_network_simulation(world, PeriodicStrategy(),
                                    telemetry=telemetry)
    assert result.accuracy.perfect
    registry = telemetry.registry
    metrics = result.metrics
    reports = [record for record in telemetry.tracer.sink.records
               if record.get("type") == "location_report"]
    assert len(reports) == metrics.uplink_messages
    assert sum(record["nbytes"] for record in reports) \
        == metrics.uplink_bytes
    outcome = reconcile(trace_data(telemetry, metrics))
    assert outcome["ok"], [entry for entry in outcome["checks"]
                           if not entry["ok"]]
    # The daemon serves through the same AlarmServer and transport, so
    # the socket run carries the per-stage split too.
    assert registry.histogram("trigger_eval_cost_us").count \
        == metrics.alarm_evaluations
    assert registry.counter("net_connections_opened").value == 1
    assert registry.counter("net_connections_closed").value == 1
    assert registry.counter("net_batches").value >= 1
    # Stop-and-wait: one RTT observation per uplink exchange.
    assert registry.histogram("net_rtt_us").count == \
        metrics.uplink_messages
    for record in telemetry.tracer.sink.records:
        assert validate_event(record) == []
