"""Transports: the single accounting boundary, reliable and lossy."""

import pytest

from repro.alarms import AlarmRegistry, AlarmScope
from repro.engine import AlarmServer, MessageSizes, Metrics
from repro.geometry import Point, Rect
from repro.index import GridOverlay
from repro.protocol.handlers import EVALUATE_ONLY, ServerPolicy
from repro.protocol.messages import (AlarmNotification, InstallSafePeriod,
                                     InvalidateState, LocationReport,
                                     RegionExitReport)
from repro.protocol.transport import (InProcessTransport, LossyTransport,
                                      TransportError, WireFidelityError)
from repro.protocol.wire import (DOWNLINK_HEADER_SIZE, UPLINK_LOCATION_SIZE,
                                 WireCodec)

UNIVERSE = Rect(0, 0, 4000, 4000)
#: What one safe-period downlink is charged: the codec's sizing.
SAFE_PERIOD_BYTES = WireCodec().size_of_response(InstallSafePeriod(0.0))


class InstallOnEveryReport(ServerPolicy):
    """Test policy: ship one sized payload per uplink."""

    def on_location_report(self, server, request, time_s, triggered):
        return (InstallSafePeriod(expiry=time_s + 30.0),)

    on_region_exit = on_location_report


def make_server():
    registry = AlarmRegistry()
    registry.install(Rect(100, 100, 200, 200), AlarmScope.PUBLIC, 1)
    grid = GridOverlay(UNIVERSE, cell_area_km2=1.0)
    return AlarmServer(registry, grid, Metrics(), sizes=MessageSizes())


def report(sequence=0, position=Point(3000, 3000), exit=False):
    cls = RegionExitReport if exit else LocationReport
    return cls(user_id=2, sequence=sequence, position=position,
               heading=0.0, speed=5.0)


class TestInProcessAccounting:
    def test_uplink_and_downlink_charged_once(self):
        server = make_server()
        transport = InProcessTransport(server, InstallOnEveryReport(),
                                       verify_wire=True)
        reply = transport.request(report(), 0.0)
        assert any(isinstance(m, InstallSafePeriod) for m in reply)
        metrics = server.metrics
        assert metrics.uplink_messages == 1
        assert metrics.uplink_bytes == UPLINK_LOCATION_SIZE
        assert metrics.downlink_messages == 1
        assert metrics.downlink_bytes == SAFE_PERIOD_BYTES

    def test_in_band_notifications_are_free(self):
        server = make_server()
        transport = InProcessTransport(server, EVALUATE_ONLY)
        reply = transport.request(report(position=Point(150, 150)), 0.0)
        assert any(isinstance(m, AlarmNotification) for m in reply)
        assert server.metrics.downlink_messages == 0
        assert server.metrics.downlink_bytes == 0

    def test_push_charges_downlink(self):
        server = make_server()
        transport = InProcessTransport(server, EVALUATE_ONLY)
        transport.push(2, InvalidateState(), 1.0)
        assert server.metrics.downlink_messages == 1
        assert server.metrics.downlink_bytes == DOWNLINK_HEADER_SIZE

    def test_wire_fidelity_catches_size_lies(self):
        server = make_server()
        transport = InProcessTransport(server, EVALUATE_ONLY,
                                       verify_wire=True)

        class LyingCodec(WireCodec):
            def size_of_request(self, request):
                return 999

        transport.codec = LyingCodec()
        with pytest.raises(WireFidelityError):
            transport.request(report(), 0.0)

    def test_wire_fidelity_catches_response_size_lies(self):
        server = make_server()
        transport = InProcessTransport(server, InstallOnEveryReport(),
                                       verify_wire=True)

        class DriftingCodec(WireCodec):
            def size_of_response(self, message):
                return super().size_of_response(message) + 1

        transport.codec = DriftingCodec()
        with pytest.raises(WireFidelityError,
                           match="downlink safe_period charged"):
            transport.request(report(), 0.0)
        assert server.metrics.downlink_messages == 0


class TestLossyTransport:
    def test_reliable_when_drop_free(self):
        server = make_server()
        lossy = LossyTransport(server, InstallOnEveryReport(), seed=1)
        lossy.request(report(), 0.0)
        assert server.metrics.uplink_messages == 1
        assert server.metrics.uplink_drops == 0
        assert server.metrics.downlink_drops == 0

    def test_drops_are_charged_and_counted(self):
        server = make_server()
        lossy = LossyTransport(server, InstallOnEveryReport(),
                               uplink_drop=0.5, downlink_drop=0.5,
                               seed=3, max_attempts=64)
        for sequence in range(20):
            reply = lossy.request(report(sequence=sequence), float(sequence))
            assert any(isinstance(m, InstallSafePeriod) for m in reply)
        metrics = server.metrics
        assert metrics.uplink_drops > 0
        assert metrics.downlink_drops > 0
        # Every attempt is charged: messages = deliveries + drops.
        assert metrics.uplink_messages == 20 + metrics.uplink_drops
        assert metrics.downlink_messages == 20 + metrics.downlink_drops
        assert metrics.uplink_bytes == \
            metrics.uplink_messages * UPLINK_LOCATION_SIZE
        assert metrics.downlink_bytes == \
            metrics.downlink_messages * SAFE_PERIOD_BYTES

    def test_seeded_runs_are_reproducible(self):
        def run():
            server = make_server()
            lossy = LossyTransport(server, InstallOnEveryReport(),
                                   uplink_drop=0.4, seed=9,
                                   max_attempts=32)
            for sequence in range(10):
                lossy.request(report(sequence=sequence), float(sequence))
            return (server.metrics.uplink_messages,
                    server.metrics.uplink_drops)

        assert run() == run()

    def test_exhaustion_raises(self):
        server = make_server()
        lossy = LossyTransport(server, EVALUATE_ONLY,
                               uplink_drop=0.999999, max_attempts=3,
                               seed=5)
        with pytest.raises(TransportError):
            lossy.request(report(), 0.0)
        assert server.metrics.uplink_drops == 3

    def test_invalid_probabilities_rejected(self):
        server = make_server()
        with pytest.raises(ValueError):
            LossyTransport(server, EVALUATE_ONLY, uplink_drop=1.0)
        with pytest.raises(ValueError):
            LossyTransport(server, EVALUATE_ONLY, downlink_drop=-0.1)
        with pytest.raises(ValueError):
            LossyTransport(server, EVALUATE_ONLY, max_attempts=0)
