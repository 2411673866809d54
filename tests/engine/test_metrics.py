"""Tests for metrics, network sizing and the energy model."""

import pytest

from repro.engine import (EnergyModel, MessageSizes, Metrics,
                          RADIO_ENERGY_MODEL, TriggerEvent)
from repro.geometry import Rect
from repro.protocol import wire
from repro.protocol.messages import (AlarmRecord, InstallAlarmList,
                                     InstallSafePeriod, InstallSafeRegion)
from repro.protocol.wire import WireCodec


class TestMetrics:
    def test_defaults_zero(self):
        metrics = Metrics()
        assert metrics.uplink_messages == 0
        assert metrics.safe_region_computations == 0
        assert metrics.triggers == []

    def test_bandwidth(self):
        metrics = Metrics(downlink_bytes=1_000_000)
        assert metrics.downstream_bandwidth_mbps(8.0) == pytest.approx(1.0)
        assert metrics.downstream_bandwidth_mbps(0.0) == 0.0

    def test_fired_pairs_dedup(self):
        metrics = Metrics(triggers=[TriggerEvent(1.0, 1, 5),
                                    TriggerEvent(2.0, 1, 5),
                                    TriggerEvent(2.0, 2, 5)])
        assert metrics.fired_pairs() == {(1, 5), (2, 5)}

    def test_checks_per_second(self):
        metrics = Metrics(containment_checks=600)
        assert metrics.checks_per_second(60.0, 10) == pytest.approx(1.0)
        assert metrics.checks_per_second(0.0, 10) == 0.0


class TestMergeGolden:
    """Pins the merge contract's aggregation to hand-computed values.

    These numbers are written out by hand on purpose: if the merge ever
    changes what it sums or how it orders triggers, this test fails even
    when the differential suite's serial-vs-sharded comparison would
    still (vacuously) agree with itself.
    """

    @staticmethod
    def _shard_a():
        return Metrics(uplink_messages=10, uplink_bytes=320,
                       downlink_messages=4, downlink_bytes=192,
                       trigger_notifications=2, containment_checks=100,
                       containment_ops=250, alarm_evaluations=10,
                       safe_region_computations=4, index_node_accesses=37,
                       triggers=[TriggerEvent(3.0, 1, 11),
                                 TriggerEvent(9.0, 2, 12)])

    @staticmethod
    def _shard_b():
        return Metrics(uplink_messages=7, uplink_bytes=224,
                       downlink_messages=3, downlink_bytes=144,
                       trigger_notifications=1, containment_checks=60,
                       containment_ops=90, alarm_evaluations=7,
                       safe_region_computations=3, index_node_accesses=13,
                       triggers=[TriggerEvent(2.0, 3, 11)])

    def test_message_counts(self):
        merged = Metrics.merged([self._shard_a(), self._shard_b()])
        assert merged.uplink_messages == 17
        assert merged.uplink_bytes == 544
        assert merged.downlink_messages == 7
        assert merged.downlink_bytes == 336
        assert merged.trigger_notifications == 3

    def test_energy_counters(self):
        merged = Metrics.merged([self._shard_a(), self._shard_b()])
        assert merged.containment_checks == 160
        assert merged.containment_ops == 340
        # The energy model charges ops, so merged energy follows exactly.
        assert EnergyModel(check_op_j=1.0).client_energy_j(merged) == 340.0

    def test_server_time(self):
        merged = Metrics.merged([self._shard_a(), self._shard_b()])
        assert merged.alarm_evaluations == 17
        assert merged.safe_region_computations == 7
        assert merged.index_node_accesses == 50

    def test_triggers_concatenate_in_part_order(self):
        merged = Metrics.merged([self._shard_a(), self._shard_b()])
        assert merged.triggers == [TriggerEvent(3.0, 1, 11),
                                   TriggerEvent(9.0, 2, 12),
                                   TriggerEvent(2.0, 3, 11)]

    def test_merge_of_nothing_is_zero(self):
        merged = Metrics.merged([])
        assert merged == Metrics()

    def test_single_part_roundtrip(self):
        assert Metrics.merged([self._shard_a()]) == self._shard_a()

    def test_merge_is_associative_over_counters(self):
        a, b = self._shard_a(), self._shard_b()
        left = Metrics.merged([Metrics.merged([a, b]), Metrics()])
        right = Metrics.merged([a, Metrics.merged([b])])
        assert left == right

    def test_pairwise_merge_method(self):
        merged = Metrics.merged([self._shard_a(), self._shard_b()])
        assert merged.uplink_messages == 17
        assert len(merged.triggers) == 3

    def test_parts_left_untouched(self):
        part = self._shard_a()
        Metrics.merged([part, self._shard_b()])
        assert part.uplink_messages == 10
        assert len(part.triggers) == 2

    def test_duplicate_fired_pair_rejected(self):
        clash = Metrics(triggers=[TriggerEvent(4.0, 1, 11)])
        with pytest.raises(ValueError, match="one-shot"):
            Metrics.merged([self._shard_a(), clash])

    def test_counters_excludes_timing_and_triggers(self):
        counters = self._shard_a().counters()
        # Every scalar is a count: server wall time is the telemetry
        # registry's, so there is no timing field left to exclude.
        assert all(type(value) is int for value in counters.values())
        assert "triggers" not in counters
        assert counters["uplink_messages"] == 10
        assert counters["index_node_accesses"] == 37


class _Bits:
    """A bitmap stand-in: sizing reads only its bit length."""

    def __init__(self, count):
        self.count = count

    def bit_length(self):
        return self.count


class TestMessageSizes:
    """The accounting table sized through the one sizing, the codec."""

    sizes = MessageSizes()
    codec = WireCodec.from_sizes(sizes)

    def test_rect_message(self):
        message = InstallSafeRegion(rect=Rect(0, 0, 1, 1))
        assert self.codec.size_of_response(message) == 16 + 32

    def test_safe_period_message(self):
        message = InstallSafePeriod(expiry=1.0)
        assert self.codec.size_of_response(message) == 24

    def test_bitmap_message_rounds_bits_up(self):
        base = wire.DOWNLINK_HEADER_SIZE + wire.BITMAP_FIXED_SIZE

        def size(count):
            return self.codec.size_of_response(
                InstallSafeRegion(cell_ref=0, bitmap=_Bits(count)))

        assert size(1) == base + 1
        assert size(8) == base + 1
        assert size(9) == base + 2

    def test_alarm_push_scales_with_count(self):
        def size(count):
            return self.codec.size_of_response(InstallAlarmList(
                cell=Rect(0, 0, 1, 1),
                alarms=tuple(AlarmRecord(alarm_id, Rect(0, 0, 1, 1))
                             for alarm_id in range(count))))

        assert size(3) == size(0) + 3 * self.sizes.alarm_entry


class TestEnergyModel:
    def test_default_charges_ops_only(self):
        model = EnergyModel()
        metrics = Metrics(containment_ops=1000, uplink_messages=50,
                          downlink_bytes=10000)
        assert model.client_energy_j(metrics) == pytest.approx(
            1000 * model.check_op_j)

    def test_mwh_conversion(self):
        model = EnergyModel(check_op_j=3.6)
        metrics = Metrics(containment_ops=1)
        assert model.client_energy_mwh(metrics) == pytest.approx(1.0)

    def test_radio_model_charges_messages(self):
        metrics = Metrics(containment_ops=0, uplink_messages=10,
                          uplink_bytes=320, downlink_messages=2,
                          downlink_bytes=100)
        joules = RADIO_ENERGY_MODEL.client_energy_j(metrics)
        expected = (10 * RADIO_ENERGY_MODEL.uplink_msg_j
                    + 320 * RADIO_ENERGY_MODEL.uplink_byte_j
                    + 2 * RADIO_ENERGY_MODEL.downlink_msg_j
                    + 100 * RADIO_ENERGY_MODEL.downlink_byte_j)
        assert joules == pytest.approx(expected)
