"""Bit-identity pins for the generated world.

Every bench number, golden and ground truth in this repository is a
function of the generated traces and the installed alarms, so a
set-up optimisation must reproduce both to the last bit.  The digests
below were captured at the commit *before* the alarm index was
bulk-loaded, the ground truth swept and trace sampling made per-leg
(PR 15); ``python tests/experiments/test_world_pins.py`` prints the
current ones in the same form.
"""

import hashlib
import struct

import pytest

from repro.alarms import (AlarmRegistry, install_clustered_alarms,
                          install_random_alarms)
from repro.engine import compute_ground_truth
from repro.experiments import BENCH, TINY
from repro.mobility import MobilityConfig, TraceGenerator
from repro.roadnet import NetworkConfig, generate_network

PRESETS = {"tiny": TINY, "bench": BENCH}
INSTALLERS = {"uniform": install_random_alarms,
              "clustered": install_clustered_alarms}

PINNED_TRACES = {
    ("bench", "wander"):
        "16dadc083d5171690972749a200bca5147aa5daa219036cd363245fe0b7c127d",
    ("bench", "trip"):
        "25a588f99cec4146555406d236a792e255e4971b51526fe00f4770f46cde8f33",
    ("tiny", "wander"):
        "6d53b910fb4962b7368bb60841d48b894f61fee7eea19bd0f59ab9c431a1c688",
    ("tiny", "trip"):
        "4fc03dd47ab58ae31d0b67c3b4ad2d3fe0015b642b9cde805b0a3e83102ec650",
}

PINNED_ALARMS = {
    ("bench", "clustered"):
        "ac3648cc5b095647c1b376d3a6ddae2b74eb4db349fbec064a0849a9929f1acd",
    ("bench", "uniform"):
        "5db341f4b76d59b65774bde19fc5fd7e4a0e101b020afb97b7f374c6cfeb5825",
    ("tiny", "clustered"):
        "f1a66c61f59eaf35dfdf65c18525a0587bb6dfa811d0a25705adfbe20aa88088",
    ("tiny", "uniform"):
        "d182aca2513a091df6e78d974fb8d8f4610d758344cc13da318d6c92a6473c47",
}

PINNED_GROUND_TRUTH = {
    "bench":
        "8497235da3a219eaed13cb7f8d96fca691f22f0845e8ab06393faf2c2cdac768",
    "tiny":
        "e91c40b7e6d8fa7320d2e89b9646a611bb03b287ae0b4d0deb4c35e3115bf80d",
}


def trace_digest(traces):
    """sha256 over ``(time, x, y, heading, speed)`` of every sample."""
    digest = hashlib.sha256()
    for vehicle_id in traces.vehicle_ids():
        digest.update(struct.pack("<q", vehicle_id))
        for sample in traces[vehicle_id]:
            digest.update(struct.pack("<5d", sample.time, sample.position.x,
                                      sample.position.y, sample.heading,
                                      sample.speed))
    return digest.hexdigest()


def alarm_digest(registry):
    """sha256 over ``(id, region, scope, owner, subscribers)``."""
    digest = hashlib.sha256()
    for alarm in registry.all_alarms():
        region = alarm.region
        digest.update(struct.pack("<q4dq", alarm.alarm_id, region.min_x,
                                  region.min_y, region.max_x, region.max_y,
                                  alarm.owner_id))
        digest.update(alarm.scope.value.encode())
        digest.update(repr(sorted(alarm.subscribers)).encode())
    return digest.hexdigest()


def ground_truth_digest(expected):
    """sha256 over the sorted ``(user, alarm, time)`` triples."""
    digest = hashlib.sha256()
    for (user_id, alarm_id), time_s in sorted(expected.items()):
        digest.update(struct.pack("<qqd", user_id, alarm_id, time_s))
    return digest.hexdigest()


def make_traces(config, behaviour):
    network = generate_network(
        NetworkConfig(universe_side_m=config.universe_side_m,
                      lattice_spacing_m=config.lattice_spacing_m),
        seed=config.map_seed)
    mobility = MobilityConfig(vehicle_count=config.vehicle_count,
                              duration_s=config.duration_s,
                              sample_interval_s=config.sample_interval_s,
                              behaviour=behaviour)
    return TraceGenerator(network, mobility,
                          seed=config.trace_seed).generate()


def make_registry(config, placement):
    registry = AlarmRegistry()
    universe = NetworkConfig(
        universe_side_m=config.universe_side_m,
        lattice_spacing_m=config.lattice_spacing_m).universe
    INSTALLERS[placement](
        registry, universe, config.alarm_count,
        user_ids=list(range(config.vehicle_count)),
        public_fraction=config.public_fraction,
        private_to_shared_ratio=config.private_to_shared_ratio,
        min_side_m=config.alarm_min_side_m,
        max_side_m=config.alarm_max_side_m, seed=config.alarm_seed)
    return registry


@pytest.mark.parametrize("behaviour", ["wander", "trip"])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_traces_are_bit_identical(preset, behaviour):
    traces = make_traces(PRESETS[preset], behaviour)
    assert trace_digest(traces) == PINNED_TRACES[preset, behaviour]


@pytest.mark.parametrize("placement", sorted(INSTALLERS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_installed_alarms_are_bit_identical(preset, placement):
    registry = make_registry(PRESETS[preset], placement)
    assert alarm_digest(registry) == PINNED_ALARMS[preset, placement]
    registry.validate()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_ground_truth_is_bit_identical(preset):
    config = PRESETS[preset]
    expected = compute_ground_truth(make_registry(config, "uniform"),
                                    make_traces(config, "wander"))
    assert ground_truth_digest(expected) == PINNED_GROUND_TRUTH[preset]


if __name__ == "__main__":
    for name, config in sorted(PRESETS.items()):
        for behaviour in ("wander", "trip"):
            print("trace", name, behaviour,
                  trace_digest(make_traces(config, behaviour)))
        for placement in sorted(INSTALLERS):
            print("alarms", name, placement,
                  alarm_digest(make_registry(config, placement)))
        print("truth", name, ground_truth_digest(compute_ground_truth(
            make_registry(config, "uniform"),
            make_traces(config, "wander"))))
