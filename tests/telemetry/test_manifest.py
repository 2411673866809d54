"""Run manifests: fingerprinting, seed extraction, record round-trip."""

from repro.telemetry import (MANIFEST_VERSION, RunManifest,
                             config_fingerprint, current_git_sha,
                             extract_seeds)


class TestConfigFingerprint:
    def test_key_order_does_not_matter(self):
        assert config_fingerprint({"a": 1, "b": 2}) \
            == config_fingerprint({"b": 2, "a": 1})

    def test_value_changes_the_hash(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_non_json_values_degrade_to_str(self):
        assert config_fingerprint({"p": object})  # no raise


class TestExtractSeeds:
    def test_collects_seed_suffixed_ints(self):
        config = {"network_seed": 5, "trace_seed": 6, "alarm_seed": 7,
                  "vehicles": 100, "seeded": True, "label_seed": "x"}
        assert extract_seeds(config) == {"network_seed": 5,
                                         "trace_seed": 6, "alarm_seed": 7}

    def test_bools_are_not_seeds(self):
        assert extract_seeds({"use_seed": True}) == {}


class TestRunManifest:
    def test_collect_derives_hash_and_seeds(self):
        manifest = RunManifest.collect(
            "mwpsr", {"network_seed": 1, "vehicles": 10}, workers=2,
            git_sha="abc123", cell_area_km2=1.0)
        assert manifest.seeds == {"network_seed": 1}
        assert manifest.config_hash \
            == config_fingerprint({"network_seed": 1, "vehicles": 10})
        assert manifest.extras == {"cell_area_km2": 1.0}
        assert manifest.workers == 2

    def test_identical_configs_produce_identical_manifests(self):
        """No timestamp: manifest equality is run reproducibility."""
        first = RunManifest.collect("sp", {"seed": 3}, git_sha="abc")
        second = RunManifest.collect("sp", {"seed": 3}, git_sha="abc")
        assert first == second
        assert first.to_dict() == second.to_dict()

    def test_record_roundtrip(self):
        manifest = RunManifest.collect(
            "opt", {"trace_seed": 9, "duration_s": 60.0}, workers=4,
            git_sha="deadbeef", sizes={"alarm_entry": 256})
        record = manifest.to_record()
        assert record["record"] == "manifest"
        assert record["version"] == MANIFEST_VERSION
        assert RunManifest.from_record(record) == manifest

    def test_from_record_tolerates_sparse_payload(self):
        manifest = RunManifest.from_record(
            {"record": "manifest", "strategy": "prd", "config_hash": "x"})
        assert manifest.strategy == "prd"
        assert manifest.workload == {}
        assert manifest.git_sha is None
        assert manifest.workers == 1


def test_current_git_sha_in_this_checkout():
    sha = current_git_sha()
    # The test tree is a checkout; outside one, None is the contract.
    assert sha is None or (len(sha) == 40
                           and all(c in "0123456789abcdef" for c in sha))
