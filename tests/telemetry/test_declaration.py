"""The instrument declaration: well-formed, reconciled, read, documented.

``INSTRUMENTS`` in ``telemetry/metrics.py`` is the one place an
instrument's name, kind, flag, buckets and reconciliation witness are
written.  The registry refuses anything else, so these tests pin what
the refusal cannot see: that the declaration itself keeps the one-ledger
rule, that every witness ``reconcile`` derives from it exists, that the
readers look up declared names, and that the docs list the same names.
"""

import dataclasses
import re
from pathlib import Path

from repro.engine import Metrics
from repro.experiments import ServerTime
from repro.net import StatsSnapshot, render_top
from repro.telemetry import (EVENT_FIELDS, INSTRUMENTS, Histogram,
                             MetricsRegistry, TraceData, reconcile)
from repro.telemetry.export import RECONCILE_DROPS, RECONCILE_EVENTS

METRICS_FIELDS = {f.name for f in dataclasses.fields(Metrics)}

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def full_registry():
    """Every declared instrument, fed one positive observation.

    Each histogram observes a value of its own (one more than its
    position), so a reader that subtracts one stage from another still
    reads a non-zero difference.
    """
    registry = MetricsRegistry()
    for position, (name, spec) in enumerate(INSTRUMENTS.items()):
        if spec.kind == "counter":
            registry.counter(name).inc()
        else:
            registry.histogram(name).observe(float(position + 1))
    return registry


class TestDeclaration:
    def test_every_entry_is_well_formed(self):
        for name, spec in INSTRUMENTS.items():
            assert spec.kind in ("counter", "histogram"), name
            # A histogram's bounds are validated when it is built.
            assert bool(spec.buckets) == (spec.kind == "histogram"), name
            if spec.kind == "histogram":
                Histogram(name, spec.buckets)

    def test_no_declared_name_is_a_metrics_field(self):
        """A count the figures report is written once, to ``Metrics``."""
        assert not METRICS_FIELDS & set(INSTRUMENTS)

    def test_every_deterministic_counter_has_a_witness_that_exists(self):
        for name, spec in INSTRUMENTS.items():
            if spec.kind != "counter" or not spec.deterministic:
                assert spec.witness is None, name
                continue
            assert spec.witness is not None, name
            if spec.witness not in EVENT_FIELDS:
                # A counter family is named after the field it sums to.
                assert spec.witness in METRICS_FIELDS, name
                assert name.startswith(spec.witness + "_"), name

    def test_the_fixed_tables_reference_real_names(self):
        for event_type, field in RECONCILE_EVENTS:
            assert event_type in EVENT_FIELDS
            assert field in METRICS_FIELDS
        for direction, field in RECONCILE_DROPS:
            assert direction in ("uplink", "downlink")
            assert field in METRICS_FIELDS


class TestReaders:
    """A renamed instrument must not read as zero in a reader."""

    def test_top_shows_its_seven_latency_histograms(self):
        snapshot = StatsSnapshot(
            raw={"metrics": {}, "registry": full_registry().to_dict(),
                 "live": {}, "serving": {}},
            scrape_rtt_us=0.0)
        rows = [line.split()[0]
                for line in render_top(snapshot, None, 1.0).splitlines()
                if " p99 " in line]
        assert len(rows) == 7
        assert all(INSTRUMENTS[name].kind == "histogram" for name in rows)

    def test_server_time_reads_its_three_stages(self):
        time = ServerTime.of(full_registry())
        assert time.alarm_processing_s > 0
        assert time.index_lookup_s > 0
        assert time.saferegion_s + time.index_lookup_s > 0

    def test_reconcile_reads_the_rtt_histogram(self):
        data = TraceData(manifest=None, events=[],
                         summary={"metrics": {},
                                  "registry": full_registry().to_dict()})
        rows = {entry["name"]: entry["actual"]
                for entry in reconcile(data)["checks"]}
        [rtt_row] = [name for name in rows
                     if name.startswith("spans.client_request[ok] ==")]
        assert rows[rtt_row] == 1


def test_observability_doc_lists_exactly_the_declared_instruments():
    section = DOC.read_text(encoding="utf-8").split(
        "\n## Instruments\n", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`([a-z0-9_]+)`",
                                         line.split("|")[1]))
    assert documented == set(INSTRUMENTS)
