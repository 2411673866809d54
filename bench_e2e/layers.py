"""Per-layer metrics derived from span tables.

Shared by the replay workloads (spans recorded in the bench process)
and ``serve_prd`` (spans recorded inside the daemon child).
"""

from __future__ import annotations

from typing import Dict, Optional

from .metrics import PER_LAYER
from .tracing import SpanTable


def protocol_counts(uplink_messages: int, uplink_bytes: int,
                     downlink_messages: int, downlink_bytes: int,
                     notifications: int, fixes: int) -> Dict[str, float]:
    """The ``protocol.*`` invariants of one pass over ``fixes`` fixes."""
    return {"protocol.uplink_messages": uplink_messages,
            "protocol.uplink_bytes": uplink_bytes,
            "protocol.downlink_messages": downlink_messages,
            "protocol.downlink_bytes": downlink_bytes,
            "protocol.trigger_notifications": notifications,
            "protocol.uplink_share": uplink_messages / fixes}


def layer_metrics(setup: SpanTable,
                  spans: SpanTable) -> Dict[str, Optional[float]]:
    """Every per-layer metric that is read straight off the span tables."""
    inserts = setup.count("index.insert")
    insert_s = setup.total_s("index.insert")
    computations = spans.count("saferegion.compute")
    compute_s = spans.total_s("saferegion.compute")
    return {
        "roadnet.generate_s": setup.total_s("roadnet.generate"),
        "mobility.generate_s": setup.total_s("mobility.generate"),
        "alarms.install_s": setup.total_s("alarms.install_batch"),
        "index.insert_us": (None if inserts is None or insert_s is None
                            else insert_s * 1e6 / max(1, inserts)),
        "groundtruth.scan_s": setup.total_s("groundtruth.scan"),
        "engine.replay_s": spans.total_s("engine.replay"),
        "transport.request_s": spans.total_s("transport.request"),
        "transport.self_s": _add(spans.self_s("transport.request"),
                                 spans.self_s("transport.push")),
        "transport.requests": spans.count("transport.request"),
        "transport.pushes": spans.count("transport.push"),
        "handlers.handle_s": spans.self_s("handlers.handle"),
        "alarms.trigger_eval_s": spans.self_s("alarms.trigger_eval"),
        "alarms.trigger_evals": spans.count("alarms.trigger_eval"),
        "alarms.range_lookup_s": spans.self_s("alarms.range_lookup"),
        "alarms.range_lookups": spans.count("alarms.range_lookup"),
        "index.query_s": spans.self_s("index.query"),
        "index.queries": spans.count("index.query"),
        "index.insert_s": spans.self_s("index.insert"),
        "index.delete_s": spans.self_s("index.delete"),
        "index.inserts": spans.count("index.insert"),
        "index.deletes": spans.count("index.delete"),
        "groundtruth.dynamic_scan_s": spans.self_s(
            "groundtruth.dynamic_scan"),
        "saferegion.compute_s": spans.self_s("saferegion.compute"),
        "saferegion.computations": computations,
        "saferegion.compute_us_mean": (
            None if computations is None or compute_s is None
            else compute_s * 1e6 / max(1, computations)),
        "wire.size_s": spans.total_s("wire.size"),
        "wire.size_calls": spans.count("wire.size"),
        "saferegion.sizing_s": spans.self_s("saferegion.sizing"),
        "wire.encode_s": spans.self_s("wire.encode"),
        "wire.decode_s": spans.self_s("wire.decode"),
        "framing.encode_s": spans.self_s("framing.encode"),
        "framing.decode_s": spans.self_s("framing.decode"),
        # One REQUEST frame is one decode_request call.
        "framing.frames": spans.count("wire.decode"),
    }


def nodes_per_query(spans: SpanTable,
                     node_accesses: int) -> Optional[float]:
    """R*-tree nodes touched per server-side lookup.

    ``Metrics.index_node_accesses`` counts the serving registry only, so
    the divisor is the queries below ``transport.request`` — not the
    ground-truth scan's, which churn runs inside its pass.
    """
    queries = spans.count("index.query", under="transport.request")
    if queries is None:
        return None
    return node_accesses / queries if queries else 0.0


def _add(left: Optional[float], right: Optional[float]) -> Optional[float]:
    return None if left is None or right is None else left + right


def all_layers(values: Dict[str, Optional[float]]
                ) -> Dict[str, Optional[float]]:
    """Every per-layer metric, in table order.

    A layer that does not run on a workload truly measured zero (its
    wrappers were installed and never called); ``None`` is kept for
    metrics whose wrap target no longer exists.
    """
    return {name: values.get(name, 0) for name, _unit, _better in PER_LAYER}
