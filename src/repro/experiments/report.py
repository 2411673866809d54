"""Plain-text tables for experiment output.

Benchmarks print the same rows/series the paper's figures report; this
module is the tiny formatting layer they share.  No plotting dependency:
the tables are the artifact, and EXPERIMENTS.md snapshots them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

from ..telemetry.metrics import Histogram, MetricsRegistry


class Table:
    """A titled table with aligned plain-text rendering."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError("row width %d != header width %d"
                             % (len(values), len(self.headers)))
        self.rows.append([_format(value) for value in values])

    def column(self, name: str) -> List[str]:
        """All values of the named column, in row order."""
        index = self.headers.index(name)
        return [row[index] for row in self.rows]

    def __str__(self) -> str:
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, value in enumerate(row):
                widths[index] = max(widths[index], len(value))
        lines = [self.title,
                 "  ".join(header.ljust(width)
                           for header, width in zip(self.headers, widths))]
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append("  ".join(value.ljust(width)
                                   for value, width in zip(row, widths)))
        return "\n".join(lines)


def stage_costs(registry: MetricsRegistry) -> Dict[str, Tuple[int, float]]:
    """``{stage: (calls, wall seconds)}`` of a run's server stages.

    Every ``*_cost_us`` histogram of the telemetry registry, the one
    ledger of server time.  Stages nest — ``report_cost_us`` contains
    ``trigger_eval_cost_us`` and ``saferegion_compute_cost_us``, which
    contains ``index_lookup_cost_us`` — so they do not add up to the
    run's wall time; a sharded run's are summed over its workers, so one
    can exceed it (that surplus *is* the parallelism).
    """
    stages = {}
    for name in registry.names():
        instrument = registry.get(name)
        if name.endswith("_cost_us") and isinstance(instrument, Histogram):
            stages[name] = (instrument.count, instrument.sum / 1e6)
    return stages


class ServerTime(NamedTuple):
    """A run's server wall time in the split of Figs. 4(b) and 6(d).

    Read by :meth:`of` from the stage histograms (:func:`stage_costs`);
    every reader of server time — the figures, ``repro simulate``'s
    ``server time:`` line, :func:`~repro.experiments.figures.timed_run`,
    the examples — takes it from here.  The R\\*-tree lookup a safe
    region starts from is its own column, not hidden inside the
    safe-region one.
    """

    #: ``trigger_eval_cost_us``: evaluating location reports.
    alarm_processing_s: float
    #: ``index_lookup_cost_us``: the pending-alarm lookups of the
    #: safe-region stage.
    index_lookup_s: float
    #: ``saferegion_compute_cost_us`` minus the lookups nested in it.
    saferegion_s: float

    @property
    def total_s(self) -> float:
        """Alarm processing plus the whole safe-region stage."""
        return (self.alarm_processing_s + self.index_lookup_s
                + self.saferegion_s)

    @classmethod
    def of(cls, registry: MetricsRegistry) -> "ServerTime":
        stages = stage_costs(registry)

        def wall(name: str) -> float:
            return stages.get(name, (0, 0.0))[1]

        lookup_s = wall("index_lookup_cost_us")
        return cls(wall("trigger_eval_cost_us"), lookup_s,
                   wall("saferegion_compute_cost_us") - lookup_s)


def profile_report(registry: MetricsRegistry, indent: int = 2) -> str:
    """JSON wall time by server stage, read from a run's telemetry registry.

    Every stage of :func:`stage_costs` as ``{"calls": count, "wall_s":
    sum}``.
    """
    stages = {name: {"calls": calls, "wall_s": wall_s}
              for name, (calls, wall_s) in stage_costs(registry).items()}
    return json.dumps(stages, indent=indent, sort_keys=True)


def _format(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 1:
            return "%.2f" % value
        return "%.4f" % value
    return str(value)
