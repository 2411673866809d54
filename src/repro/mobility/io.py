"""Trace persistence.

Reproducible evaluation needs shareable datasets: a trace generated once
can be replayed against many strategy/parameter combinations, compared
across machines, or swapped for a real GPS dataset with the same shape.
The format is deliberately boring — a versioned header line followed by
one CSV row per sample — and transparently gzip-compressed when the
path ends in ``.gz``.

Format::

    #repro-traces v1 interval=<seconds>
    vehicle_id,time,x,y,heading,speed
    0,0.0,1523.25,871.5,1.5708,12.5
    ...

Rows must be grouped by vehicle and time-ordered within each vehicle
(the writer guarantees it; the reader enforces it).
"""

from __future__ import annotations

import gzip
import io
import os
from typing import Dict, TextIO, Union

from .trace import Trace, TraceSet

_HEADER_PREFIX = "#repro-traces v1 interval="
_COLUMNS = "vehicle_id,time,x,y,heading,speed"

PathLike = Union[str, "os.PathLike[str]"]


def _open_text(path: PathLike, mode: str) -> TextIO:
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, mode + "b"),
                                encoding="ascii")
    return open(path, mode, encoding="ascii")


def save_traces(traces: TraceSet, path: PathLike) -> None:
    """Write a :class:`TraceSet` to ``path`` (gzip when ``*.gz``)."""
    with _open_text(path, "w") as stream:
        stream.write("%s%r\n" % (_HEADER_PREFIX, traces.sample_interval))
        stream.write(_COLUMNS + "\n")
        for vehicle_id in traces.vehicle_ids():
            for row in traces[vehicle_id].rows():
                stream.write("%d,%r,%r,%r,%r,%r\n" % ((vehicle_id,) + row))


def load_traces(path: PathLike) -> TraceSet:
    """Read a :class:`TraceSet` written by :func:`save_traces`.

    Raises ``ValueError`` on version/format violations, including
    out-of-order samples — silent reordering would corrupt ground-truth
    trigger times.
    """
    with _open_text(path, "r") as stream:
        header = stream.readline().rstrip("\n")
        if not header.startswith(_HEADER_PREFIX):
            raise ValueError("not a repro trace file: %r" % header[:40])
        interval = float(header[len(_HEADER_PREFIX):])
        columns = stream.readline().rstrip("\n")
        if columns != _COLUMNS:
            raise ValueError("unexpected column header: %r" % columns)

        traces: Dict[int, Trace] = {}
        for line_number, line in enumerate(stream, start=3):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 6:
                raise ValueError("line %d: expected 6 fields, got %d"
                                 % (line_number, len(fields)))
            vehicle_id = int(fields[0])
            trace = traces.get(vehicle_id)
            if trace is None:
                trace = traces[vehicle_id] = Trace(vehicle_id)
            time = float(fields[1])
            if trace.times and time <= trace.times[-1]:
                raise ValueError(
                    "line %d: samples for vehicle %d out of order"
                    % (line_number, vehicle_id))
            trace.append(time, float(fields[2]), float(fields[3]),
                         float(fields[4]), float(fields[5]))

    return TraceSet(traces, sample_interval=interval)
