"""Experiment harness: configs, per-figure reproductions, reporting."""

from .analysis import (DistributionSummary, coverage_size_tradeoff,
                       residence_statistics, safe_region_statistics,
                       workload_profile)
from .configs import (BENCH, DEFAULT_CELL_AREA_KM2, PAPER, TINY,
                      WorkloadConfig, build_world, clear_caches,
                      scaled_cell_sizes)
from .figures import (figure1b, figure4a, figure4b, figure5a, figure5b,
                      figure6a, figure6b, figure6c, figure6d,
                      make_mwpsr_strategy, make_pbsr_strategy, timed_run)
from .report import ServerTime, Table, profile_report
from .viz import render_cell, render_legend

__all__ = [
    "BENCH",
    "DistributionSummary",
    "coverage_size_tradeoff",
    "residence_statistics",
    "safe_region_statistics",
    "workload_profile",
    "render_cell",
    "render_legend",
    "profile_report",
    "DEFAULT_CELL_AREA_KM2",
    "PAPER",
    "ServerTime",
    "TINY",
    "Table",
    "WorkloadConfig",
    "build_world",
    "clear_caches",
    "figure1b",
    "figure4a",
    "figure4b",
    "figure5a",
    "figure5b",
    "figure6a",
    "figure6b",
    "figure6c",
    "figure6d",
    "make_mwpsr_strategy",
    "make_pbsr_strategy",
    "scaled_cell_sizes",
    "timed_run",
]
