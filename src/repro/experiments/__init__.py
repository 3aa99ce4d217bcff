"""Experiment harness: parameter sweeps and per-figure regenerators.

Every quantitative figure in the paper's evaluation (Figures 3-10) has a
generator here; the benchmark suite under ``benchmarks/`` calls these and
prints the same series the paper plots.  See DESIGN.md §3 for the
experiment index and EXPERIMENTS.md for paper-vs-measured shapes.
"""

from __future__ import annotations

from repro.experiments.sweep import SweepPoint, SweepResult, run_point, run_sweep
from repro.experiments.parallel import SweepExecutor, default_workers
from repro.experiments.pool import (
    WarmPool,
    get_warm_pool,
    shutdown_warm_pool,
)
from repro.experiments.queue import WorkQueue, run_worker
from repro.experiments.figures import (
    FigureResult,
    figure_registry,
    run_figure,
    paper_failures_to_sim,
)
from repro.experiments.format import format_table, format_series, format_figure
from repro.experiments.validate import ValidationReport, validate_figure

__all__ = [
    "format_figure",
    "ValidationReport",
    "validate_figure",
    "SweepPoint",
    "SweepResult",
    "SweepExecutor",
    "WarmPool",
    "WorkQueue",
    "default_workers",
    "get_warm_pool",
    "run_point",
    "run_sweep",
    "run_worker",
    "shutdown_warm_pool",
    "FigureResult",
    "figure_registry",
    "run_figure",
    "paper_failures_to_sim",
    "format_table",
    "format_series",
]
