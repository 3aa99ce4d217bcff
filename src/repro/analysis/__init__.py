"""Post-simulation analysis: distributions, comparisons and profiles.

The paper reports averages; real scheduler studies need distributions
(slowdown is famously heavy-tailed), per-class breakdowns and paired
per-seed comparisons to explain *why* a policy wins.  This package
provides those tools over :class:`~repro.metrics.report.SimulationReport`
objects plus characterisation reports for workloads and failure logs —
the summaries EXPERIMENTS.md quotes when comparing synthetic traces to
the archive logs' published properties.
"""

from __future__ import annotations

from repro.analysis.distributions import (
    DistributionSummary,
    slowdown_distribution,
    wait_distribution,
    per_size_class_summary,
)
from repro.analysis.characterize import (
    WorkloadProfile,
    FailureProfile,
    characterize_workload,
    characterize_failures,
)
from repro.analysis.ascii_chart import render_series, render_histogram
from repro.analysis.compare import (
    PairedComparison,
    compare_reports,
    seed_sign_counts,
)

__all__ = [
    "PairedComparison",
    "compare_reports",
    "seed_sign_counts",
    "DistributionSummary",
    "slowdown_distribution",
    "wait_distribution",
    "per_size_class_summary",
    "WorkloadProfile",
    "FailureProfile",
    "characterize_workload",
    "characterize_failures",
    "render_series",
    "render_histogram",
]
