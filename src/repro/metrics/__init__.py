"""Timing and capacity metrics — §3.4 and §6.1 of the paper."""

from __future__ import annotations

from repro.metrics.timing import (
    BoundedSlowdownRule,
    GAMMA_SECONDS,
    bounded_slowdown,
    JobRecord,
    TimingSummary,
    summarize_timing,
)
from repro.metrics.capacity import CapacityTracker, CapacitySummary
from repro.metrics.report import SimulationReport, Counters
from repro.metrics.serialize import report_to_dict, report_from_dict

__all__ = [
    "report_to_dict",
    "report_from_dict",
    "BoundedSlowdownRule",
    "GAMMA_SECONDS",
    "bounded_slowdown",
    "JobRecord",
    "TimingSummary",
    "summarize_timing",
    "CapacityTracker",
    "CapacitySummary",
    "SimulationReport",
    "Counters",
]
