"""Observability: decision tracing, metrics and profiling.

The simulator and the sweep engine are deterministic, but their headline
numbers are aggregates over millions of individual scheduler decisions.
This package makes those decisions observable without perturbing them:

:mod:`repro.obs.trace`
    :class:`TraceRecorder` emits one schema-versioned JSON record per
    scheduler decision (arrival, candidate enumeration, dispatch,
    backfill promotion, migration, failure, checkpoint).  Tracing is off
    by default and routed through a no-op recorder, so the untraced hot
    path pays nothing.
:mod:`repro.obs.metrics`
    :class:`MetricsRegistry` of counters, gauges, histograms and wall
    -clock timers.  The simulator hands its registry to the hot paths
    (placement index cache, shadow-time engine, policy) it builds, so
    every driver of a run collects the same metrics.
:mod:`repro.obs.aggregate`
    Deterministic cross-process merge of per-cell registries and trace
    streams for parallel sweeps.
:mod:`repro.obs.tools`
    The ``repro trace summarize|diff|validate`` toolchain.
:mod:`repro.obs.log`
    The shared ``repro`` logger hierarchy.

Every record and metric is *observational*: reports are bit-for-bit
identical with tracing on or off, which the test suite asserts.
"""

from __future__ import annotations

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import TRACE_SCHEMA_VERSION, validate_record
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    read_trace,
    write_trace,
)

__all__ = [
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "configure_logging",
    "get_logger",
    "read_trace",
    "validate_record",
    "write_trace",
]
