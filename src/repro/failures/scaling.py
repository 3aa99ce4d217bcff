"""Rescaling failure logs to target counts and rates.

The paper normalises its 350-node, one-year failure trace so every
simulated system sees the same average failures per node per day (4000
events for the NASA/SDSC studies, 1000 for LLNL), and separately sweeps
the SDSC study over failure counts 0..4000 in steps of 500.  These
helpers perform both operations on any :class:`FailureLog`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FailureModelError
from repro.failures.events import FailureLog


def rescale_failures(log: FailureLog, n_events: int, seed: int | None = 0) -> FailureLog:
    """Thin or repeat a log to exactly ``n_events`` events.

    Thinning samples events uniformly without replacement, preserving
    burst structure in expectation; growing repeats the log with jittered
    times.  ``n_events == len(log)`` returns the log unchanged.
    """
    if n_events < 0:
        raise FailureModelError(f"n_events must be >= 0, got {n_events}")
    if n_events == len(log):
        return log
    rng = np.random.default_rng(seed)
    if n_events == 0:
        return FailureLog(log.n_nodes)
    if len(log) == 0:
        raise FailureModelError("cannot grow an empty failure log")
    if n_events < len(log):
        keep = np.sort(rng.choice(len(log), size=n_events, replace=False))
        return FailureLog.from_arrays(log.n_nodes, log.times[keep], log.nodes[keep])
    # Growing: tile the log and jitter duplicate event times slightly so
    # replica bursts do not coincide exactly.
    reps = -(-n_events // len(log))
    times = np.tile(log.times, reps)[:n_events].copy()
    nodes = np.tile(log.nodes, reps)[:n_events].copy()
    span = max(log.span, 1.0)
    dup = np.arange(times.size) >= len(log)
    times[dup] += rng.uniform(0, 0.01 * span, size=int(dup.sum()))
    return FailureLog.from_arrays(log.n_nodes, times, nodes)

