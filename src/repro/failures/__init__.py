"""Failure models: logs, synthetic generation and rescaling.

The paper replays a one-year failure trace from a 350-node cluster
(Sahoo et al., KDD'03), rescaled so every workload sees the same average
failures per node per day: 4000 events for the NASA and SDSC runs, 1000
for LLNL.  Offline we regenerate a statistically similar trace: failures
arrive in temporally-clustered bursts with spatial locality — the
property responsible for the paper's observed slowdown saturation at
high failure counts.
"""

from __future__ import annotations

from repro.failures.events import FailureEvent, FailureLog
from repro.failures.synthetic import BurstFailureModel, generate_failures
from repro.failures.scaling import rescale_failures
from repro.failures.mapping import map_node_ids

__all__ = [
    "FailureEvent",
    "FailureLog",
    "BurstFailureModel",
    "generate_failures",
    "rescale_failures",
    "map_node_ids",
]
