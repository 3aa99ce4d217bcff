"""Fault tolerance for the experiment pipeline itself.

The paper's premise is that real machines fail mid-run; this package
gives the sweep runner the same awareness: durable per-cell checkpoints
(:mod:`~repro.resilience.store`) and retry with deterministic backoff
and quarantine (:mod:`~repro.resilience.retry`).  See ``README.md``
("Resilient sweeps") for the user-level story and
:mod:`repro.experiments.parallel` for the executor that wires it all
together.
"""

from repro.resilience.outcome import (
    ResilientSweepOutcome,
    SweepRunStats,
    incomplete_points,
)
from repro.resilience.retry import (
    QUARANTINE_SCHEMA_VERSION,
    Quarantine,
    QuarantineEntry,
    RetryPolicy,
    cell_timeout,
)
from repro.resilience.store import (
    CHECKPOINT_SCHEMA_VERSION,
    CellStore,
    cell_key,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "QUARANTINE_SCHEMA_VERSION",
    "CellStore",
    "Quarantine",
    "QuarantineEntry",
    "ResilientSweepOutcome",
    "RetryPolicy",
    "SweepRunStats",
    "cell_key",
    "cell_timeout",
    "incomplete_points",
]
