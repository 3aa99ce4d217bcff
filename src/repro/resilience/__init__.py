"""Fault tolerance for the experiment pipeline itself.

The paper's premise is that real machines fail mid-run; this package
gives the sweep runner the same awareness: durable per-cell checkpoints
(:mod:`~repro.resilience.store`), retry with deterministic backoff and
quarantine (:mod:`~repro.resilience.retry`), and a seeded
chaos-injection layer (:mod:`~repro.resilience.chaos`) that the test
suites drive.  See ``README.md`` ("Resilient sweeps") for the user-level
story and :mod:`repro.experiments.parallel` for the executor that wires
it all together.
"""

from repro.resilience.chaos import (
    KILL_EXIT_CODE,
    ChaosConfig,
    corrupt_checkpoint,
    inject_pre_cell,
)
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
    "KILL_EXIT_CODE",
    "QUARANTINE_SCHEMA_VERSION",
    "CellStore",
    "ChaosConfig",
    "Quarantine",
    "QuarantineEntry",
    "ResilientSweepOutcome",
    "RetryPolicy",
    "SweepRunStats",
    "cell_key",
    "cell_timeout",
    "corrupt_checkpoint",
    "incomplete_points",
    "inject_pre_cell",
]
