"""Simulation configuration."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.checkpoint.model import CheckpointConfig
from repro.errors import SimulationError
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.metrics.timing import BoundedSlowdownRule, GAMMA_SECONDS


class BackfillMode(enum.Enum):
    """Backfilling variant used by the FCFS scheduler.

    Krevat's scheduler backfills but the exact variant is unspecified
    (DESIGN.md §5.3):

    * ``NONE`` — strict FCFS: nothing starts before the queue head.
    * ``EASY`` — later jobs may start now only if their *estimated*
      finish does not exceed the head's shadow time (the earliest
      instant the head could start given estimated finishes).
    * ``AGGRESSIVE`` — any waiting job with a free partition starts.
    """

    NONE = "none"
    EASY = "easy"
    AGGRESSIVE = "aggressive"


#: Mark of a field that only observes the run: the report is bit-for-bit
#: identical whatever its value, so sweep cell keys hash it at its
#: default (:func:`repro.resilience.store.cell_key` reads the mark).
_OBSERVATIONAL = {"observational": True}


@dataclass(frozen=True)
class SimulationConfig:
    """Everything configurable about one simulation run.

    Nine fields change the schedule (and enter sweep cell keys); the
    two declared ``_OBSERVATIONAL`` only observe it.  There is no engine
    selector and no checking switch: every run uses the incremental
    placement index and same-timestamp event batches, and the
    from-scratch reference and the runtime checks are something the
    test suite attaches from outside the package.

    Defaults reproduce the paper's setup: the 4x4x8 supernode torus,
    EASY backfilling, migration on (the balancing scheduler "includes
    backfilling and migration"), zero migration cost (no checkpoint
    overhead is modelled in the base paper) and no checkpointing.
    """

    dims: TorusDims = BGL_SUPERNODE_DIMS
    backfill: BackfillMode = BackfillMode.EASY
    migration: bool = True
    #: Wall seconds added to every migrated job's completion (the paper's
    #: no-checkpoint runs migrate for free; expose the knob for ablation).
    migration_cost_s: float = 0.0
    gamma: float = GAMMA_SECONDS
    slowdown_rule: BoundedSlowdownRule = BoundedSlowdownRule.STANDARD
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    #: Seed for engine-internal randomness (checkpoint prediction hits).
    seed: int = 0
    #: Emit one :mod:`repro.obs` decision-trace record per scheduler
    #: decision (arrival, candidate enumeration, dispatch, backfill,
    #: migration, failure, checkpoint).  Strictly observational — the
    #: report is bit-for-bit identical with the flag on or off — and
    #: zero-cost when off (decisions route through a no-op recorder).
    #: Independent of ``profile``: no trace line reads the registry.
    trace: bool = field(default=False, metadata=_OBSERVATIONAL)
    #: Collect a :class:`repro.obs.metrics.MetricsRegistry` of counters,
    #: histograms and hot-path timers for the run (available as
    #: ``Simulator.metrics``).  Observational, like ``trace``.
    profile: bool = field(default=False, metadata=_OBSERVATIONAL)
    #: Hard cap on processed events, guarding against livelock bugs.
    max_events: int = 50_000_000

    def __post_init__(self) -> None:
        if not 0 <= self.migration_cost_s < math.inf:
            raise SimulationError("migration_cost_s must be finite and >= 0")
        if not 0 < self.gamma < math.inf:
            raise SimulationError("gamma must be finite and positive")
        if self.max_events < 1:
            raise SimulationError("max_events must be positive")
