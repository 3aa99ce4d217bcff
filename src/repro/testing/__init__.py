"""Runtime invariant oracles and cross-validation for the simulator.

This subsystem exists so aggressive refactors stay safe: any test — or
any simulation run, via ``SimulationConfig(check_invariants=True)`` —
can attach independent re-derivations of the properties the paper's
headline claims rest on:

* :class:`InvariantChecker` — torus occupancy grid vs. allocation map
  (no overlap, node-count conservation, free-count consistency);
* :class:`EventOrderOracle` — batch timestamps monotone, within-batch
  ``FINISH < FAILURE < ARRIVAL`` ordering;
* :class:`CapacityOracle` — the unused-capacity integral vs. an
  independent step-function recomputation;
* :class:`CrossValidator` — the naive / POP / Appendix-9 fast finders
  must return identical canonical partition sets on any machine state;
* :class:`SimulationOracleHarness` — the bundle the simulator wires in.

It is also where the **reference engine** is built.  Production runs one
engine and has no option to pick another; a test that wants the
independent answer constructs it: :class:`ReferencePlacementIndex` (the
from-scratch index of one machine state, read from the occupancy grid)
and :class:`RebuildIndexCache` (a fresh one per machine state) for
index-level comparisons,
:func:`oracle_simulator` for a whole run on it — same arguments as
``Simulator``, reports and traces byte-identical by contract;
:func:`choose_partition_scalar` and :func:`shadow_time_naive` for one
placement decision and one backfill reservation.

:func:`random_torus` / :func:`corrupt_random_node` supply random and
deliberately broken machine states for property and negative tests.
"""

from repro.errors import (
    CrossValidationError,
    InvariantViolationError,
    OracleError,
)
from repro.testing.capacity import CapacityOracle
from repro.testing.crossval import CrossValidator, default_finders
from repro.testing.events import EventOrderOracle
from repro.testing.harness import SimulationOracleHarness
from repro.testing.invariants import InvariantChecker
from repro.testing.random_state import (
    assert_raises_oracle,
    corrupt_random_node,
    random_partition,
    random_torus,
)
from repro.testing.reference import (
    RebuildIndexCache,
    ReferencePlacementIndex,
    choose_partition_scalar,
    oracle_simulator,
    shadow_time_naive,
)

__all__ = [
    "CapacityOracle",
    "CrossValidationError",
    "CrossValidator",
    "EventOrderOracle",
    "InvariantChecker",
    "InvariantViolationError",
    "OracleError",
    "RebuildIndexCache",
    "ReferencePlacementIndex",
    "SimulationOracleHarness",
    "assert_raises_oracle",
    "choose_partition_scalar",
    "corrupt_random_node",
    "default_finders",
    "oracle_simulator",
    "random_partition",
    "random_torus",
    "shadow_time_naive",
]
