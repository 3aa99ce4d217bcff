"""Runtime invariant oracles and cross-validation for the simulator.

This package exists so aggressive refactors stay safe: any test can
attach independent re-derivations of the properties the paper's
headline claims rest on.  It lives beside the tests, not in the
production package, and production has no switch that reaches it:

* :class:`InvariantChecker` and :func:`check_rebuilt_grid` — torus
  occupancy grid vs. allocation map (no overlap, node-count
  conservation, free-count consistency), by two unrelated mechanisms;
* :class:`EventOrderOracle` — batch timestamps monotone, within-batch
  ``FINISH < FAILURE < ARRIVAL`` ordering;
* :class:`CapacityOracle` — the unused-capacity integral vs. an
  independent step-function recomputation;
* :class:`CrossValidator` — the naive / POP / Appendix-9 fast finders
  must return identical canonical partition sets on any machine state;
* :class:`SimulationOracleHarness` — the bundle a whole run carries.
  :class:`CheckedSimulator` (``Simulator`` arguments) attaches it from
  outside the engine; :class:`CheckedOracleSimulator` does the same on
  the reference engine; :func:`checking` (the ``checked_engine``
  fixture) makes ``simulate`` / ``quick_simulate`` /
  ``SimulationSetup.run`` build a checked engine.

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

For the job-log layer, :mod:`tests.oracles.workloads` keeps the
per-job forms of the size draw, the SWF writer and the job copies of
``scale_load`` / ``fit_to_machine`` (no bulk draw, no template, one
``dataclasses.replace`` per copy).

:func:`random_torus` / :func:`corrupt_random_node` supply random and
deliberately broken machine states for property and negative tests.
Every check raises an :class:`OracleError`.
"""

from tests.oracles.capacity import CapacityOracle
from tests.oracles.crossval import CrossValidator, default_finders
from tests.oracles.errors import (
    CrossValidationError,
    InvariantViolationError,
    OracleError,
)
from tests.oracles.events import EventOrderOracle
from tests.oracles.harness import (
    CheckedOracleSimulator,
    CheckedSimulator,
    SimulationOracleHarness,
    checking,
)
from tests.oracles.invariants import InvariantChecker, check_rebuilt_grid
from tests.oracles.random_state import (
    assert_raises_oracle,
    corrupt_random_node,
    random_partition,
    random_torus,
)
from tests.oracles.reference import (
    RebuildIndexCache,
    RebuildSimulator,
    ReferencePlacementIndex,
    choose_partition_scalar,
    oracle_simulator,
    shadow_time_naive,
)

__all__ = [
    "CapacityOracle",
    "CheckedOracleSimulator",
    "CheckedSimulator",
    "CrossValidationError",
    "CrossValidator",
    "EventOrderOracle",
    "InvariantChecker",
    "InvariantViolationError",
    "OracleError",
    "RebuildIndexCache",
    "RebuildSimulator",
    "ReferencePlacementIndex",
    "SimulationOracleHarness",
    "assert_raises_oracle",
    "check_rebuilt_grid",
    "checking",
    "choose_partition_scalar",
    "corrupt_random_node",
    "default_finders",
    "oracle_simulator",
    "random_partition",
    "random_torus",
    "shadow_time_naive",
]
