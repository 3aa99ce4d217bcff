"""The bundle of runtime oracles the simulator attaches.

:class:`SimulationOracleHarness` packages the three per-run oracles —
occupancy invariants (twice over: :class:`InvariantChecker` and
``Torus.check_invariants``), event ordering, capacity accounting — behind the
four hooks :class:`~repro.core.simulator.Simulator` calls when
``SimulationConfig.check_invariants`` is on.  The harness is strictly
observational: it never mutates simulator state, so an instrumented run
produces a bit-for-bit identical :class:`SimulationReport` (this is
itself property-tested in ``tests/test_replay.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.events import Event
from repro.geometry.torus import Torus
from repro.testing.capacity import CapacityOracle
from repro.testing.events import EventOrderOracle
from repro.testing.invariants import InvariantChecker


class SimulationOracleHarness:
    """All runtime oracles for one simulation run."""

    __slots__ = ("invariants", "events", "capacity")

    def __init__(self, n_nodes: int) -> None:
        self.invariants = InvariantChecker()
        self.events = EventOrderOracle()
        self.capacity = CapacityOracle(n_nodes)

    # ------------------------------------------------------------------
    # hooks, in simulator call order
    # ------------------------------------------------------------------
    def observe_batch(self, batch: Sequence[Event]) -> None:
        """Called with every popped event batch, before it is applied."""
        self.events.observe_batch(batch)

    def check_torus(self, torus: Torus) -> None:
        """Called after every scheduler pass (all allocs/frees applied):
        both occupancy checkers, which share no code."""
        self.invariants.check(torus)
        torus.check_invariants()

    def record_capacity(self, time: float, free: int, queued: int) -> None:
        """Mirror of every ``CapacityTracker.record`` call."""
        self.capacity.record(time, free, queued)

    def finalize(self, end_time: float, tracker_integral: float) -> None:
        """End-of-run cross-check of the capacity integral."""
        self.capacity.verify(end_time, tracker_integral)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """How hard each oracle worked (tests assert they actually ran)."""
        return {
            "invariant_checks": self.invariants.checks_run,
            "batches_observed": self.events.batches_seen,
            "capacity_samples": self.capacity.n_samples,
        }
