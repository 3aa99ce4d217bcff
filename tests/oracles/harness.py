"""The runtime oracles attached to a whole simulation run.

:class:`SimulationOracleHarness` packages the three per-run oracles —
occupancy invariants (twice over: :class:`InvariantChecker` and
:func:`check_rebuilt_grid`), event ordering, capacity accounting —
behind four hooks.  :class:`CheckedSimulator` calls them from outside
the engine, without a hook in it:

* right after ``Simulator.__init__`` it swaps in an event queue that
  reports every popped batch (before the batch is applied) and a
  capacity tracker that mirrors every ``record``;
* after each ``_step_batch`` (all allocations and frees of the pass
  applied) it checks the torus;
* after ``_report`` it cross-checks the capacity integral.

:class:`CheckedOracleSimulator` is the same on the reference engine, so
a differential test runs both engines under the full harness.  The
harness is strictly observational: it never mutates simulator state, so
a checked run produces a bit-for-bit identical
:class:`~repro.metrics.report.SimulationReport` (property-tested in
``tests/test_replay.py``).

Code that builds its simulator inside the package (``simulate``,
``quick_simulate``, ``SimulationSetup.run``) gets the checked engine
from :func:`checking`, which rebinds the ``Simulator`` name those
modules call; the ``checked_engine`` fixture of ``tests/conftest.py``
wraps it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import repro.api
import repro.core.simulator
from repro.core.events import Event, EventQueue
from repro.core.simulator import Simulator
from repro.geometry.torus import Torus
from repro.metrics.capacity import CapacityTracker
from repro.metrics.report import SimulationReport
from tests.oracles.capacity import CapacityOracle
from tests.oracles.events import EventOrderOracle
from tests.oracles.invariants import InvariantChecker, check_rebuilt_grid
from tests.oracles.reference import RebuildSimulator


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
        check_rebuilt_grid(torus)

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


class _ObservedEventQueue(EventQueue):
    """An event queue that shows every popped batch to the harness."""

    __slots__ = ("_harness",)

    def __init__(self, queue: EventQueue, harness: SimulationOracleHarness) -> None:
        super().__init__()
        self._heap, self._seq = queue._heap, queue._seq
        self._harness = harness

    def pop_batch(self) -> list[Event]:
        batch = super().pop_batch()
        self._harness.observe_batch(batch)
        return batch


class _MirroredTracker(CapacityTracker):
    """A capacity tracker that hands every sample to the harness too."""

    __slots__ = ("_harness",)

    def __init__(self, n_nodes: int, harness: SimulationOracleHarness) -> None:
        super().__init__(n_nodes)
        self._harness = harness

    def record(self, time: float, free: int, queued: int) -> None:
        super().record(time, free, queued)
        self._harness.record_capacity(time, free, queued)


class CheckedSimulator(Simulator):
    """:class:`Simulator` (same arguments) under the full oracle harness,
    available as ``oracles``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        volume = self.torus.dims.volume
        self.oracles = SimulationOracleHarness(volume)
        # Nothing has been recorded or popped yet: construction only
        # pushes the workload's arrivals and the log's failures.
        self.events = _ObservedEventQueue(self.events, self.oracles)
        self.tracker = _MirroredTracker(volume, self.oracles)

    def _step_batch(self) -> float:
        now = super()._step_batch()
        self.oracles.check_torus(self.torus)
        return now

    def _report(self, end_time: float) -> SimulationReport:
        report = super()._report(end_time)
        self.oracles.finalize(
            max(end_time, self._min_arrival), self.tracker.surplus_integral()
        )
        return report


class CheckedOracleSimulator(CheckedSimulator, RebuildSimulator):
    """The reference engine under the full oracle harness."""


@contextmanager
def checking() -> Iterator[list[CheckedSimulator]]:
    """Within the block, ``simulate``, ``quick_simulate`` and
    ``SimulationSetup.run`` / ``build_simulator`` build a
    :class:`CheckedSimulator`; yields the list of those built."""
    built: list[CheckedSimulator] = []

    class _Recorded(CheckedSimulator):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    modules = (repro.core.simulator, repro.api)
    for module in modules:
        module.Simulator = _Recorded
    try:
        yield built
    finally:
        for module in modules:
            module.Simulator = Simulator
