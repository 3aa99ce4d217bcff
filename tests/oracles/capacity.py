"""Capacity-accounting oracle.

:class:`~repro.metrics.capacity.CapacityTracker` integrates
``max(0, f(t) - q(t))`` incrementally, one segment per ``record`` call.
The :class:`CapacityOracle` receives the *same* sample stream but keeps
every sample and recomputes the step-function integral from scratch at
finalisation — a vectorised NumPy recomputation completely independent
of the tracker's running sum.  Agreement of the two (to floating-point
tolerance) certifies the paper's "exact unused-capacity accounting"
claim for the run.
"""

from __future__ import annotations

import math

import numpy as np

from tests.oracles.errors import InvariantViolationError


class CapacityOracle:
    """Independent recomputation of the unused-capacity integral."""

    __slots__ = ("n_nodes", "_times", "_free", "_queued")

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise InvariantViolationError(f"n_nodes must be positive, got {n_nodes}")
        self.n_nodes = n_nodes
        self._times: list[float] = []
        self._free: list[int] = []
        self._queued: list[int] = []

    @property
    def n_samples(self) -> int:
        return len(self._times)

    def record(self, time: float, free: int, queued: int) -> None:
        """Mirror of ``CapacityTracker.record``: one state-change sample."""
        if not 0 <= free <= self.n_nodes:
            raise InvariantViolationError(
                f"free={free} out of range [0, {self.n_nodes}]"
            )
        if queued < 0:
            raise InvariantViolationError(f"queued={queued} must be >= 0")
        if self._times and time < self._times[-1]:
            raise InvariantViolationError(
                f"capacity sample time went backwards ({time} < {self._times[-1]})"
            )
        self._times.append(time)
        self._free.append(free)
        self._queued.append(queued)

    def surplus_integral(self, end_time: float) -> float:
        """``∫ max(0, f - q) dt`` over ``[first sample, end_time]``,
        recomputed from the full sample record."""
        if not self._times:
            return 0.0
        times = np.append(np.asarray(self._times, dtype=np.float64), end_time)
        dt = np.diff(times)
        if dt.size and float(dt.min()) < 0:
            raise InvariantViolationError(
                f"end_time {end_time} precedes the last sample {self._times[-1]}"
            )
        surplus = np.maximum(
            0,
            np.asarray(self._free, dtype=np.float64)
            - np.asarray(self._queued, dtype=np.float64),
        )
        return float(np.dot(surplus, dt))

    def verify(self, end_time: float, tracker_integral: float) -> float:
        """Compare the tracker's running sum against the recomputation.

        Returns the recomputed integral; raises on disagreement beyond
        floating-point tolerance.
        """
        recomputed = self.surplus_integral(end_time)
        if not math.isclose(
            recomputed, tracker_integral, rel_tol=1e-9, abs_tol=1e-6
        ):
            raise InvariantViolationError(
                f"capacity integral mismatch: tracker={tracker_integral!r} "
                f"vs independent recomputation={recomputed!r} "
                f"over {self.n_samples} samples"
            )
        return recomputed
