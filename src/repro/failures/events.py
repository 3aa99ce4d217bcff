"""Failure events and the failure log.

A :class:`FailureLog` is an immutable, time-sorted sequence of
``(time, node)`` events over the torus's linear node ids.  Both the
simulator (which injects the events) and the predictors (which peek at
the same log with degraded confidence — §4 of the paper) read from one
shared instance, so prediction "hits" always refer to failures that will
actually occur.

Window queries are the predictor hot path; the log keeps parallel NumPy
arrays sorted by time so a window resolves with two ``searchsorted``
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import FailureModelError


@dataclass(frozen=True, slots=True)
class FailureEvent:
    """One transient node failure at ``time`` on linear node id ``node``."""

    time: float
    node: int

    def __post_init__(self) -> None:
        if not 0 <= self.time < np.inf:
            raise FailureModelError(f"failure time must be in [0, inf), got {self.time}")
        if self.node < 0:
            raise FailureModelError(f"node id must be >= 0, got {self.node}")


class FailureLog:
    """Immutable time-sorted failure trace over ``n_nodes`` linear ids."""

    __slots__ = ("n_nodes", "times", "nodes")

    def __init__(self, n_nodes: int, events: Sequence[FailureEvent] = ()) -> None:
        self._validate(
            n_nodes,
            np.array([e.time for e in events], dtype=np.float64),
            np.array([e.node for e in events], dtype=np.int64),
        )

    @classmethod
    def from_arrays(cls, n_nodes: int, times: np.ndarray, nodes: np.ndarray) -> "FailureLog":
        """Build a log from parallel arrays (no per-event objects)."""
        log = cls.__new__(cls)
        log._validate(n_nodes, times, nodes)
        return log

    def _validate(self, n_nodes: int, times: np.ndarray, nodes: np.ndarray) -> None:
        """The one path into a log: range checks, a ``(time, node)``
        sort and read-only copies of both arrays."""
        if n_nodes < 1:
            raise FailureModelError(f"n_nodes must be positive, got {n_nodes}")
        times = np.asarray(times, dtype=np.float64)
        nodes = np.asarray(nodes, dtype=np.int64)
        if times.shape != nodes.shape:
            raise FailureModelError("times and nodes must have equal shapes")
        if times.size and not 0 <= float(times.min()) <= float(times.max()) < np.inf:
            raise FailureModelError("failure times must be finite and >= 0")
        if nodes.size and (int(nodes.min()) < 0 or int(nodes.max()) >= n_nodes):
            raise FailureModelError(f"node ids out of range for {n_nodes} nodes")
        order = np.lexsort((nodes, times))
        self.n_nodes = n_nodes
        self.times = times[order]
        self.nodes = nodes[order]
        self.times.setflags(write=False)
        self.nodes.setflags(write=False)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.times.size)

    def __iter__(self) -> Iterator[FailureEvent]:
        for t, n in zip(self.times, self.nodes):
            yield FailureEvent(float(t), int(n))

    @property
    def span(self) -> float:
        """Time between first and last event (0 if < 2 events)."""
        if len(self) < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])

    def window_slice(self, t0: float, t1: float) -> tuple[int, int]:
        """Index range ``[lo, hi)`` of events with ``t0 <= time < t1``."""
        times = self.times
        return int(times.searchsorted(t0)), int(times.searchsorted(t1))

    def nodes_failing_in(self, t0: float, t1: float) -> np.ndarray:
        """Unique node ids with at least one failure in ``[t0, t1)``,
        ascending: the nonzero bins of the window's per-node counts."""
        lo, hi = self.window_slice(t0, t1)
        return np.bincount(self.nodes[lo:hi], minlength=self.n_nodes).nonzero()[0]

    def failure_mask(self, t0: float, t1: float) -> np.ndarray:
        """Boolean array over node ids: True where a failure falls in
        ``[t0, t1)``.  This is the balancing predictor's raw signal."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.nodes_failing_in(t0, t1)] = True
        return mask

    def count_in(self, t0: float, t1: float) -> int:
        """Number of failure events in ``[t0, t1)``."""
        lo, hi = self.window_slice(t0, t1)
        return hi - lo

    def events_in(self, t0: float, t1: float) -> Iterator[FailureEvent]:
        """Iterate events with ``t0 <= time < t1`` in time order."""
        lo, hi = self.window_slice(t0, t1)
        for i in range(lo, hi):
            yield FailureEvent(float(self.times[i]), int(self.nodes[i]))

    def per_node_counts(self) -> np.ndarray:
        """Failure count per node id (length ``n_nodes``)."""
        return np.bincount(self.nodes, minlength=self.n_nodes)

    def mean_failures_per_node_day(self) -> float:
        """Average failures per node per day over the log span."""
        if self.span <= 0:
            return 0.0
        days = self.span / 86_400.0
        return len(self) / (self.n_nodes * days)
