"""Event-stream ordering oracle.

The simulator's correctness argument leans on two properties of its
event loop (see :mod:`repro.core.events`): batches are popped in
non-decreasing time order, and *within* a batch events are applied in
the fixed kind order ``FINISH < FAILURE < ARRIVAL``.  The
:class:`EventOrderOracle` observes every popped batch and raises the
moment either property is broken — e.g. by a future refactor of the
heap ordering or of :meth:`EventQueue.pop_batch`.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.events import Event
from tests.oracles.errors import InvariantViolationError


class EventOrderOracle:
    """Validates the batch stream produced by ``EventQueue.pop_batch``."""

    __slots__ = ("batches_seen", "_last_time")

    def __init__(self) -> None:
        self.batches_seen = 0
        self._last_time: float | None = None

    def observe_batch(self, batch: Sequence[Event]) -> None:
        """Check one popped batch; raise on any ordering violation."""
        self.batches_seen += 1
        if not batch:
            raise InvariantViolationError("simulator processed an empty batch")
        t = batch[0].time
        if not math.isfinite(t) or t < 0:
            raise InvariantViolationError(f"batch timestamp {t} is not a valid time")
        if self._last_time is not None and t < self._last_time:
            raise InvariantViolationError(
                f"batch time went backwards: {t} after {self._last_time}"
            )
        self._last_time = t
        prev_kind = None
        for event in batch:
            if event.time != t:
                raise InvariantViolationError(
                    f"batch mixes timestamps: {event.time} != {t}"
                )
            if prev_kind is not None and event.kind < prev_kind:
                raise InvariantViolationError(
                    f"within-batch kind order violated: {event.kind.name} "
                    f"after {prev_kind.name} (must be FINISH<FAILURE<ARRIVAL)"
                )
            prev_kind = event.kind
