"""Simulator events and the event queue.

Three event kinds drive the simulation; *start* events from the paper's
taxonomy are implicit because jobs begin executing the instant they are
scheduled (§6.1), and checkpoint progress is modelled analytically (see
:mod:`repro.checkpoint`).

Events at the same timestamp are processed in a fixed kind order:
``FINISH`` before ``FAILURE`` before ``ARRIVAL`` — a job that completes
at exactly the moment a node fails has already finished, and freshly
freed partitions must be visible to jobs arriving at the same instant.

An :class:`Event` is a tuple the heap compares in C: ``seq`` is unique
per queue, so ``payload`` and ``epoch`` are never compared.
"""

from __future__ import annotations

import enum
import heapq
from typing import NamedTuple

from repro.errors import SimulationError


_INF = float("inf")


class EventKind(enum.IntEnum):
    """Event kinds; numeric value is the same-timestamp processing order."""

    FINISH = 0
    FAILURE = 1
    ARRIVAL = 2


class Event(NamedTuple):
    """One scheduled simulator event.

    ``payload`` is the job id for FINISH/ARRIVAL and the linear node id
    for FAILURE.  ``epoch`` guards FINISH events against stale delivery:
    when a failure kills a job its dispatch epoch advances, and the
    already-queued FINISH (carrying the old epoch) is ignored.
    """

    time: float
    kind: EventKind
    seq: int
    payload: int = 0
    epoch: int = 0


class EventQueue:
    """Min-heap of events ordered by (time, kind, insertion sequence)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: EventKind, payload: int, epoch: int = 0) -> Event:
        """Schedule an event; returns the stored record."""
        if not 0 <= time < _INF:
            raise SimulationError(f"event time must be finite and >= 0, got {time}")
        event = Event(time, kind, self._seq, payload, epoch)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def next_time(self) -> float | None:
        """Timestamp of the next event, or ``None`` when empty.

        The steppable drivers (:meth:`repro.core.simulator.Simulator.pump`)
        use this to decide whether the next batch falls inside their
        arrival watermark without paying for an exception on drain.
        """
        return self._heap[0].time if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next event."""
        if not self._heap:
            raise SimulationError("pop on empty event queue")
        return heapq.heappop(self._heap)

    def pop_batch(self) -> list[Event]:
        """Remove and return every event sharing the next timestamp.

        The scheduler runs once per *batch*, after all simultaneous state
        changes have been applied (kind order within the batch is the
        EventKind order).
        """
        if not self._heap:
            raise SimulationError("pop_batch on empty event queue")
        first = heapq.heappop(self._heap)
        batch = [first]
        while self._heap and self._heap[0].time == first.time:
            batch.append(heapq.heappop(self._heap))
        return batch
