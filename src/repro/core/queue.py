"""FCFS wait queue.

Jobs are ordered by ``(arrival, job_id)`` — a killed job re-enters with
its *original* arrival time, so it returns to (or near) the head of the
queue rather than the tail, matching the paper's restart semantics.
"""

from __future__ import annotations

import bisect
from typing import Iterator, KeysView

from repro.errors import SimulationError
from repro.core.jobstate import JobState


class WaitQueue:
    """Priority-ordered wait queue keyed by (arrival, job_id)."""

    __slots__ = ("_keys", "_jobs", "_requested", "_sizes")

    def __init__(self) -> None:
        self._keys: list[tuple[float, int]] = []
        self._jobs: list[JobState] = []
        self._requested = 0
        self._sizes: dict[int, int] = {}  # size -> number of waiting jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def __iter__(self) -> Iterator[JobState]:
        return iter(self._jobs)

    def __getitem__(self, i: int) -> JobState:
        return self._jobs[i]

    @property
    def requested_nodes(self) -> int:
        """Total nodes requested by waiting jobs — the ``q(t)`` of the
        unused-capacity integral."""
        return self._requested

    def sizes(self) -> KeysView[int]:
        """The distinct sizes waiting jobs request (a live view)."""
        return self._sizes.keys()

    def push(self, state: JobState) -> None:
        """Insert preserving FCFS order; duplicates are rejected."""
        key = (state.job.arrival, state.job_id)
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            raise SimulationError(f"job {state.job_id} already queued")
        self._keys.insert(i, key)
        self._jobs.insert(i, state)
        self._requested += state.size
        self._sizes[state.size] = self._sizes.get(state.size, 0) + 1

    def head(self) -> JobState:
        """The highest-priority waiting job."""
        if not self._jobs:
            raise SimulationError("head() on empty wait queue")
        return self._jobs[0]

    def remove(self, state: JobState) -> None:
        """Remove a specific job (it was just dispatched)."""
        if not self.discard(state):
            raise SimulationError(f"job {state.job_id} not in wait queue")

    def __contains__(self, state: JobState) -> bool:
        """Whether this very state is queued: a bisect on its
        ``(arrival, job_id)`` key, as :meth:`discard` finds it."""
        i = bisect.bisect_left(self._keys, (state.job.arrival, state.job_id))
        return i < len(self._jobs) and self._jobs[i] is state

    def discard(self, state: JobState) -> bool:
        """Remove a job if present; returns whether it was queued.

        The cancellation path (an online client withdrawing a waiting
        job) cannot know whether the job is still queued or already
        dispatched, so absence is an answer rather than an error.
        """
        key = (state.job.arrival, state.job_id)
        i = bisect.bisect_left(self._keys, key)
        if i >= len(self._keys) or self._keys[i] != key:
            return False
        del self._keys[i]
        del self._jobs[i]
        self._requested -= state.size
        left = self._sizes[state.size] - 1
        if left:
            self._sizes[state.size] = left
        else:
            del self._sizes[state.size]
        return True

