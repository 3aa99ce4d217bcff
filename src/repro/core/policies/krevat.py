"""Fault-oblivious baseline placement — Krevat's MFP heuristic (§5.1).

Among all free partitions of the job's size, pick the one whose
allocation least reduces the maximal free partition (smallest
``L_MFP``), preserving room for the next job in the queue.  Ties break
deterministically on the finder's enumeration order (shape order, then
base order) so runs are reproducible.

The production path scores the whole candidate set with the batch MFP
kernel and picks the winner with one first-occurrence ``argmin`` — the
same partition the scalar walk
of the test suite (``choose_partition_scalar``) selects, which the
batch-vs-scalar property suite enforces.
"""

from __future__ import annotations

from repro.allocation.mfp import PlacementIndex
from repro.core.jobstate import JobState
from repro.core.policies.base import SchedulingPolicy
from repro.geometry.partition import Partition


class KrevatPolicy(SchedulingPolicy):
    """FCFS + MFP placement with no fault awareness."""

    name = "krevat"

    def choose_partition(
        self, index: PlacementIndex, state: JobState, now: float
    ) -> Partition | None:
        batch, losses = self.batch_scored(index, state.size)
        if losses is None:  # nothing fits, or the choice is forced
            return self.place_unscored(state, now, batch)
        # argmin returns the first occurrence of the minimum — exactly
        # the scalar walk's "first candidate at min loss" tie order.
        chosen = batch.partition(int(losses.argmin()))
        if self.recorder.enabled:
            self.trace_decision(state, now, batch, chosen, l_mfp=losses)
        return chosen
