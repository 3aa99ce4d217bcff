"""Job migration via whole-machine compaction.

BG/L can move a running job by checkpointing it and restarting it on a
different partition (§3.2).  The engine invokes compaction when the
queue head has enough free nodes in total but no free *partition* —
fragmentation that only migration can cure.

The compaction plan re-places every running job plus the head,
largest-first with minimal-MFP-loss placement, on a cleared scratch
machine.  Only if *everything* fits is the plan committed; otherwise the
machine is untouched.  Per the paper's no-checkpoint baseline the move
itself is free (``migration_cost_s = 0``); a nonzero cost extends each
moved job's completion and is charged as lost work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocation.mfp import IndexCache
from repro.core.jobstate import JobState
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus


@dataclass(frozen=True, slots=True)
class CompactionPlan:
    """A verified full re-placement: job id → new partition."""

    placements: tuple[tuple[int, Partition], ...]
    moved_job_ids: tuple[int, ...]

    def summary(self) -> dict:
        """JSON-serialisable digest for the decision trace."""
        return {
            "moved_jobs": [int(j) for j in self.moved_job_ids],
            "n_placements": len(self.placements),
            "placements": [
                {
                    "job": int(job_id),
                    "base": [int(x) for x in part.base],
                    "shape": [int(x) for x in part.shape],
                }
                for job_id, part in self.placements
            ],
        }


def plan_compaction(
    index_cache: IndexCache, running: list[JobState], head: JobState
) -> CompactionPlan | None:
    """Try to re-place all running jobs plus ``head`` on an empty machine.

    ``index_cache`` is the scheduler's cache over the live machine; the
    plan scores on a scratch twin of it (empty torus, same metrics
    registry).  Jobs are placed largest-first (ties: earlier arrival
    first) with the MFP heuristic.  Returns None when no full placement
    is found — the greedy planner is not exhaustive, so rare feasible
    packings may be missed; the engine simply leaves the head waiting
    then.
    """
    torus = index_cache.torus
    todo = sorted(
        [js for js in running if js.running] + [head],
        key=lambda js: (-js.size, js.job.arrival, js.job_id),
    )
    scratch = Torus(torus.dims)
    # One incremental index for the whole plan: the next ``get`` after
    # each placement below syncs it, one box patch.
    cache = IndexCache(scratch, index_cache.metrics)
    placements: list[tuple[int, Partition]] = []
    for js in todo:
        # First-occurrence argmin: the first candidate at minimal L_MFP.
        batch, losses = cache.get().batch_mfp_losses(js.size)
        if not len(batch):
            return None
        best = batch.partition(int(np.argmin(losses)))
        scratch.allocate(js.job_id, best)
        placements.append((js.job_id, best))
    # Canonical comparison: a full-axis-span partition re-placed under a
    # different base is the same node set — not a move, and must not be
    # charged migration cost.
    moved = tuple(
        job_id
        for job_id, part in placements
        if job_id != head.job_id
        and torus.allocation_of(job_id).canonical(torus.dims)
        != part.canonical(torus.dims)
    )
    return CompactionPlan(tuple(placements), moved)


def apply_compaction(torus: Torus, plan: CompactionPlan, head_id: int) -> None:
    """Commit a plan: every running job moves to its planned partition.

    The head's partition is *not* allocated here — the engine dispatches
    the head through its normal path so accounting stays in one place.
    """
    for job_id in list(dict(torus.allocations())):
        torus.release(job_id)
    for job_id, partition in plan.placements:
        if job_id != head_id:
            torus.allocate(job_id, partition)


def head_partition(plan: CompactionPlan, head_id: int) -> Partition:
    """The partition the plan reserved for the head job."""
    for job_id, partition in plan.placements:
        if job_id == head_id:
            return partition
    raise LookupError(f"plan has no placement for head job {head_id}")
