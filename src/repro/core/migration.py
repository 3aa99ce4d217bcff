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

The boxes depend only on the sizes placed, in order (DESIGN §5.4), so a
run keeps its plans by size sequence (:data:`PlanMemo`).
"""

from __future__ import annotations

from dataclasses import dataclass

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


#: Planned boxes by size sequence (``None``: no full placement).
PlanMemo = dict[tuple[int, ...], tuple[Partition, ...] | None]
#: A memo this full is cleared before the next entry goes in.
PLAN_MEMO_MAX = 1024


def plan_compaction(
    index_cache: IndexCache,
    running: list[JobState],
    head: JobState,
    memo: PlanMemo | None = None,
) -> CompactionPlan | None:
    """Try to re-place all running jobs plus ``head`` on an empty machine.

    ``index_cache`` is the scheduler's cache over the live machine; the
    plan scores on a scratch twin of it (empty torus, same metrics
    registry).  Jobs are placed largest-first (ties: earlier arrival
    first) with the MFP heuristic.  Returns None when no full placement
    is found — the greedy planner is not exhaustive, so rare feasible
    packings may be missed; the engine simply leaves the head waiting
    then.  ``memo`` is the run's: what a run computes and counts must
    not depend on runs before it.
    """
    torus = index_cache.torus
    todo = sorted(
        [js for js in running if js.running] + [head],
        key=lambda js: (-js.size, js.job.arrival, js.job_id),
    )
    sizes = tuple(js.size for js in todo)
    memo = {} if memo is None else memo
    if sizes not in memo:
        if len(memo) >= PLAN_MEMO_MAX:
            memo.clear()
        memo[sizes] = _pack(index_cache, sizes)
    boxes = memo[sizes]
    if boxes is None:
        return None
    placements = tuple((js.job_id, box) for js, box in zip(todo, boxes))
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
    return CompactionPlan(placements, moved)


def _pack(index_cache: IndexCache, sizes: tuple[int, ...]) -> tuple[Partition, ...] | None:
    """Place ``sizes`` in order on an empty twin of ``index_cache``'s
    torus, each at its first minimal-``L_MFP`` candidate (first
    occurrence); None when one does not fit."""
    scratch = Torus(index_cache.torus.dims)
    # One incremental index for the whole plan: the next ``get`` after
    # each placement below syncs it, one box patch.
    cache = IndexCache(scratch, index_cache.metrics)
    boxes = []
    for slot, size in enumerate(sizes):
        batch, losses = cache.get().batch_mfp_losses(size)
        if not len(batch):
            return None
        best = batch.partition(int(losses.argmin()))
        scratch.allocate(slot, best)
        boxes.append(best)
    return tuple(boxes)


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
