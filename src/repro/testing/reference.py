"""The reference engine: the production simulator on from-scratch rebuilds.

Production runs one engine — the incrementally patched placement index
with its bit-mask scoring kernel, one scheduler pass per same-timestamp
event batch — and offers no option to run another.  The alternative the
differential suites compare it with is built here, by tests:

* :class:`RebuildIndexCache` hands out a fresh plain
  :class:`~repro.allocation.mfp.PlacementIndex` (lazy grids, scalar
  early-exit scoring walk, integral-rebuild release replay) whenever the
  torus changed — read from the occupancy grid, not synced to the
  allocation map; no patching, none of the production kernels;
* :func:`oracle_simulator` is :class:`~repro.core.simulator.Simulator`
  with that cache behind its one seam (``_make_index_cache``), shared by
  the scheduler pass, the backfill gate and the shadow-time engine
  exactly as in production.  (The compaction planner builds its own
  cache over a scratch torus; its reference twin is the rebuild planner
  of ``tests/core/test_backfill_migration.py``.)

Reports and decision traces of the two must be byte-identical.

The per-question references live here too, out of the production
package: :func:`choose_partition_scalar` (each policy's rule as a
per-candidate walk, the oracle of its batch ``choose_partition``) and
:func:`shadow_time_naive` (the oracle of
:class:`~repro.core.backfill.ShadowTimeEngine`).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.core.jobstate import JobState
from repro.core.policies.base import SchedulingPolicy
from repro.core.simulator import Simulator
from repro.geometry.partition import Partition
from repro.geometry.torus import FREE, Torus


class RebuildIndexCache(IndexCache):
    """An :class:`IndexCache` that rebuilds the plain reference index
    from scratch on every ``torus.version`` change."""

    __slots__ = ()

    def get(self) -> PlacementIndex:
        index = self._index
        if index is None or index.torus_version != self.torus.version:
            index = self._index = PlacementIndex(self.torus)
            if self.metrics is not None:
                self.metrics.counter("index.builds").inc()
        return index


class _RebuildSimulator(Simulator):
    def _make_index_cache(self) -> IndexCache:
        return RebuildIndexCache(self.torus, self.metrics)


def oracle_simulator(*args, **kwargs) -> Simulator:
    """A :class:`Simulator` (same arguments) whose every index query is
    answered by a from-scratch :class:`PlacementIndex`."""
    return _RebuildSimulator(*args, **kwargs)


def choose_partition_scalar(
    policy: SchedulingPolicy, index: PlacementIndex, state: JobState, now: float
) -> Partition | None:
    """``policy``'s placement rule as a per-candidate scalar walk over
    ``index.scored_candidates`` — the cross-validation oracle of its
    batch ``choose_partition`` (same winner, tie order included).

    Takes the policy first, so a test can bind it as the
    ``choose_partition`` of a policy subclass and run whole simulations
    down the scalar path.
    """
    scored = index.scored_candidates(state.size)
    if not scored:
        return None
    window_end = now + max(state.remaining_estimate, 1.0)
    if policy.name == "balancing":
        best: Partition | None = None
        best_key: tuple[float, float] | None = None
        for partition, mfp_loss in scored:
            p_f = policy.predictor.partition_failure_probability(
                partition, index.dims, now, window_end
            )
            key = (mfp_loss + p_f * state.size, p_f)
            if best_key is None or key < best_key:
                best, best_key = partition, key
        return best
    min_loss = min(loss for _, loss in scored)
    tied = [partition for partition, loss in scored if loss == min_loss]
    if policy.name == "tiebreak":
        for partition in tied:
            if not policy.predictor.predicts_failure(
                partition, index.dims, now, window_end
            ):
                return partition
    return tied[0]  # krevat, or every tied candidate predicted to fail


def shadow_time_naive(
    torus: Torus,
    running: Iterable[JobState],
    head_size: int,
    now: float,
) -> float:
    """Reference shadow-time: full grid copy + fresh index per release.

    The independently-simple oracle
    :class:`~repro.core.backfill.ShadowTimeEngine` is cross-validated
    against.
    """
    scratch = Torus(torus.dims)
    scratch.grid[...] = torus.grid
    if PlacementIndex(scratch).has_candidate(head_size):
        return now
    ordered = sorted(
        (js for js in running if js.running),
        key=lambda js: (js.est_finish, js.job_id),
    )
    for js in ordered:
        partition = torus.allocation_of(js.job_id)
        scratch.grid[np.ix_(*partition.axis_ranges(torus.dims))] = FREE
        if PlacementIndex(scratch).has_candidate(head_size):
            return max(now, js.est_finish)
    return math.inf
