"""Checkpoint/resume under chaos: the headline resilience contract.

A sweep interrupted by worker kills, poison cells or checkpoint
corruption, then resumed against the same checkpoint directory, must
produce results *bitwise identical* to an uninterrupted serial run —
exact float equality through the frozen-dataclass ``==``.
"""

from __future__ import annotations

import repro.experiments.sweep as sweep_mod
from repro.experiments.sweep import run_sweep, run_sweep_outcome
from repro.resilience import CellStore, RetryPolicy

from tests.chaos import ChaosConfig
from tests.resilience.conftest import needs_fork


def _serial_reference(points, seeds):
    ref = run_sweep(points, seeds, workers=1)
    sweep_mod._result_cache.clear()
    return ref


@needs_fork
class TestKillAndResume:
    def test_transient_kill_bitwise_identical(
        self, grid, fast_retry, inject_faults
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(kill_cells=((0, 0),), kill_attempts=1)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(
                points, seeds, workers=2, min_cells_per_worker=0,
                retry=fast_retry,
            )
        assert outcome.results == ref
        assert outcome.stats.pool_rebuilds >= 1

    def test_killed_sweep_resumes_from_checkpoints(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        """Run 1 loses cells to a poison raise; run 2 (chaos off, same
        directory) restores every surviving cell and only computes what
        is missing — and the union equals an uninterrupted run."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        poison = ChaosConfig(raise_cells=((1, 0),), raise_attempts=99)
        with inject_faults(poison, points, seeds):
            first = run_sweep_outcome(
                points, seeds, workers=2, min_cells_per_worker=0,
                checkpoint_dir=tmp_path, retry=fast_retry,
            )
        assert not first.complete
        computed_first = first.stats.cells_computed
        assert computed_first == len(points) * len(seeds) - 1

        sweep_mod._result_cache.clear()
        second = run_sweep_outcome(
            points, seeds, workers=2, min_cells_per_worker=0,
            checkpoint_dir=tmp_path,
            retry=fast_retry,
        )
        assert second.complete
        assert second.results == ref
        assert second.stats.checkpoint_hits == computed_first
        assert second.stats.cells_computed == 1


class TestResumeSemantics:
    def test_corrupted_checkpoints_recomputed_on_resume(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        # Corrupt both of point 0's freshly written cells.
        chaos = ChaosConfig(corrupt_cells=((0, 0), (0, 1)))
        with inject_faults(chaos, points, seeds):
            first = run_sweep_outcome(
                points, seeds, checkpoint_dir=tmp_path, retry=fast_retry
            )
        assert first.results == ref  # corruption is post-success, on disk only
        store = CellStore(tmp_path)
        assert len(store.validate()) == 2

        sweep_mod._result_cache.clear()
        second = run_sweep_outcome(
            points, seeds, checkpoint_dir=tmp_path, retry=fast_retry
        )
        assert second.results == ref
        assert second.stats.checkpoint_corrupt == 2
        assert second.stats.checkpoint_hits == len(points) * len(seeds) - 2
        assert second.stats.cells_computed == 2
        # The recompute healed the store in place.
        assert CellStore(tmp_path).validate() == []

    def test_resume_false_recomputes_everything(
        self, grid, fast_retry, tmp_path
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        n_cells = len(points) * len(seeds)
        first = run_sweep_outcome(
            points, seeds, checkpoint_dir=tmp_path, retry=fast_retry
        )
        assert first.stats.cells_computed == n_cells

        sweep_mod._result_cache.clear()
        second = run_sweep_outcome(
            points, seeds, checkpoint_dir=tmp_path, retry=fast_retry,
            resume=False,
        )
        assert second.results == ref
        assert second.stats.checkpoint_hits == 0
        assert second.stats.cells_computed == n_cells

    def test_memo_cache_bypassed_for_durability(
        self, grid, fast_retry, tmp_path
    ):
        """An in-memory memo hit cannot attest a durable checkpoint: a
        resilient sweep after a warm plain sweep must still write every
        cell to disk."""
        points, seeds = grid
        run_sweep(points, seeds, workers=1)  # warms _result_cache
        outcome = run_sweep_outcome(
            points, seeds, checkpoint_dir=tmp_path, retry=fast_retry
        )
        assert outcome.stats.cells_computed == len(points) * len(seeds)
        assert len(CellStore(tmp_path)) == len(points) * len(seeds)

    def test_stale_directory_from_other_sweep_is_inert(
        self, grid, fast_retry, tmp_path
    ):
        """Content-addressed keys: checkpoints of a different grid are
        never restored into this one."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        import dataclasses

        other = [dataclasses.replace(p, n_jobs=p.n_jobs + 1) for p in points]
        run_sweep_outcome(
            other, seeds, checkpoint_dir=tmp_path, retry=fast_retry
        )
        sweep_mod._result_cache.clear()
        outcome = run_sweep_outcome(
            points, seeds, checkpoint_dir=tmp_path, retry=fast_retry
        )
        assert outcome.results == ref
        assert outcome.stats.checkpoint_hits == 0
        assert outcome.stats.cells_computed == len(points) * len(seeds)


class TestKilledQueueWorker:
    def test_killed_queue_worker_reclaim_resume_bitwise(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        """Multi-host variant of kill-and-resume: a queue worker dies
        deterministically *between claiming and computing* a cell (the
        same ``ChaosConfig`` kill the warm pool is rehearsed with,
        installed in the worker from the plan file, exiting with
        ``KILL_EXIT_CODE``);
        the orphaned claim's lease expires; the dispatch loop charges
        the attempt and resubmits, and the merged results are bitwise
        identical to serial, with the reclaim visible in the stats (the
        one retry *is* the reclaimed claim: nothing else failed)."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(kill_cells=((0, 0),), kill_attempts=1)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(
                points, seeds, workers=2, queue_dir=tmp_path, lease_s=1.0,
                retry=fast_retry,
            )
        assert outcome.results == ref
        assert outcome.complete
        assert not outcome.quarantined
        assert outcome.stats.mode == "queue"
        assert outcome.stats.retries == 1
        # A second driver on the finished directory restores, verified.
        sweep_mod._result_cache.clear()
        resumed = run_sweep_outcome(points, seeds, workers=2, queue_dir=tmp_path)
        assert resumed.results == ref
        assert resumed.stats.cells_computed == 0


class TestObsIntegration:
    def test_resilience_events_flow_into_active_metrics(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        """Each fact the sweep layer counts has one home, ``outcome.stats``
        (filled from the store's instance counters): the injected raise is
        the one retry, every computed cell is one checkpoint written, and
        the second run restores them all."""
        points, seeds = grid
        chaos = ChaosConfig(raise_cells=((0, 0),), raise_attempts=1)
        with inject_faults(chaos, points, seeds):
            first = run_sweep_outcome(
                points, seeds, checkpoint_dir=tmp_path, retry=fast_retry
            ).stats
        sweep_mod._result_cache.clear()
        second = run_sweep_outcome(
            points, seeds, checkpoint_dir=tmp_path, retry=fast_retry
        ).stats
        n_cells = len(points) * len(seeds)
        assert (first.cells_computed, second.cells_computed) == (n_cells, 0)
        assert (first.retries, second.retries) == (1, 0)  # the chaos raise
        assert len(CellStore(tmp_path)) == n_cells  # one checkpoint per cell
        assert (first.checkpoint_hits, second.checkpoint_hits) == (0, n_cells)
