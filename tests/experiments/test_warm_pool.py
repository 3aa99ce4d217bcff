"""Warm-pool engine unit and integration tests.

Covers the mechanisms of :mod:`repro.experiments.pool` — pool
persistence across ``run_sweep`` calls (resilient ones included), one
task per cell — plus their cleanup contracts (broken pool respawn,
idempotent shutdown, a silent exit).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.experiments.pool as pool_mod
import repro.experiments.sweep as sweep_mod
from repro.experiments.parallel import SweepExecutor, fork_available
from repro.experiments.pool import get_warm_pool, shutdown_warm_pool
from repro.experiments.sweep import SweepPoint, run_sweep, run_sweep_outcome
from repro.resilience import RetryPolicy

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@pytest.fixture(autouse=True)
def pool_isolation(monkeypatch):
    """Small master logs, cold caches and a fresh pool per test.

    The pool teardown before the patch guarantees every test's workers
    fork *after* ``MASTER_FAILURE_COUNT`` is shrunk (a persistent pool
    would otherwise carry workers from before the patch).
    """
    shutdown_warm_pool()
    monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 64)
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()
    yield
    shutdown_warm_pool()
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()


def _grid() -> tuple[list[SweepPoint], tuple[int, ...]]:
    points = [
        SweepPoint("nasa", 20, 1.0, f, "balancing", 0.3) for f in (0, 2, 4)
    ]
    return points, (0, 1)


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------

@needs_fork
class TestPoolLifecycle:
    def test_pool_persists_across_run_sweep_calls(self):
        points, seeds = _grid()
        warm = get_warm_pool()
        spawns_before = warm.spawns
        first = run_sweep(points, seeds, workers=2, min_cells_per_worker=0)
        sweep_mod._result_cache.clear()
        second = run_sweep(points, seeds, workers=2, min_cells_per_worker=0)
        assert warm.spawns == spawns_before + 1  # spawned exactly once
        assert warm.reuses >= 1
        assert warm.alive
        assert first == second

    def test_second_sweep_reports_pool_reused(self):
        points, seeds = _grid()
        executor = SweepExecutor(workers=2, min_cells_per_worker=0)
        outcome = executor.run_outcome(points, seeds)
        assert outcome.stats.mode == "warm"
        assert not outcome.stats.pool_reused  # first use spawned
        sweep_mod._result_cache.clear()
        outcome = executor.run_outcome(points, seeds)
        assert outcome.stats.pool_reused

    def test_resilient_sweeps_reuse_the_warm_pool(self):
        """Resilience is data carried by the one loop, not a pool of its
        own: a sweep with a retry policy runs on (and keeps) the
        process-wide warm pool."""
        points, seeds = _grid()
        retry = RetryPolicy()
        warm = get_warm_pool()
        first = run_sweep_outcome(
            points, seeds, workers=2, min_cells_per_worker=0, retry=retry
        )
        assert first.stats.mode == "warm"
        assert first.stats.chunk_size == 1  # failures stay attributable
        spawns = warm.spawns
        second = run_sweep_outcome(
            points, seeds, workers=2, min_cells_per_worker=0, retry=retry
        )
        assert warm.spawns == spawns
        assert second.stats.pool_reused
        assert second.results == first.results

    def test_size_change_respawns(self):
        warm = get_warm_pool()
        spawns_before = warm.spawns
        warm.ensure(2)
        assert warm.workers == 2
        warm.ensure(3)
        assert warm.workers == 3
        assert warm.spawns == spawns_before + 2

    def test_broken_pool_respawns_on_next_use(self):
        warm = get_warm_pool()
        spawns_before = warm.spawns
        warm.ensure(2)
        warm.mark_broken()
        assert not warm.alive
        executor = warm.ensure(2)
        assert warm.alive
        assert warm.spawns == spawns_before + 2
        assert executor.submit(max, 1, 2).result() == 2

    def test_shutdown_is_idempotent(self):
        warm = get_warm_pool()
        warm.ensure(2)
        shutdown_warm_pool()
        assert not warm.alive
        shutdown_warm_pool()  # never-used / already-down: no error

    def test_sweep_feeds_cost_ema_and_stats(self):
        points, seeds = _grid()
        outcome = SweepExecutor(
            workers=2, min_cells_per_worker=0
        ).run_outcome(points, seeds)
        assert outcome.stats.mode == "warm"
        assert outcome.stats.workers_used == 2
        assert outcome.stats.chunk_size == 1
        assert "workers=2" in outcome.stats.summary_line()

    def test_every_cell_is_its_own_task(self, monkeypatch):
        """A warm sweep with no retry policy still submits one future
        per cell: 24 cells on 2 workers are 24 tasks, not chunks."""
        points = [
            SweepPoint("nasa", 12, 1.0, f, "krevat", 0.0) for f in range(12)
        ]
        executor = get_warm_pool().ensure(2)
        submitted = []
        real_submit = type(executor).submit

        def counting_submit(self, fn, /, *args, **kwargs):
            submitted.append(args[0])
            return real_submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(type(executor), "submit", counting_submit)
        outcome = run_sweep_outcome(points, (0, 1), workers=2, min_cells_per_worker=0)
        assert outcome.stats.mode == "warm"
        assert outcome.stats.chunk_size == 1
        assert outcome.stats.cells_computed == 24
        assert sorted(submitted) == [(i, si) for i in range(12) for si in range(2)]


_PREWARMED_POOL_SCRIPT = textwrap.dedent(
    """
    import time
    from concurrent.futures import wait

    import repro.experiments.sweep as sweep_mod
    sweep_mod.MASTER_FAILURE_COUNT = 64
    from repro.experiments.pool import get_warm_pool
    from repro.experiments.sweep import SweepPoint, run_sweep

    # Workers exist before the first sweep does.
    executor = get_warm_pool().ensure(2)
    wait([executor.submit(time.sleep, 0.05) for _ in range(2)])
    points = [
        SweepPoint("nasa", 20, 1.0, f, "balancing", 0.3) for f in (0, 2, 4)
    ]
    assert len(run_sweep(points, (0, 1), workers=2, min_cells_per_worker=0)) == 3
    """
)


@needs_fork
def test_prewarmed_pool_shares_one_resource_tracker():
    """A process that pre-warms the pool and then sweeps on it exits
    cleanly with nothing from a resource tracker on stderr (workers
    forked before the first sweep used to start private trackers that
    reported leaks at exit)."""
    env = dict(os.environ)
    src_root = str(Path(pool_mod.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PREWARMED_POOL_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# warm results equivalence
# ----------------------------------------------------------------------

@needs_fork
class TestWarmEquivalence:
    def test_collector_parity_with_serial(self):
        from repro.obs.aggregate import SweepObsCollector

        points, seeds = _grid()
        warm_collector = SweepObsCollector()
        SweepExecutor(workers=2, min_cells_per_worker=0).run(
            points, seeds, collector=warm_collector
        )
        sweep_mod._result_cache.clear()
        serial_collector = SweepObsCollector()
        SweepExecutor(workers=1).run(points, seeds, collector=serial_collector)
        warm_collector.finalize()
        serial_collector.finalize()
        want = serial_collector.metrics.to_dict(include_timings=False)
        assert warm_collector.metrics.to_dict(include_timings=False) == want
