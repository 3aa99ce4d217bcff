"""Serial/parallel sweep equivalence and worker-failure handling.

The contract under test: ``run_sweep(points, workers=N)`` returns a
result list *bitwise identical* to ``run_sweep(points, workers=1)`` —
same ordering, exact float equality — because each ``(point, seed)``
cell is a deterministic function of its inputs and aggregation happens
in the parent in serial seed order.  One matrix
(``test_every_backend_matches_serial``) holds every way a sweep can be
executed to that contract.

The CI ``bench-smoke`` job treats a skip of this module as a failure, so
keep the skip conditions honest (fork genuinely unavailable).
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import wait

import pytest

import repro.experiments.parallel as parallel_mod
import repro.experiments.pool as pool_mod
import repro.experiments.sweep as sweep_mod
from repro.core.config import SimulationConfig
from repro.errors import ExperimentError, ReproError, SimulationError
from repro.experiments.parallel import SweepExecutor, default_workers, fork_available
from repro.experiments.pool import shutdown_warm_pool
from repro.experiments.sweep import SweepPoint, run_sweep, run_sweep_outcome
from repro.resilience import RetryPolicy

from tests.chaos import ChaosConfig

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@pytest.fixture(autouse=True)
def small_master_log(monkeypatch):
    """Shrink master failure logs and isolate every sweep-level cache.

    The caches are emptied on entry so every test computes its cells
    (they are keyed by the count, so this is for coldness, not
    correctness).  The warm pool is torn down around every test so each
    test's workers fork *after* its monkeypatches — the persistent pool
    would otherwise keep workers from before a patched function.
    """
    shutdown_warm_pool()
    monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 64)
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()
    yield
    shutdown_warm_pool()
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()


def _failure_axis_grid() -> tuple[list[SweepPoint], tuple[int, ...]]:
    points = [
        SweepPoint("nasa", 25, 1.0, f, "balancing", 0.3) for f in (0, 2, 5)
    ]
    return points, (0, 1)


def _parameter_axis_grid() -> tuple[list[SweepPoint], tuple[int, ...]]:
    points = [
        SweepPoint("sdsc", 20, 1.0, 3, "tiebreak", a) for a in (0.0, 0.5, 1.0)
    ]
    return points, (0,)


def _mixed_grid() -> tuple[list[SweepPoint], tuple[int, ...]]:
    points = [
        SweepPoint("nasa", 20, 1.0, 2, "krevat", 0.0),
        SweepPoint("llnl", 20, 1.2, 4, "balancing", 0.7),
        SweepPoint("nasa", 25, 1.0, 0, "tiebreak", 0.2),
        SweepPoint("llnl", 20, 1.0, 2, "krevat", 0.0),
    ]
    return points, (0, 1)


GRIDS = {
    "failure-axis": _failure_axis_grid,
    "parameter-axis": _parameter_axis_grid,
    "mixed-sites-policies": _mixed_grid,
}


_FAST_RETRY = RetryPolicy(base_delay_s=0.0, jitter_fraction=0.0)

#: The fault the ``+transient-kill`` backends run under.
_TRANSIENT_KILL = ChaosConfig(kill_cells=((0, 0),), kill_attempts=1)

#: Every way a sweep can be executed: the options (given a scratch
#: directory), then the ``mode`` and ``workers_used`` an honest
#: ``SweepRunStats`` must report.
BACKENDS = {
    "in-process": (lambda tmp: dict(workers=1), "serial", 1),
    "warm-pool": (
        lambda tmp: dict(workers=2, min_cells_per_worker=0), "warm", 2,
    ),
    "warm-pool+retry+checkpoint": (
        lambda tmp: dict(
            workers=2, min_cells_per_worker=0, retry=_FAST_RETRY,
            checkpoint_dir=tmp,
        ),
        "warm", 2,
    ),
    "warm-pool+transient-kill": (
        lambda tmp: dict(
            workers=2, min_cells_per_worker=0, retry=_FAST_RETRY,
        ),
        "warm", 2,
    ),
    "warm-pool+stale-workers": (
        lambda tmp: dict(workers=2, min_cells_per_worker=0), "warm", 2,
    ),
    "queue": (lambda tmp: dict(workers=2, queue_dir=tmp), "queue", 2),
    "queue+transient-kill": (
        lambda tmp: dict(
            workers=2, queue_dir=tmp, lease_s=1.0, retry=_FAST_RETRY,
        ),
        "queue", 2,
    ),
    "queue+corrupt-resume": (
        lambda tmp: dict(workers=2, queue_dir=tmp), "queue", 2,
    ),
}


def _leave_stale_workers(monkeypatch, points, seeds):
    """A pool whose workers forked, and filled their input caches, under
    the full-size master log — before the calling process shrank it."""
    monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 8192)
    executor = pool_mod.get_warm_pool().ensure(2)
    wait([executor.submit(time.sleep, 0.05) for _ in range(2)])
    run_sweep(points, seeds, workers=2, min_cells_per_worker=0)
    monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 64)
    sweep_mod._result_cache.clear()
    sweep_mod._workload_cache.clear()
    sweep_mod._master_log_cache.clear()


@needs_fork
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_backend_matches_serial(
    backend, tmp_path, monkeypatch, inject_faults
):
    """One grid through every execution path: results ``==`` serial
    (exact floats) and the stats say what really ran."""
    options, mode, workers_used = BACKENDS[backend]
    points, seeds = _mixed_grid()
    n_computed = len(points) * len(seeds)
    if "stale" in backend:
        _leave_stale_workers(monkeypatch, points, seeds)
    if "corrupt-resume" in backend:
        # A finished directory with one damaged cell file: the rerun
        # must recompute exactly that cell, not average around it.
        run_sweep_outcome(points, seeds, **options(tmp_path))
        sweep_mod._result_cache.clear()
        damaged = sorted((tmp_path / "cells").iterdir())[0]
        damaged.write_bytes(damaged.read_bytes()[:100])
        n_computed = 1
    # The backend under test goes first, against cold caches, so it
    # cannot piggyback on serially computed results.
    faults = (
        inject_faults(_TRANSIENT_KILL, points, seeds)
        if "kill" in backend
        else contextlib.nullcontext()
    )
    with faults:
        outcome = run_sweep_outcome(points, seeds, **options(tmp_path))
    sweep_mod._result_cache.clear()
    assert outcome.results == run_sweep(points, seeds, workers=1)
    assert outcome.complete
    assert outcome.stats.mode == mode
    assert outcome.stats.workers_used == workers_used
    assert outcome.stats.cells_computed == n_computed
    assert outcome.stats.checkpoint_corrupt == ("corrupt" in backend)
    if "kill" in backend:
        # A dead pool worker takes the pool with it (a rebuild, and
        # resubmits); a dead queue worker costs its one claim a lease
        # (a retry) while its fleet-mate carries on.
        assert outcome.stats.retries + outcome.stats.resubmits >= 1
        assert outcome.stats.pool_rebuilds >= ("warm" in backend)
        assert not outcome.stats.degraded


@needs_fork
def test_no_resume_recomputes_a_finished_queue_directory(tmp_path):
    """``resume=False`` reaches the queue like every other backend:
    nothing already in the directory is trusted or left standing."""
    points, seeds = _parameter_axis_grid()
    ref = run_sweep(points, seeds, workers=1)
    for resume, hits, computed in ((True, 0, 3), (True, 3, 0), (False, 0, 3)):
        sweep_mod._result_cache.clear()
        outcome = run_sweep_outcome(
            points, seeds, workers=2, queue_dir=tmp_path, resume=resume
        )
        assert outcome.results == ref
        assert outcome.stats.checkpoint_hits == hits
        assert outcome.stats.cells_computed == computed


@needs_fork
class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_bitwise_identical_results(self, grid):
        points, seeds = GRIDS[grid]()
        # Parallel first, against cold caches, so it cannot piggyback on
        # serially computed results; the cutover is pinned off so the
        # small grid genuinely exercises the pool.
        parallel = run_sweep(points, seeds, workers=4, min_cells_per_worker=0)
        sweep_mod._result_cache.clear()
        serial = run_sweep(points, seeds, workers=1)
        assert len(parallel) == len(serial) == len(points)
        for i, (p, s) in enumerate(zip(parallel, serial)):
            assert p.point == points[i]  # ordering preserved
            # Frozen-dataclass equality covers every metric field with
            # exact float comparison (no tolerance).
            assert p == s

    def test_partial_cache_reuse_matches_serial(self):
        """A parallel sweep over a half-cached grid must slot cached and
        fresh results into the right positions."""
        points, seeds = _failure_axis_grid()
        serial = run_sweep(points, seeds, workers=1)
        # Keep only the middle point cached; the executor must compute
        # the other two and preserve order.
        model_key = sweep_mod.result_cache_key(
            points[1], seeds, sweep_mod.BurstFailureModel()
        )
        keep = sweep_mod._result_cache[model_key]
        sweep_mod._result_cache.clear()
        sweep_mod._result_cache[model_key] = keep
        parallel = run_sweep(points, seeds, workers=2, min_cells_per_worker=0)
        assert parallel == serial
        assert parallel[1] is keep


@needs_fork
class TestWorkerFailure:
    def test_warm_worker_crash_surfaces_as_experiment_error(self, monkeypatch):
        """A warm-pool worker that dies mid-cell must raise, not hang.

        Workers reach ``cell_inputs`` through the sweep module (via
        :func:`repro.experiments.pool.run_cell`), so that is the patch
        target; the autouse fixture's pool teardown guarantees
        the workers fork after the patch.  The breakage must also mark
        the pool so the *next* sweep respawns instead of reusing a dead
        executor.
        """
        monkeypatch.setattr(
            sweep_mod, "cell_inputs", lambda *a: os._exit(13)
        )
        points, seeds = _parameter_axis_grid()
        with pytest.raises(ExperimentError, match="worker process died"):
            SweepExecutor(workers=2, min_cells_per_worker=0).run(points, seeds)
        assert not pool_mod.get_warm_pool().alive

    def test_worker_exception_propagates_type(self):
        """Ordinary worker exceptions keep their ReproError type.

        Two points and two seeds force the pooled path (a single cell
        would take the in-process shortcut).
        """
        bad = [
            SweepPoint("no-such-site", 10, 1.0, 0, "krevat", 0.0),
            SweepPoint("no-such-site", 12, 1.0, 0, "krevat", 0.0),
        ]
        with pytest.raises(ReproError):
            run_sweep(bad, (0, 1), workers=2, min_cells_per_worker=0)

    def test_fail_fast_exit_drains_the_pool_before_raising(self):
        """Regression: the first failing cell used to surface while the
        sweep's other cells were still running in the persistent pool.
        When the exception reaches the caller the pool must be alive
        and idle."""
        points = [
            SweepPoint(
                "nasa", 100, 1.0, 2, "balancing", 0.3,
                config=SimulationConfig(max_events=1),
            )
        ] + [
            SweepPoint("nasa", 100 + i, 1.0, 2, "balancing", 0.3)
            for i in range(1, 8)
        ]
        with pytest.raises(SimulationError):
            SweepExecutor(workers=2, min_cells_per_worker=0).run(
                points, (0, 1, 2)
            )
        warm = pool_mod.get_warm_pool()
        assert warm.alive
        spawns = warm.spawns
        executor = warm.ensure(2)
        assert warm.spawns == spawns  # same pool, not a respawn
        # Nothing of the failed sweep is queued or running (the pool may
        # not have swept out the cancelled items yet; those are done).
        assert all(
            item.future.done()
            for item in list(executor._pending_work_items.values())
        )
        assert executor.submit(max, 1, 2).result(timeout=30) == 2


class TestAutoSerialCutover:
    """Small sweeps skip the pool: spawn + per-worker warm-up costs more
    than parallelism buys (the committed BENCH_core.json had an 8-point
    sweep *slower* with 2 workers than serial)."""

    def test_small_sweep_runs_in_process(self):
        points, seeds = _parameter_axis_grid()  # 3 cells < 10 * 2
        outcome = SweepExecutor(workers=2).run_outcome(points, seeds)
        assert outcome.stats.mode == "serial"
        sweep_mod._result_cache.clear()
        assert outcome.results == run_sweep(points, seeds, workers=1)

    @needs_fork
    def test_cutover_zero_forces_pool(self):
        points, seeds = _parameter_axis_grid()
        outcome = SweepExecutor(
            workers=2, min_cells_per_worker=0
        ).run_outcome(points, seeds)
        assert outcome.stats.mode == "warm"
        assert outcome.stats.workers_used == 2
        assert outcome.stats.chunk_size == 1

    @needs_fork
    def test_sub_cutover_grid_never_touches_warm_pool(self):
        """The serial cutover must be decided before any pool exists —
        a small grid must not pay a warm-pool spawn."""
        points, seeds = _parameter_axis_grid()  # 3 cells < 10 * 2
        warm = pool_mod.get_warm_pool()
        spawns_before = warm.spawns
        outcome = SweepExecutor(workers=2).run_outcome(points, seeds)
        assert outcome.stats.mode == "serial"
        assert warm.spawns == spawns_before
        assert not warm.alive

    def test_fully_cached_sweep_reports_cached(self):
        points, seeds = _parameter_axis_grid()
        executor = SweepExecutor(workers=1)
        assert executor.run_outcome(points, seeds).stats.mode == "serial"
        assert executor.run_outcome(points, seeds).stats.mode == "cached"

    def test_mode_in_summary_line(self):
        points, seeds = _parameter_axis_grid()
        outcome = SweepExecutor(workers=2).run_outcome(points, seeds)
        assert "mode=serial" in outcome.stats.summary_line()


class TestFallbacksAndGuards:
    def test_no_fork_falls_back_in_process(self, monkeypatch):
        points, seeds = _parameter_axis_grid()
        serial = run_sweep(points, seeds, workers=1)
        sweep_mod._result_cache.clear()
        monkeypatch.setattr(parallel_mod, "fork_available", lambda: False)
        fallback = SweepExecutor(workers=4).run(points, seeds)
        assert fallback == serial

    def test_workers_none_and_one_are_serial(self):
        points, seeds = _parameter_axis_grid()
        a = run_sweep(points, seeds)
        b = run_sweep(points, seeds, workers=1)
        assert a == b

    def test_zero_seeds_rejected(self):
        points, _ = _parameter_axis_grid()
        with pytest.raises(ExperimentError):
            SweepExecutor(workers=2).run(points, ())

    def test_empty_point_list(self):
        assert run_sweep([], (0,), workers=4) == []

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIG_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_FIG_WORKERS", "0")
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_FIG_WORKERS", "many")
        with pytest.raises(ExperimentError):
            default_workers()

    def test_default_workers_leaves_a_core_free(self, monkeypatch):
        monkeypatch.delenv("REPRO_FIG_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_workers() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert default_workers() == 1


@needs_fork
class TestFigureParallelism:
    def test_figure_workers_identical(self, monkeypatch):
        """A scaled-down figure regeneration matches serially."""
        monkeypatch.setenv("REPRO_FIG_JOBS", "20")
        monkeypatch.setenv("REPRO_FIG_SEEDS", "1")
        import repro.experiments.figures as figures

        monkeypatch.setattr(figures, "PAPER_FAILURE_AXIS", (0, 2000))
        parallel = figures.run_figure("fig4", workers=2)
        sweep_mod._result_cache.clear()
        serial = figures.run_figure("fig4", workers=1)
        assert parallel.series.keys() == serial.series.keys()
        for label in serial.series:
            assert parallel.series[label] == serial.series[label]
