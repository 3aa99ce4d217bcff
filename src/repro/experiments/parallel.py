"""The sweep dispatch loop.

Every paper figure is a grid of independent ``(SweepPoint, seed)``
simulation cells.  :class:`SweepExecutor` runs such a grid through
**one** loop, whatever the options: enumerate the pending cells
seed-major, restore what a :class:`~repro.resilience.CellStore` already
holds, pick a backend, submit one call per cell through the plain
:meth:`concurrent.futures.Executor.submit` protocol, handle each
completed future in one place, and merge the reports in the parent in
serial seed order — so ``run_sweep(points, workers=N)`` is **bitwise
identical** to the serial result however the cells were executed.

Backend (one rule for every sweep, three executors)
    With ``queue_dir``, the **directory queue**
    (:mod:`repro.experiments.queue`, imported only then): ``submit``
    writes the call as a task file for ``bgl-sim sweep-worker``
    processes on any host sharing the directory, and a settle thread
    resolves the futures from what they leave there.  Otherwise
    in-process — a synchronous ``Executor`` whose ``submit`` runs the
    call and returns a resolved future — when ``workers <= 1``, the
    platform lacks ``fork``, at most one cell is left to run, or the
    grid is below the ``min_cells_per_worker`` cutover; else the
    persistent **warm pool** (:mod:`repro.experiments.pool`): workers
    forked once per process lifetime, each building the inputs of the
    cells it is handed — as the in-process backend does — and keeping
    them cached from one sweep to the next.

Resilience (data carried by the loop, not a second path)
    ``checkpoint_dir`` attaches a store: every completed cell is
    persisted atomically and a killed sweep resumes bitwise-identically.
    Without a :class:`~repro.resilience.RetryPolicy` the loop fails
    fast: a cell's own exception propagates unchanged and a dead worker
    raises an error naming every unfinished cell.  With one (any of
    ``checkpoint_dir`` / ``queue_dir`` / ``retry`` implies the default
    policy) a failing cell (it raised, timed out, or its queue
    lease ran out) is resubmitted after a doubling backoff and
    quarantined once its attempts are spent, a broken pool (for the
    queue: every local worker dead) is respawned and its lost cells
    rerun one at a time (a breakage charges an attempt only to a cell
    that was alone in flight), and a pool that keeps breaking is
    swapped for the in-process executor.  The per-cell timeout lives
    inside the one worker entry point
    (:func:`repro.experiments.pool.run_cell`), so it applies identically
    in workers and in-process.

Whichever way the loop is left — done, a cell's exception, a dead
worker, Ctrl-C — futures not yet started are cancelled and running ones
awaited, so no cell of a failed sweep is still occupying the shared
pool (or left runnable in the queue) when the caller sees the error.

Cells are enumerated **seed-major** because the expensive inputs depend
on the seed, not the swept parameter: neighbouring cells hit the input
caches in :mod:`repro.experiments.sweep` of whichever process runs them.
Results are keyed by cell id and re-ordered before averaging, so
neither completion order nor retry order can affect the output.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.experiments import pool as pool_mod
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import (
    Cell,
    SweepPoint,
    SweepResult,
    _result_cache,
    enumerate_cells,
    merge_reports,
    result_cache_key,
)
from repro.failures.synthetic import BurstFailureModel
from repro.metrics.report import SimulationReport
from repro.obs.aggregate import SweepObsCollector
from repro.obs.log import get_logger
from repro.resilience import (
    CellStore,
    Quarantine,
    QuarantineEntry,
    ResilientSweepOutcome,
    RetryPolicy,
    SweepRunStats,
    backoff_s,
    cell_key,
)

logger = get_logger(__name__)

#: Minimum seconds between progress/ETA log lines.
_LOG_INTERVAL_S = 5.0


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """Worker count for figure regeneration.

    ``REPRO_FIG_WORKERS`` wins when set; otherwise all cores but one so
    the parent (and the user's terminal) stay responsive.
    """
    env = os.environ.get("REPRO_FIG_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ExperimentError(
                f"REPRO_FIG_WORKERS must be an integer, got {env!r}"
            ) from None
    return max(1, (os.cpu_count() or 2) - 1)


class _InProcessExecutor(Executor):
    """Runs each call synchronously and returns its resolved future.

    What lets in-process execution share the dispatch loop with the
    pool.  Only ``Exception`` is captured: an interrupt propagates out
    of ``submit`` at once, as it would out of a plain loop.
    """

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@dataclass
class SweepExecutor:
    """Runs the cells of a sweep through the one dispatch loop.

    Parameters
    ----------
    workers:
        Pool size; ``None`` resolves via :func:`default_workers`.
    checkpoint_dir:
        Persist every completed cell into a
        :class:`~repro.resilience.CellStore` rooted here; with
        ``resume`` (default), already-stored cells are restored instead
        of recomputed.
    retry:
        :class:`~repro.resilience.RetryPolicy` for crashed/raising
        cells; a run with ``checkpoint_dir`` or ``queue_dir`` but no
        policy uses the defaults, a run with none of the three fails
        fast.
    resume:
        Whether to trust existing checkpoint cells (verified reads) or
        recompute everything while still writing checkpoints.
    min_cells_per_worker:
        Parallel cutover: a sweep with fewer than
        ``min_cells_per_worker * workers`` cells left to run executes
        in-process even when workers were requested — pool spawn plus
        per-worker table warm-up costs more than it buys on small grids
        (BENCH_core.json had an 8-point sweep *slower* with 2 workers
        than serial).  Set to 0 to force the pool whenever workers > 1.
        The cutover is decided *before* any pool exists, so sub-cutover
        grids never spin up (or touch) the warm pool.
    queue_dir / lease_s / spawn_workers:
        Run the cells through the shared-directory queue rooted here
        (:mod:`repro.experiments.queue`), which is then the checkpoint
        store too (no ``checkpoint_dir`` beside it, and no ``collector``:
        workers' observability is not shipped back).  ``workers`` local
        ``sweep-worker`` processes are spawned unless ``spawn_workers``
        is off; a claimed cell not completed within ``lease_s`` seconds
        (``None``: the queue's default) counts as a failed attempt.
        ``lease_s`` or ``spawn_workers=False`` without ``queue_dir`` is
        refused, as is ``checkpoint_dir`` with it.
    sleep:
        Backoff clock, injectable so tests can fake it.
    """

    workers: int | None = None
    checkpoint_dir: str | Path | None = None
    retry: RetryPolicy | None = None
    resume: bool = True
    min_cells_per_worker: int = 10
    queue_dir: str | Path | None = None
    lease_s: float | None = None
    spawn_workers: bool = True
    sleep: Callable[[float], None] = field(default=time.sleep)

    @property
    def resilient(self) -> bool:
        """Whether any resilience option is set: the run then retries
        and quarantines instead of failing fast, and bypasses the
        in-memory result memo."""
        return (
            self.checkpoint_dir is not None
            or self.queue_dir is not None
            or self.retry is not None
        )

    # ------------------------------------------------------------------
    def run(
        self,
        points: Sequence[SweepPoint],
        seeds: Sequence[int],
        failure_model: BurstFailureModel | None = None,
        collector: SweepObsCollector | None = None,
    ) -> list[SweepResult]:
        """Run every cell of a sweep; order and values match serial.

        Thin wrapper over :meth:`run_outcome` for callers that only want
        the results (entries are ``None`` only for points whose every
        seed was quarantined, which requires resilience options on).
        """
        return self.run_outcome(points, seeds, failure_model, collector).results

    def run_outcome(
        self,
        points: Sequence[SweepPoint],
        seeds: Sequence[int],
        failure_model: BurstFailureModel | None = None,
        collector: SweepObsCollector | None = None,
    ) -> ResilientSweepOutcome:
        """Run every cell of a sweep and report what resilience did.

        An observability ``collector`` disables the result-cache
        shortcut (cached results carry no metrics or trace) and receives
        every computed cell's payload; it merges in sorted cell id
        order, so aggregated metrics are independent of completion
        order.  Cells restored from a checkpoint contribute no
        metrics/trace (they were not executed).
        """
        model = failure_model or BurstFailureModel()
        seeds = tuple(seeds)
        if not seeds:
            raise ExperimentError("cannot run a sweep across zero seeds")
        if self.queue_dir is None:
            if self.lease_s is not None or not self.spawn_workers:
                raise ExperimentError("lease_s and spawn_workers=False need queue_dir")
        elif self.checkpoint_dir is not None:
            raise ExperimentError("queue_dir is the checkpoint_dir too: pass one")
        elif collector is not None:
            raise ExperimentError(
                "observability collectors are not supported on the queue backend"
            )
        n_workers = self.workers if self.workers is not None else default_workers()
        stats = SweepRunStats()

        results: list[SweepResult | None] = [None] * len(points)
        pending: list[int] = []
        for i, point in enumerate(points):
            # The in-memory memo is bypassed on resilient runs: it
            # cannot say which cells are durably checkpointed, and a
            # resumable sweep must leave a complete on-disk record.
            cached = (
                _result_cache.get(result_cache_key(point, seeds, model))
                if collector is None and not self.resilient
                else None
            )
            if cached is not None:
                results[i] = cached
            else:
                pending.append(i)
        cells = enumerate_cells(points, pending, seeds)

        store = None
        if self.queue_dir is not None:
            from repro.experiments.queue import WorkQueue

            # Refuses a bad lease before anything is created on disk.
            store = WorkQueue(self.queue_dir, lease_s=self.lease_s).store
        elif self.checkpoint_dir is not None:
            store = CellStore(self.checkpoint_dir)
        keys: dict[tuple[int, int], str] = {}
        reports: dict[tuple[int, int], SimulationReport] = {}
        if store is not None:
            for cell_id, point, seed in cells:
                keys[cell_id] = cell_key(point, seed, model)
                restored = store.get(keys[cell_id]) if self.resume else None
                if restored is not None:
                    reports[cell_id] = restored
            if reports:
                logger.info(
                    "checkpoint resume: restored %d/%d cells from %s "
                    "(restored cells are not executed and contribute no "
                    "metrics/trace)",
                    len(reports),
                    len(cells),
                    store.root,
                )

        quarantine = Quarantine()
        remaining = [cell for cell in cells if cell[0] not in reports]
        if remaining:
            self._dispatch(
                remaining, model, n_workers, collector, store, keys, stats,
                quarantine, reports,
            )
        else:
            stats.mode = "cached"

        if store is not None:
            stats.checkpoint_hits = store.hits
            stats.checkpoint_misses = store.misses
            stats.checkpoint_corrupt = store.corrupt
            quarantine.write(store.quarantine_path)
        for i, result in zip(
            pending, merge_reports(points, pending, seeds, model, reports)
        ):
            results[i] = result
        stats.quarantined = len(quarantine)
        if quarantine:
            logger.warning(
                "sweep finished with %d quarantined cells: %s",
                len(quarantine),
                sorted(quarantine.cells()),
            )
        return ResilientSweepOutcome(results, tuple(quarantine.entries), stats)

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        cells: list[Cell],
        model: BurstFailureModel,
        n_workers: int,
        collector: SweepObsCollector | None,
        store: CellStore | None,
        keys: dict[tuple[int, int], str],
        stats: SweepRunStats,
        quarantine: Quarantine,
        reports: dict[tuple[int, int], SimulationReport],
    ) -> None:
        """Run ``cells`` to completion (or quarantine), filling ``reports``."""
        n_cells = len(cells)
        policy = (self.retry or RetryPolicy()) if self.resilient else None
        inprocess = _InProcessExecutor()
        executor: Executor = inprocess
        backend = None
        # The backend is chosen here, before any pool is touched: a
        # sub-cutover grid must never pay a warm-pool spawn.
        if self.queue_dir is not None:
            from repro.experiments.queue import QueueExecutor

            backend = QueueExecutor(self.queue_dir, self.lease_s, self.spawn_workers)
        elif n_workers <= 1 or n_cells <= 1:
            pass  # nothing to fan out
        elif not fork_available():
            logger.info(
                "platform lacks fork start method; running %d cells "
                "in-process",
                n_cells,
            )
        elif n_cells < self.min_cells_per_worker * n_workers:
            logger.info(
                "%d cells is below the parallel cutover "
                "(min_cells_per_worker=%d x %d workers); running in-process",
                n_cells,
                self.min_cells_per_worker,
                n_workers,
            )
        else:
            backend = pool_mod.get_warm_pool()
        if backend is not None:
            spawns_before = backend.spawns
            executor = backend.ensure(n_workers)
            stats.pool_reused = backend.spawns == spawns_before
        pooled = executor is not inprocess
        stats.mode = backend.mode if pooled else "serial"
        stats.workers_used = n_workers if pooled else 1
        # One cell per task on every backend, so a failure names its cell.
        stats.chunk_size = 1
        logger.info(
            "sweep mode: %s — %d cells over %d workers",
            stats.mode,
            n_cells,
            stats.workers_used,
        )

        backlog = deque(cells)
        attempts = {cell[0]: 0 for cell in cells}
        with_obs = collector is not None
        timeout_s = policy.cell_timeout_s if policy else None
        in_flight: dict[Future, Cell] = {}
        # Cells a broken pool lost run one at a time until they settle,
        # so the next breakage names its cell.
        suspects: set[tuple[int, int]] = set()
        started = last_log = time.monotonic()
        try:
            while backlog or in_flight:
                if backlog and not (suspects and in_flight):
                    cell = backlog.popleft()
                    try:
                        future = executor.submit(
                            pool_mod.run_cell,
                            *cell,
                            model,
                            with_obs,
                            timeout_s,
                            sweep_mod.MASTER_FAILURE_COUNT,
                        )
                    except BrokenProcessPool as exc:
                        future = Future()
                        future.set_exception(exc)
                    in_flight[future] = cell
                # Harvest without blocking while there is more to
                # submit, so checkpoints land as cells finish.
                done, _ = wait(
                    in_flight,
                    timeout=0 if backlog and not suspects else None,
                    return_when=FIRST_COMPLETED,
                )
                # Successes first: a dying pool resolves all its futures
                # at once, and cells that did finish must not be charged
                # as lost with it.
                for future in sorted(done, key=lambda f: f.exception() is not None):
                    if future not in in_flight:
                        continue  # lost with the pool; already requeued
                    cell = in_flight.pop(future)
                    suspects.discard(cell[0])
                    try:
                        report, obs = future.result()
                    except BrokenProcessPool as exc:
                        lost = [cell, *in_flight.values()]
                        in_flight.clear()
                        backend.mark_broken()
                        if policy is None:
                            raise _broken_pool_error(cells, reports) from exc
                        stats.pool_rebuilds += 1
                        # Only a cell alone in flight is charged: with
                        # company, nothing says which cell killed the
                        # worker, and they rerun one at a time to find out.
                        # The respawn's backoff below is its wait.
                        crash = ExperimentError(
                            "worker process died while this cell was in "
                            "flight (pool breakage)"
                        )
                        if len(lost) == 1 and self._charge(
                            cell, crash, attempts, policy, quarantine, keys
                        ):
                            lost = []
                        stats.resubmits += len(lost)
                        suspects.update(lost_cell[0] for lost_cell in lost)
                        backlog.extendleft(reversed(lost))
                        if not backlog:
                            continue
                        if stats.pool_rebuilds > policy.max_pool_rebuilds:
                            stats.degraded = True
                            logger.warning(
                                "worker pool broke %d times (> max_pool_rebuilds="
                                "%d); degrading the %d cells left to in-process "
                                "execution",
                                stats.pool_rebuilds,
                                policy.max_pool_rebuilds,
                                len(backlog),
                            )
                            executor = inprocess
                        else:
                            logger.warning(
                                "worker pool broke (respawn %d/%d); %d cells "
                                "left to run",
                                stats.pool_rebuilds,
                                policy.max_pool_rebuilds,
                                len(backlog),
                            )
                            self.sleep(backoff_s(stats.pool_rebuilds))
                            executor = backend.ensure(n_workers)
                    except Exception as exc:
                        if policy is None:
                            raise
                        if not self._charge(
                            cell, exc, attempts, policy, quarantine, keys
                        ):
                            self.sleep(backoff_s(attempts[cell[0]]))
                            stats.retries += 1
                            backlog.appendleft(cell)
                    else:
                        cell_id, _, seed = cell
                        reports[cell_id] = report
                        if obs is not None:
                            collector.add_cell(*cell_id, obs)
                        stats.cells_computed += 1
                        # A queue worker checkpointed its cell before the
                        # future settled; only cells run here need a put.
                        if store is not None and (
                            self.queue_dir is None or executor is inprocess
                        ):
                            store.put(
                                keys[cell_id], report,
                                point_index=cell_id[0], seed=seed,
                            )
                now = time.monotonic()
                if now - last_log >= _LOG_INTERVAL_S and stats.cells_computed:
                    last_log = now
                    rate = stats.cells_computed / (now - started)
                    logger.info(
                        "sweep progress: %d/%d cells (%.2f cells/s, ETA %.0fs)",
                        stats.cells_computed,
                        n_cells,
                        rate,
                        (n_cells - stats.cells_computed) / rate,
                    )
        finally:
            # However the loop was left, no cell of this sweep may
            # outlive it in the shared pool: cancel what has not
            # started, wait for what has.  The queue's workers and
            # settle thread are this sweep's own and go with it.
            if self.queue_dir is not None:
                backend.shutdown()
            for future in in_flight:
                future.cancel()
            wait(in_flight)
        elapsed = time.monotonic() - started
        logger.info(
            "sweep complete: %d cells in %.1fs (%.2f cells/s); %s",
            n_cells,
            elapsed,
            n_cells / elapsed if elapsed > 0 else float("inf"),
            stats.summary_line(),
        )

    def _charge(
        self,
        cell: Cell,
        exc: BaseException,
        attempts: dict[tuple[int, int], int],
        policy: RetryPolicy,
        quarantine: Quarantine,
        keys: dict[tuple[int, int], str],
    ) -> bool:
        """Charge ``cell`` one failed attempt; True when that spent its
        attempts and quarantined it.  The caller waits any backoff."""
        cell_id, _, seed = cell
        attempts[cell_id] += 1
        attempts_done = attempts[cell_id]
        if attempts_done >= policy.max_attempts:
            quarantine.add(
                QuarantineEntry(
                    point_index=cell_id[0],
                    seed_index=cell_id[1],
                    seed=seed,
                    attempts=attempts_done,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    key=keys.get(cell_id),
                )
            )
            logger.warning(
                "quarantining poison cell (point %d, seed#%d) after %d "
                "attempts: %s: %s",
                cell_id[0],
                cell_id[1],
                attempts_done,
                type(exc).__name__,
                exc,
            )
            return True
        logger.warning(
            "cell (point %d, seed#%d) failed attempt %d/%d (%s: %s); retrying",
            cell_id[0],
            cell_id[1],
            attempts_done,
            policy.max_attempts,
            type(exc).__name__,
            exc,
        )
        return False


def _broken_pool_error(
    cells: list[Cell], reports: dict[tuple[int, int], SimulationReport]
) -> ExperimentError:
    """The fail-fast error for a dead worker, naming every unfinished cell."""
    unfinished = sorted(
        cell_id for cell_id, _, _ in cells if cell_id not in reports
    )
    shown = ", ".join(f"(point {pi}, seed#{si})" for pi, si in unfinished[:8])
    if len(unfinished) > 8:
        shown += f", ... {len(unfinished) - 8} more"
    return ExperimentError(
        f"sweep worker process died before finishing its cells (killed or "
        f"crashed); {len(cells) - len(unfinished)}/{len(cells)} cells "
        f"completed; unfinished after 1 attempt: {shown}; the warm pool will "
        f"respawn on the next sweep; pass retry=RetryPolicy(...) to "
        f"run_sweep for automatic resubmission, or rerun with workers=1 to "
        f"isolate"
    )
