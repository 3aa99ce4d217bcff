"""Persistent warm worker pool.

A process pool built per ``run_sweep`` call pays for its spawn, and for
cold input caches in every worker, on every sweep; on small-to-medium
grids that exceeded the parallel win.  This module is the pool backend
of the sweep dispatch loop (:mod:`repro.experiments.parallel`):

* **Warm pool** — one forked :class:`WarmPool` per process lifetime,
  reused across ``run_sweep`` calls (its ``spawns`` vs ``reuses``
  counters tell the story).  A broken pool is respawned on next use;
  an ``atexit`` hook reaps it.
* **Worker-side input caches** — nothing but the cells is shipped.  A
  worker builds a cell's workload and master failure log as the calling
  process and the queue workers do, through the module caches of
  :mod:`repro.experiments.sweep`; the workers build in parallel, and
  because they persist so do their caches: the next sweep over the same
  seeds finds its inputs already there.

:func:`run_cell` is the one entry point that runs a cell, in a worker
or in the calling process; every backend submits one call per cell.

Determinism contract: a cell's inputs are pure functions of ``(point,
seed, model, master-log size)``, so every process regenerates them
bitwise identically; workers run the same :func:`run_cell` the serial
path uses, and the parent reassembles results keyed by cell index — so
warm-pool results remain bitwise identical to serial ones.
"""

from __future__ import annotations

import atexit
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.core.simulator import Simulator
from repro.experiments import sweep as sweep_mod
from repro.failures.synthetic import BurstFailureModel
from repro.obs.aggregate import CellObs
from repro.obs.log import get_logger
from repro.resilience import cell_timeout

logger = get_logger(__name__)

# ----------------------------------------------------------------------
# the entry point that runs cells
# ----------------------------------------------------------------------

def run_cell(
    cell_id: tuple[int, int],
    point: sweep_mod.SweepPoint,
    seed: int,
    model: BurstFailureModel,
    with_obs: bool,
    timeout_s: float | None,
    master_failure_count: int,
):
    """Run one ``(point, seed)`` cell; its ``(report, obs)`` pair.

    ``cell_id`` names the cell (a queue task records it for the
    checkpoint it writes); ``master_failure_count`` is the dispatching
    process's ``sweep.MASTER_FAILURE_COUNT``, which a persistent worker
    forked before a test or bench shrank the constant must follow, as
    must a queue worker started on another host — its caches are keyed
    by the count, so following is all it takes.  The per-cell
    wall-clock timeout lives here so it applies identically in workers
    and in-process.  With ``with_obs`` the second element is the cell's
    picklable observability payload (metrics snapshot, plus the buffered
    trace lines when the point's config traces), else ``None``.
    """
    sweep_mod.MASTER_FAILURE_COUNT = master_failure_count
    with cell_timeout(timeout_s):
        simulator = Simulator(*sweep_mod.cell_inputs(point, seed, model, with_obs))
        report = simulator.run()
    if not with_obs:
        return report, None
    lines = simulator.recorder.lines if simulator.recorder.enabled else None
    return report, CellObs(simulator.metrics.to_dict(), lines)


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------

class WarmPool:
    """A forked process pool that outlives individual ``run_sweep`` calls.

    ``ensure(n)`` returns a live executor with ``n`` workers, spawning
    only when there is none, the size changed, or the previous pool
    broke.  The ``spawns``/``reuses`` counters let tests assert the
    pool genuinely persisted.  ``ensure`` / ``mark_broken`` / ``spawns`` / ``mode`` are
    all the dispatch loop asks of a backend (the queue's has the same).
    """

    #: What ``SweepRunStats.mode`` reports for cells run here.
    mode = "warm"

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self._broken = False
        self.spawns = 0
        self.reuses = 0

    def ensure(self, n_workers: int) -> ProcessPoolExecutor:
        if (
            self._executor is not None
            and not self._broken
            and self._workers == n_workers
        ):
            self.reuses += 1
            return self._executor
        self._shutdown_executor()
        ctx = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
        self._workers = n_workers
        self._broken = False
        self.spawns += 1
        logger.info("warm pool spawned with %d workers", n_workers)
        return self._executor

    def mark_broken(self) -> None:
        """A worker died: the executor is unusable; respawn on next use."""
        self._broken = True
        self._shutdown_executor()

    def _shutdown_executor(self) -> None:
        if self._executor is not None:
            # Cheap even for a broken pool; keeps atexit off stale fds.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def shutdown(self) -> None:
        self._shutdown_executor()
        self._workers = 0
        self._broken = False

    @property
    def alive(self) -> bool:
        return self._executor is not None and not self._broken

    @property
    def workers(self) -> int:
        return self._workers if self._executor is not None else 0


_pool: WarmPool | None = None


def get_warm_pool() -> WarmPool:
    """The process-wide warm pool (created on first use)."""
    global _pool
    if _pool is None:
        _pool = WarmPool()
        atexit.register(_atexit_cleanup)
    return _pool


def shutdown_warm_pool() -> None:
    """Tear down the warm pool (tests, embedders).

    The next parallel sweep simply respawns; safe to call at any time.
    """
    if _pool is not None:
        _pool.shutdown()


def _atexit_cleanup() -> None:  # pragma: no cover - process teardown
    try:
        shutdown_warm_pool()
    except Exception:
        pass


def reset_cell_cost_estimate() -> None:
    """No-op: there is no per-cell cost estimate to forget.

    Every backend runs one cell per task, so nothing sizes tasks from
    measured cost; the name stays for callers that reset sweep state
    between runs (the end-to-end benchmark harness among them).
    """
