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
* **Adaptive chunking** — the measured per-cell cost of previous
  pooled sweeps (an EMA) sizes chunks to a wall-clock target: cheap
  cells get big chunks to amortise IPC, expensive cells get small ones
  to load-balance.

:func:`run_chunk` is the one entry point that runs cells, in a worker
or in the calling process.

Determinism contract: a cell's inputs are pure functions of ``(point,
seed, model, master-log size)``, so every process regenerates them
bitwise identically; workers run the same
:func:`~repro.experiments.sweep.simulate_cell` the serial path uses, and
the parent reassembles results keyed by cell index — so warm-pool
results remain bitwise identical to serial ones.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.experiments import sweep as sweep_mod
from repro.failures.synthetic import BurstFailureModel
from repro.obs.log import get_logger
from repro.resilience import ChaosConfig, cell_timeout, inject_pre_cell

logger = get_logger(__name__)

#: Wall-clock target per warm chunk once a per-cell cost estimate
#: exists: big enough to amortise submit/result IPC, small enough that a
#: straggler chunk cannot idle the other workers for long.
TARGET_CHUNK_S = 0.25

#: Upper bound on chunks per worker: small enough to amortise IPC, large
#: enough to load-balance uneven cell costs.
_CHUNKS_PER_WORKER = 4

#: EMA weight of the newest per-cell cost measurement.
_EMA_ALPHA = 0.5


# ----------------------------------------------------------------------
# the entry point that runs cells
# ----------------------------------------------------------------------

def run_chunk(
    chunk: Sequence[tuple[tuple[int, int], "sweep_mod.SweepPoint", int, int]],
    model: BurstFailureModel,
    with_obs: bool,
    chaos: ChaosConfig | None,
    timeout_s: float | None,
    in_worker: bool,
    master_failure_count: int,
):
    """Run ``(cell_id, point, seed, attempt)`` cells; one ``(report,
    obs)`` pair per cell, in order.

    ``in_worker`` says whether this is a pool or queue worker (chaos
    kills only fire there, never in the calling process);
    ``master_failure_count`` is the dispatching process's
    ``sweep.MASTER_FAILURE_COUNT``, which a persistent worker forked
    before a test or bench shrank the constant must follow, as must a
    queue worker started on another host — its caches are keyed by the
    count, so following is all it takes.  Chaos injection and the
    per-cell wall-clock timeout live here so they apply identically
    either way.  ``with_obs`` adds each cell's picklable observability
    payload.
    """
    sweep_mod.MASTER_FAILURE_COUNT = master_failure_count
    out = []
    for cell_id, point, seed, attempt in chunk:
        with cell_timeout(timeout_s):
            inject_pre_cell(chaos, cell_id, attempt, in_worker=in_worker)
            if with_obs:
                out.append(sweep_mod.simulate_cell_obs(point, seed, model))
            else:
                out.append((sweep_mod.simulate_cell(point, seed, model), None))
    return out


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

#: Parent-process EMA of measured per-cell wall seconds, fed back from
#: each warm sweep; sizes the next sweep's chunks.
_cell_cost_ema_s: float | None = None


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


def observe_cell_cost(per_cell_s: float) -> None:
    """Feed one sweep's measured per-cell wall cost into the EMA."""
    global _cell_cost_ema_s
    if not math.isfinite(per_cell_s) or per_cell_s <= 0:
        return
    if _cell_cost_ema_s is None:
        _cell_cost_ema_s = per_cell_s
    else:
        _cell_cost_ema_s = (
            _EMA_ALPHA * per_cell_s + (1.0 - _EMA_ALPHA) * _cell_cost_ema_s
        )


def cell_cost_estimate_s() -> float | None:
    """Current per-cell cost EMA (``None`` until a warm sweep ran)."""
    return _cell_cost_ema_s


def reset_cell_cost_estimate() -> None:
    """Forget the per-cell cost EMA (tests)."""
    global _cell_cost_ema_s
    _cell_cost_ema_s = None


def adaptive_chunk_size(
    n_cells: int, n_workers: int, per_cell_s: float | None
) -> int:
    """Cells per pooled chunk.

    The load-balance bound (``workers x _CHUNKS_PER_WORKER`` chunks) is
    the ceiling; when a per-cell cost
    estimate exists, chunks shrink toward :data:`TARGET_CHUNK_S` of wall
    time each so expensive cells cannot straggle a whole worker's queue
    behind one chunk.
    """
    balance_bound = max(1, math.ceil(n_cells / (n_workers * _CHUNKS_PER_WORKER)))
    if per_cell_s is None or per_cell_s <= 0:
        return balance_bound
    target = max(1, round(TARGET_CHUNK_S / per_cell_s))
    return max(1, min(balance_bound, target))
