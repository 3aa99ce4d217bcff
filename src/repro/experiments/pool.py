"""Persistent warm worker pool with shared-memory payload shipping.

A process pool built per ``run_sweep`` call pays three taxes every
time: pool spawn, per-worker regeneration of the expensive per-seed
inputs (workload draw, master failure log), and re-pickling of those
inputs' derivatives with every chunk.  On small-to-medium grids those
taxes exceeded the parallel win.  This module is the pool backend of
the sweep dispatch loop (:mod:`repro.experiments.parallel`) and removes
all three:

* **Warm pool** — one forked :class:`WarmPool` per process lifetime,
  reused across ``run_sweep`` calls (``pool.warm.spawn`` vs
  ``pool.warm.reuse`` counters tell the story).  A broken pool is
  respawned on next use; an ``atexit`` hook reaps it.
* **Shared-memory arenas** — the parent builds each seed's workload and
  master failure log exactly once, pickles them once into a
  :class:`SharedArena` (``multiprocessing.shared_memory``, falling back
  to a memory-mapped temp file where POSIX shared memory is
  unavailable), and ships only the tiny :class:`ArenaHandle` with each
  chunk.  Workers attach, install the entries straight into the
  module-level caches in :mod:`repro.experiments.sweep`, and from then
  on every cell of that seed is a cache hit — a serialized-once,
  attach-many protocol.  Arenas are built *per seed group* and chunks
  are submitted as soon as their seed's arena exists, so input
  generation for seed *k+1* overlaps cell execution for seed *k*.
* **Adaptive chunking** — the measured per-cell cost of previous
  pooled sweeps (an EMA) sizes chunks to a wall-clock target: cheap
  cells get big chunks to amortise IPC, expensive cells get small ones
  to load-balance.

:func:`run_chunk` is the one entry point that runs cells, in a worker
or in the calling process.

Determinism contract: workers run the exact objects the parent built
(the arena *is* the parent's cache image), through the same
:func:`~repro.experiments.sweep.simulate_cell` the serial path uses, and
the parent reassembles results keyed by cell index — so warm-pool
results remain bitwise identical to serial ones.
"""

from __future__ import annotations

import atexit
import math
import mmap
import multiprocessing
import os
import pickle
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Sequence

from repro.errors import ExperimentError, ReproError
from repro.experiments import sweep as sweep_mod
from repro.failures.synthetic import BurstFailureModel
from repro.obs.log import get_logger
from repro.obs.metrics import count_active
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

#: Worker-side cache entries kept before the sweep caches are cleared on
#: the next arena install — bounds memory in long-lived warm workers.
_MAX_WORKER_CACHE_ENTRIES = 64


# ----------------------------------------------------------------------
# shared-memory arena: serialized once, attached many times
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArenaHandle:
    """Picklable reference to one arena; tiny, shipped with every chunk.

    ``generation`` is unique per arena within the parent process, so a
    worker can recognise an arena it has already installed and skip the
    attach entirely.
    """

    backend: str  # "shm" | "file"
    name: str     # shared-memory segment name or file path
    size: int
    generation: int


class SharedArena:
    """One write-once blob shared with every pool worker.

    Backend ``"shm"`` uses ``multiprocessing.shared_memory`` (pure
    memory, no disk); backend ``"file"`` memory-maps a temp file —
    functionally identical (the page cache is shared across attaches)
    and available on platforms without POSIX shared memory.  Creation
    falls back from shm to file automatically.
    """

    def __init__(self, payload: bytes, generation: int, backend: str | None = None):
        backend = backend or os.environ.get("REPRO_ARENA_BACKEND") or "shm"
        self._shm = None
        self._path = None
        if backend == "shm":
            try:
                from multiprocessing import shared_memory

                self._shm = shared_memory.SharedMemory(
                    create=True, size=max(1, len(payload))
                )
                self._shm.buf[: len(payload)] = payload
                name = self._shm.name
            except (ImportError, OSError) as exc:
                logger.info(
                    "shared_memory unavailable (%s); falling back to "
                    "memory-mapped file arena",
                    exc,
                )
                backend = "file"
        if backend == "file":
            fd, path = tempfile.mkstemp(prefix="repro-arena-", suffix=".bin")
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            self._path = path
            name = path
        elif backend != "shm":
            raise ExperimentError(f"unknown arena backend {backend!r}")
        self.handle = ArenaHandle(
            backend=backend, name=name, size=len(payload), generation=generation
        )
        count_active("pool.warm.arena.created")
        count_active("pool.warm.arena.bytes", len(payload))
        _live_arenas.add(self)

    def unlink(self) -> None:
        """Release the arena; safe to call more than once.

        Must only run after every future that references the handle has
        completed — a worker cannot attach an unlinked arena.
        """
        _live_arenas.discard(self)
        if self._shm is not None:
            try:
                self._shm.close()
                self._shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass
            self._shm = None
        if self._path is not None:
            try:
                os.unlink(self._path)
            except OSError:  # pragma: no cover
                pass
            self._path = None


#: Arenas not yet unlinked, reaped by the atexit hook if a sweep dies
#: between creation and its ``finally`` cleanup.
_live_arenas: set[SharedArena] = set()


def _read_arena(handle: ArenaHandle) -> bytes:
    """Worker-side attach-and-copy of an arena's payload."""
    if handle.backend == "shm":
        from multiprocessing import shared_memory

        # Attaching re-registers the segment with the resource tracker,
        # but forked workers share the parent's tracker process and
        # registration is idempotent there, so the parent's unlink()
        # remains the single deregistration.  (Python 3.13's
        # ``track=False`` makes this explicit; under fork the shared
        # tracker already gives the same behaviour.)
        shm = shared_memory.SharedMemory(name=handle.name, create=False)
        try:
            return bytes(shm.buf[: handle.size])
        finally:
            shm.close()
    if handle.backend == "file":
        with open(handle.name, "rb") as fh:
            if handle.size == 0:
                return b""
            with mmap.mmap(fh.fileno(), handle.size, access=mmap.ACCESS_READ) as mapped:
                return bytes(mapped[: handle.size])
    raise ExperimentError(f"unknown arena backend {handle.backend!r}")


# ----------------------------------------------------------------------
# the entry point that runs cells
# ----------------------------------------------------------------------

#: Generations this worker process has already installed.
_installed_generations: set[int] = set()


def _install_arena(handle: ArenaHandle) -> None:
    """Attach one arena and prime the sweep caches from it (idempotent).

    The arena is literally a pre-warmed image of the parent's
    workload/master-log caches, so after installation every cell of the
    shipped seed group hits the same objects the serial path would have
    built — the root of the bitwise-identity guarantee.
    """
    if handle.generation in _installed_generations:
        return
    tables = pickle.loads(_read_arena(handle))
    # The master-log guard in _failures_for compares against this
    # module constant; keep the worker consistent with the parent that
    # generated the shipped logs.
    sweep_mod.MASTER_FAILURE_COUNT = tables["master_failure_count"]
    if (
        len(sweep_mod._workload_cache) > _MAX_WORKER_CACHE_ENTRIES
        or len(sweep_mod._master_log_cache) > _MAX_WORKER_CACHE_ENTRIES
    ):
        sweep_mod._workload_cache.clear()
        sweep_mod._master_log_cache.clear()
    sweep_mod._workload_cache.update(tables["workloads"])
    sweep_mod._master_log_cache.update(tables["masters"])
    _installed_generations.add(handle.generation)
    count_active("pool.warm.arena.installs")


def run_chunk(
    handle: ArenaHandle | None,
    chunk: Sequence[tuple[tuple[int, int], "sweep_mod.SweepPoint", int, int]],
    model: BurstFailureModel,
    with_obs: bool,
    chaos: ChaosConfig | None,
    timeout_s: float | None,
):
    """Run ``(cell_id, point, seed, attempt)`` cells; one ``(report,
    obs)`` pair per cell, in order.

    A pool worker is handed the arena its cells' inputs ship in; the
    calling process itself is not (``handle`` is ``None``: its caches
    are the ones the arena would have been built from), and chaos kills
    only fire in the former.  Chaos injection and the per-cell
    wall-clock timeout live here so they apply identically either way.
    ``with_obs`` adds each cell's picklable observability payload.
    """
    if handle is not None:
        _install_arena(handle)
    out = []
    for cell_id, point, seed, attempt in chunk:
        with cell_timeout(timeout_s):
            inject_pre_cell(chaos, cell_id, attempt, in_worker=handle is not None)
            if with_obs:
                out.append(sweep_mod.simulate_cell_obs(point, seed, model))
            else:
                out.append((sweep_mod.simulate_cell(point, seed, model), None))
    return out


# ----------------------------------------------------------------------
# parent-side arena construction
# ----------------------------------------------------------------------

def build_seed_arena(
    points: Sequence["sweep_mod.SweepPoint"],
    pending: Sequence[int],
    seed: int,
    model: BurstFailureModel,
    generation: int,
    shipped: set,
) -> SharedArena:
    """Build (or reuse from cache) one seed group's inputs and arena.

    Generates every distinct workload and master failure log the group's
    cells need — through the exact cache-filling functions the serial
    path uses, so the parent's own caches warm as a side effect — then
    snapshots only the entries not already shipped to the pool in a
    previous arena of this sweep (``shipped`` accumulates across calls).
    """
    workloads = {}
    masters = {}
    for i in pending:
        point = points[i]
        wkey = sweep_mod.workload_cache_key(point, seed)
        try:
            workload = sweep_mod._workload_for(point, seed)
            mkey = sweep_mod.master_log_cache_key(point, workload, seed, model)
            sweep_mod._failures_for(point, workload, seed, model)
        except ReproError:
            # Ship nothing for a point whose inputs cannot be built: its
            # cells raise the same error where it is attributable to
            # them (and retried or quarantined under a policy).
            continue
        if wkey not in shipped:
            workloads[wkey] = workload
            shipped.add(wkey)
        if mkey not in shipped:
            masters[mkey] = sweep_mod._master_log_cache[mkey]
            shipped.add(mkey)
    payload = pickle.dumps(
        {
            "master_failure_count": sweep_mod.MASTER_FAILURE_COUNT,
            "workloads": workloads,
            "masters": masters,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return SharedArena(payload, generation)


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------

class WarmPool:
    """A forked process pool that outlives individual ``run_sweep`` calls.

    ``ensure(n)`` returns a live executor with ``n`` workers, spawning
    only when there is none, the size changed, or the previous pool
    broke.  ``spawns``/``reuses`` counters (also exported through
    ``pool.warm.*`` metrics) let tests assert the pool genuinely
    persisted.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0
        self._generation = 0
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
            count_active("pool.warm.reuse")
            return self._executor
        self._shutdown_executor()
        # Workers must fork from a process whose resource tracker is
        # already running, so they share it (as the arena attach in
        # _read_arena assumes); a worker forked earlier would start a
        # private tracker on its first attach, which outlives the pool
        # and reports the parent's unlinked segments as leaked.
        resource_tracker.ensure_running()
        ctx = multiprocessing.get_context("fork")
        self._executor = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
        self._workers = n_workers
        self._broken = False
        self.spawns += 1
        count_active("pool.warm.spawn")
        logger.info("warm pool spawned with %d workers", n_workers)
        return self._executor

    def next_generation(self) -> int:
        self._generation += 1
        return self._generation

    def mark_broken(self) -> None:
        """A worker died: the executor is unusable; respawn on next use."""
        self._broken = True
        count_active("pool.warm.broken")
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
    """Tear down the warm pool and any leaked arenas (tests, embedders).

    The next parallel sweep simply respawns; safe to call at any time.
    """
    global _pool
    if _pool is not None:
        _pool.shutdown()
    for arena in list(_live_arenas):
        arena.unlink()


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
