"""Directory-backed multi-host backend of the sweep dispatch loop.

The warm pool (:mod:`repro.experiments.pool`) scales a sweep across the
cores of one machine; this module scales it across *machines* that share
nothing but a directory (NFS mount, fuse-mounted object store, plain
disk for same-host tests).  It is a file protocol plus the ``Executor``
that puts it behind ``SweepExecutor._dispatch`` — attempt counting,
backoff, quarantine, respawn, degradation, restore and merge are the
loop's, exactly as for the other two executors.

* **The task record is the call** — ``submit`` files the arguments of
  :func:`~repro.experiments.pool.run_cell` as one :class:`QueueTask`
  (:func:`repro.records.to_plain` of the dataclass, written durably)
  under the cell's :func:`~repro.resilience.cell_key`; a worker decodes
  it and runs the cell through ``run_cell``, the entry point of every
  backend.  A record that does not decode to exactly that dataclass —
  unreadable, garbled, another format — is reported as a failed
  attempt, never half-read.
* **Claim by atomic rename** — a worker claims a task by renaming
  ``tasks/<key>.json`` to ``claims/<key>.json``.  ``os.rename`` is
  atomic on POSIX, so exactly one racer wins; the losers get
  ``FileNotFoundError`` and move on.
* **Deterministic lease expiry** — after winning, the worker rewrites
  the claim in place with a lease (worker id, claim time, deadline).
  A claim past its recorded deadline is lost; a claim whose worker died
  *between rename and lease write* falls back to the file's mtime plus
  the queue's lease.  ``unlink`` is the arbiter — whoever's unlink
  succeeds reports the loss; every other racer gets
  ``FileNotFoundError``.
* **Checkpoints as results** — a completed cell is an ordinary
  :class:`~repro.resilience.CellStore` checkpoint under the queue
  directory, which the driver reads back through the verified ``get``;
  a failed attempt (the cell raised, or its lease expired) is a small
  record in ``failed/`` that the driver consumes and charges.

Layout::

    <queue-dir>/tasks/<key>.json    runnable cells (rename source)
    <queue-dir>/claims/<key>.json   leased cells (rename target)
    <queue-dir>/failed/<key>.json   failed attempts not yet charged
    <queue-dir>/cells/<key>.json    completed cells (ordinary CellStore)

Workers are started with ``bgl-sim sweep-worker --queue-dir <dir>`` (as
many processes, on as many hosts, as the directory is shared with) and
wait for work; ``bgl-sim sweep --queue-dir <dir>`` runs the driver,
which can also spawn same-host workers itself.
"""

from __future__ import annotations

import dataclasses
import math
import os
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.errors import ExperimentError, ResilienceError
from repro.experiments.pool import run_cell
from repro.experiments.sweep import SweepPoint
from repro.failures.synthetic import BurstFailureModel
from repro.obs.log import get_logger
from repro.records import (
    atomic_write_json,
    from_plain,
    read_json,
    record_files,
    to_plain,
)
from repro.resilience import CellStore, cell_key

logger = get_logger(__name__)

#: Default seconds a claim may go without completing before it counts
#: as lost.  Cells are seconds-scale; a minute of grace tolerates slow
#: hosts without stalling recovery for long.
DEFAULT_LEASE_S = 60.0

#: Seconds between looks at the directory (idle workers, the driver's
#: settle thread).
_POLL_S = 0.05


@dataclasses.dataclass(frozen=True)
class Lease:
    """Who holds a claim, and until when."""

    worker: str
    claimed_at: float
    deadline: float


@dataclasses.dataclass(frozen=True)
class QueueTask:
    """One cell as filed in ``tasks/`` and ``claims/``: the arguments of
    its ``run_cell`` call, in order (the driver's master-log size
    travels with the work, so a worker on any host thins from the log
    the driver will verify against), then the lease once claimed."""

    cell_id: tuple[int, int]
    point: SweepPoint
    seed: int
    model: BurstFailureModel
    with_obs: bool
    timeout_s: float | None
    master_failure_count: int
    lease: Lease | None = None

    @property
    def call(self) -> tuple:
        """The ``run_cell`` arguments."""
        return tuple(getattr(self, f.name) for f in dataclasses.fields(self)[:-1])

    @property
    def key(self) -> str:
        """The key the cell is filed and checkpointed under."""
        return cell_key(self.point, self.seed, self.model)


@dataclasses.dataclass(frozen=True)
class FailedAttempt:
    """One ``failed/`` record: the worker-side error of a lost attempt."""

    error_type: str
    error: str


def _lease(claim: Path) -> Lease | None:
    """The lease of one claim; ``None`` when it has none (the worker
    died before writing it) or the record is unreadable."""
    try:
        return from_plain(Lease, read_json(claim)["lease"])
    except (KeyError, TypeError, ValueError):
        return None


class WorkQueue:
    """The file protocol of one shared-directory queue of sweep cells."""

    def __init__(self, root: str | Path, *, lease_s: float | None = None) -> None:
        self.lease_s = DEFAULT_LEASE_S if lease_s is None else lease_s
        if not 0 < self.lease_s < math.inf:
            raise ExperimentError("lease_s must be positive")
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.failed_dir = self.root / "failed"
        try:
            for directory in (self.tasks_dir, self.claims_dir, self.failed_dir):
                directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ResilienceError(
                f"cannot create queue directory {self.root}: {exc}"
            ) from exc
        self.worker_id = f"{socket.gethostname()}-{os.getpid()}"
        self.store = CellStore(self.root)

    # ------------------------------------------------------------------
    # driver side: put / withdraw
    # ------------------------------------------------------------------
    def put(self, task: QueueTask) -> str:
        """Make one cell runnable for a caller about to wait on it;
        returns its key.

        The dispatch loop has already restored every checkpoint it
        trusts, so a same-key checkpoint (corrupt, or ``resume`` off) or
        failure record is stale and dropped first.  A task or claim
        already there — a previous driver's — stays: whoever runs it
        settles this caller too.
        """
        key = task.key
        name = f"{key}.json"
        self.store.path_for(key).unlink(missing_ok=True)
        (self.failed_dir / name).unlink(missing_ok=True)
        # Tasks before claims: a concurrent claim rename moves that way.
        if not ((self.tasks_dir / name).exists() or (self.claims_dir / name).exists()):
            atomic_write_json(self.tasks_dir / name, to_plain(task))
        return key

    def withdraw(self, key: str) -> None:
        """Take back a task nobody waits on any more (a no-op once claimed)."""
        (self.tasks_dir / f"{key}.json").unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # worker side: claim / complete / fail
    # ------------------------------------------------------------------
    def claim(self) -> QueueTask | None:
        """Claim one runnable task, or ``None`` when none is claimable.

        Tasks are attempted in sorted key order (deterministic scan);
        the atomic rename arbitrates racers, and the winner immediately
        rewrites the claim with its lease so expiry is observable by
        key content, not clock guesswork.
        """
        for path in record_files(self.tasks_dir):
            target = self.claims_dir / path.name
            try:
                os.rename(path, target)
            except FileNotFoundError:
                # Another worker renamed it first.
                continue
            except OSError:
                continue
            try:
                task = from_plain(QueueTask, read_json(target))
                if task.key != path.stem:
                    raise ValueError("record is not the cell it is filed under")
            except ValueError as exc:
                # Nobody can run it: surface it as a failed attempt.
                self._lose(target, "GarbledTask", f"task record unusable: {exc}")
                continue
            now = time.time()
            lease = Lease(self.worker_id, now, now + self.lease_s)
            task = dataclasses.replace(task, lease=lease)
            atomic_write_json(target, to_plain(task))
            return task
        return None

    def complete(self, task: QueueTask, report) -> None:
        """Persist the cell's checkpoint, then release the claim.

        Checkpoint-then-unlink ordering means a crash between the two
        leaves a claim whose work is done; reclaim notices the existing
        checkpoint and simply drops the claim.
        """
        self.store.put(
            task.key, report, point_index=task.cell_id[0], seed=task.seed
        )
        (self.claims_dir / f"{task.key}.json").unlink(missing_ok=True)

    def release_duplicate(self, task: QueueTask) -> None:
        """Drop a claim whose cell some other worker already completed."""
        (self.claims_dir / f"{task.key}.json").unlink(missing_ok=True)

    def fail(self, task: QueueTask, exc: BaseException) -> None:
        """Record a failed attempt for the driver to charge."""
        self._lose(self.claims_dir / f"{task.key}.json", type(exc).__name__, str(exc))

    def _lose(self, claim: Path, error_type: str, error: str) -> bool:
        """Give up one claim and say why in ``failed/``.

        ``unlink`` is the arbiter: of the claim's worker and any number
        of lease observers exactly one unlink succeeds, and only that
        caller reports — one lost attempt is charged once.
        """
        try:
            claim.unlink()
        except OSError:
            return False
        atomic_write_json(
            self.failed_dir / claim.name, to_plain(FailedAttempt(error_type, error))
        )
        return True

    # ------------------------------------------------------------------
    # lease expiry
    # ------------------------------------------------------------------
    def _claim_expiry(self, path: Path, lease: Lease | None) -> float:
        """Deterministic expiry instant of one claim.

        The recorded deadline governs; a claim whose worker died between
        the rename and the lease write (or whose record is garbled) has
        no deadline, so the rename's mtime plus the queue lease bounds
        it instead.
        """
        if lease is not None:
            return lease.deadline
        try:
            return path.stat().st_mtime + self.lease_s
        except OSError:
            return float("-inf")  # vanished: treat as expired, unlink loses

    def reclaim_expired(self, now: float | None = None) -> int:
        """Report every claim past its lease as a lost attempt.

        A claim whose checkpoint exists (the worker finished but died
        before dropping it) is just dropped.  Returns how many claims
        this caller reclaimed.
        """
        now = time.time() if now is None else now
        reclaimed = 0
        for path in record_files(self.claims_dir):
            lease = _lease(path)
            if self._claim_expiry(path, lease) > now:
                continue
            if self.store.has(path.stem):
                path.unlink(missing_ok=True)
            elif not self._lose(
                path, "LeaseExpired",
                f"worker {lease and lease.worker} lease expired mid-cell",
            ):
                continue  # the completer or a rival observer won
            reclaimed += 1
        return reclaimed

    def release_claims_of(self, workers: set[str]) -> None:
        """Drop, unreported, the claims leased to ``workers`` — processes
        the caller knows are dead and whose loss it charges itself."""
        for path in record_files(self.claims_dir):
            lease = _lease(path)
            if lease is not None and lease.worker in workers:
                path.unlink(missing_ok=True)

    def counts(self) -> dict[str, int]:
        dirs = (self.tasks_dir, self.claims_dir, self.failed_dir, self.store.cells_dir)
        return {d.name: sum(1 for _ in record_files(d)) for d in dirs}


# ----------------------------------------------------------------------
# worker loop
# ----------------------------------------------------------------------

def run_worker(
    queue_dir: str | Path,
    *,
    lease_s: float | None = None,
    idle_exit_s: float | None = None,
) -> int:
    """Pull-and-run loop of one queue worker; returns cells completed.

    A worker waits for work: an empty directory, or one whose driver is
    sleeping out a backoff, is not a reason to leave.  It exits after
    ``idle_exit_s`` seconds without claimable work when that is given
    (hand-started fleets), otherwise when it is terminated — the driver
    reaps the workers it spawned.
    """
    queue = WorkQueue(queue_dir, lease_s=lease_s)
    completed = 0
    idle_since = time.monotonic()
    logger.info("sweep worker %s polling %s", queue.worker_id, queue.root)
    while True:
        task = queue.claim()
        if task is None:
            if idle_exit_s is not None and time.monotonic() - idle_since >= idle_exit_s:
                break
            time.sleep(_POLL_S)
            continue
        if queue.store.has(task.key):
            queue.release_duplicate(task)
        else:
            try:
                report, _ = run_cell(*task.call)
            except BaseException as exc:
                queue.fail(task, exc)
                if not isinstance(exc, Exception):  # KeyboardInterrupt etc.
                    raise
            else:
                queue.complete(task, report)
                completed += 1
        idle_since = time.monotonic()
    logger.info("sweep worker %s idle; done after %d cells", queue.worker_id, completed)
    return completed


def spawn_worker_process(queue_dir: str | Path, lease_s: float) -> subprocess.Popen:
    """Start one same-host ``sweep-worker`` subprocess via the CLI.

    This is deliberately the same entry a multi-host deployment uses
    (``bgl-sim sweep-worker --queue-dir ...``), so the driver's spawned
    workers and remotely started ones are indistinguishable.
    """
    cmd = [
        sys.executable, "-m", "repro.cli", "sweep-worker",
        "--queue-dir", str(queue_dir), "--lease-s", str(lease_s),
    ]
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(cmd, env=env)


# ----------------------------------------------------------------------
# the executor the dispatch loop submits to
# ----------------------------------------------------------------------

class QueueExecutor(Executor):
    """The queue as the dispatch loop sees it: ``submit`` and a future.

    ``submit`` enqueues the call; a settle thread resolves its future
    from what workers leave in the directory — a checkpoint, read back
    verified, is the result; a ``failed/`` record (the cell raised, or
    its lease expired) is an exception carrying the worker-side error
    type; every locally spawned worker dead with futures outstanding is
    :class:`~concurrent.futures.process.BrokenProcessPool`.  The loop
    answers each as it does for the warm pool, whose ``ensure`` /
    ``mark_broken`` / ``spawns`` / ``mode`` this class mirrors.
    """

    mode = "queue"

    def __init__(
        self,
        queue_dir: str | Path,
        lease_s: float | None = None,
        spawn_workers: bool = True,
    ) -> None:
        self.queue = WorkQueue(queue_dir, lease_s=lease_s)
        self.spawn_workers = spawn_workers
        self.spawns = 0
        # Rebound by the submitting thread only (ensure / mark_broken /
        # shutdown); the settle thread reads whichever list is current.
        self._procs: list[subprocess.Popen] = []
        # Shared with the settle thread: touched under the lock.
        self._pending: dict[str, Future] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        # What a previous run lost is not this run's failed attempt:
        # report it now, before any caller waits on those keys.
        self.queue.reclaim_expired()
        self._thread = threading.Thread(
            target=self._settle_loop, name="queue-settle", daemon=True
        )
        self._thread.start()

    def ensure(self, n_workers: int) -> "QueueExecutor":
        """Self, with ``n_workers`` local workers up (when spawning)."""
        if self.spawn_workers and not self._procs:
            self._procs = [
                spawn_worker_process(self.queue.root, self.queue.lease_s)
                for _ in range(n_workers)
            ]
            self.spawns += 1
        return self

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if fn is not run_cell or kwargs:
            raise ExperimentError("the queue backend runs run_cell calls only")
        future: Future = Future()
        with self._lock:
            self._pending[self.queue.put(QueueTask(*args))] = future
        return future

    def mark_broken(self) -> None:
        """The local fleet died: reap it and free the claims it held, or
        each would cost a second charged attempt and a lease of waiting."""
        self._reap()

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = True) -> None:
        """Stop settling, cancel and withdraw what is still pending,
        reap the spawned workers.  No future is left unsettled."""
        self._stop.set()
        self._thread.join()
        with self._lock:
            for key, future in list(self._pending.items()):
                future.cancel()
                self._settle(key)
        self._reap()

    # ------------------------------------------------------------------
    def _reap(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
        host = socket.gethostname()
        self.queue.release_claims_of({f"{host}-{p.pid}" for p in self._procs})
        self._procs = []

    def _settle(self, key: str, report=None, error: BaseException | None = None):
        """Resolve and forget the pending future of ``key`` (the error
        if given, else the report as ``run_cell`` returns it) and
        withdraw its task; a future cancelled meanwhile is only told so."""
        future = self._pending.pop(key)
        self.queue.withdraw(key)
        if not future.set_running_or_notify_cancel():
            return
        if error is None:
            future.set_result((report, None))
        else:
            future.set_exception(error)

    def _settle_loop(self) -> None:
        while not self._stop.wait(_POLL_S):
            with self._lock:
                try:
                    self._settle_once()
                except Exception as exc:  # never strand the loop's wait()
                    logger.exception("queue settle pass failed")
                    for key in list(self._pending):
                        self._settle(key, error=exc)

    def _settle_once(self) -> None:
        queue, pending = self.queue, self._pending
        queue.reclaim_expired()
        for key in queue.store.keys():
            if key in pending:
                report = queue.store.get(key)
                if report is None:
                    damaged = ResilienceError("worker checkpoint failed verification")
                    self._settle(key, error=damaged)
                else:
                    self._settle(key, report)
        for path in record_files(queue.failed_dir):
            if path.stem in pending:
                try:
                    failed = from_plain(FailedAttempt, read_json(path))
                except ValueError:
                    failed = FailedAttempt("QueueFailure", "unreadable failure record")
                path.unlink(missing_ok=True)
                # The loop quarantines under type(exc).__name__: give it
                # the worker-side name, not a wrapper's.
                error = type(failed.error_type, (ExperimentError,), {})
                self._settle(path.stem, error=error(failed.error))
        if pending and self._procs and all(
            proc.poll() is not None for proc in self._procs
        ):
            broken = BrokenProcessPool("every local sweep-worker died, cells pending")
            for key in list(pending):
                self._settle(key, error=broken)
