"""Directory-backed multi-host work queue for sweep cells.

The warm pool (:mod:`repro.experiments.pool`) scales a sweep across the
cores of one machine; this module scales it across *machines* that share
nothing but a directory (NFS mount, fuse-mounted object store, plain
disk for same-host tests).  The design leans entirely on properties the
resilience layer already guarantees:

* **Content-addressed tasks** — every ``(point, seed)`` cell is
  enqueued under its :func:`~repro.resilience.cell_key` SHA-256, the
  same key its checkpoint will use, so "is this cell done?" is a file
  existence probe and duplicate execution is *harmless by construction*:
  a second worker computing the same cell atomically writes the same
  bytes to the same checkpoint path.
* **Claim by atomic rename** — a worker claims a task by renaming
  ``tasks/<key>.json`` to ``claims/<key>.json``.  ``os.rename`` is
  atomic on POSIX, so exactly one racer wins; the losers get
  ``FileNotFoundError`` and move on.
* **Deterministic lease expiry** — after winning, the worker rewrites
  the claim in place with a lease (worker id, claim time, deadline).
  Any observer reclaims a claim past its recorded deadline; a claim
  whose worker died *between rename and lease write* falls back to the
  file's mtime plus the queue's lease.  Reclaim uses ``unlink`` as the
  arbiter — whoever's unlink succeeds re-enqueues (attempt + 1) or
  dead-letters; every other racer gets ``FileNotFoundError``.
* **Checkpoints as results** — a completed cell is an ordinary
  :class:`~repro.resilience.CellStore` checkpoint under the queue
  directory, so the driver's merge is exactly the resume path: verified
  reads, bitwise-identical aggregation against the *original* in-memory
  points.

Layout::

    <queue-dir>/tasks/<key>.json    runnable cells (rename source)
    <queue-dir>/claims/<key>.json   leased cells (rename target)
    <queue-dir>/dead/<key>.json     cells that exhausted their attempts
    <queue-dir>/cells/<key>.json    completed cells (ordinary CellStore)

Workers are started with ``bgl-sim sweep-worker --queue-dir <dir>`` (as
many processes, on as many hosts, as the directory is shared with);
``bgl-sim sweep --backend queue`` runs the driver, which can also spawn
same-host workers itself.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ExperimentError, ResilienceError
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import (
    SweepPoint,
    enumerate_cells,
    merge_reports,
    simulate_cell,
)
from repro.failures.synthetic import BurstFailureModel
from repro.obs.log import get_logger
from repro.obs.metrics import count_active
from repro.resilience import (
    CellStore,
    QuarantineEntry,
    ResilientSweepOutcome,
    SweepRunStats,
    cell_key,
)
from repro.resilience.store import (
    describe_model,
    describe_point,
    model_from_dict,
    point_from_dict,
)

logger = get_logger(__name__)

#: Default seconds a claim may go without completing before any
#: observer may reclaim it.  Cells are seconds-scale; a minute of grace
#: tolerates slow hosts without stalling recovery for long.
DEFAULT_LEASE_S = 60.0

#: Attempts (initial + re-enqueues) before a cell is dead-lettered.
DEFAULT_MAX_ATTEMPTS = 3

_TMP_PREFIX = ".tmp-"


@dataclass(frozen=True)
class QueueTask:
    """One claimed (or inspectable) cell of queued work."""

    key: str
    point_index: int
    seed_index: int
    seed: int
    attempt: int
    record: dict[str, Any]

    def point(self) -> SweepPoint:
        return point_from_dict(self.record["point"])

    def model(self) -> BurstFailureModel:
        return model_from_dict(self.record["model"])


def _write_record(directory: Path, key: str, record: dict[str, Any]) -> Path:
    """Atomically write one task/claim/dead record."""
    path = directory / f"{key}.json"
    tmp = directory / f"{_TMP_PREFIX}{key}-{os.getpid()}.json"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _read_record(path: Path) -> dict[str, Any] | None:
    """Read one record; ``None`` when it vanished or is unparseable yet.

    A reader can race a writer's ``os.replace`` (seeing the old complete
    file) but never sees a partial file; a genuinely garbled record is
    surfaced to the caller as ``None`` and handled like a lost race.
    """
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None


class WorkQueue:
    """One shared-directory work queue of sweep cells."""

    def __init__(
        self,
        root: str | Path,
        *,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        worker_id: str | None = None,
    ) -> None:
        if lease_s <= 0:
            raise ExperimentError("lease_s must be positive")
        if max_attempts < 1:
            raise ExperimentError("max_attempts must be >= 1")
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.dead_dir = self.root / "dead"
        try:
            for directory in (self.tasks_dir, self.claims_dir, self.dead_dir):
                directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ResilienceError(
                f"cannot create queue directory {self.root}: {exc}"
            ) from exc
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.store = CellStore(self.root)

    # ------------------------------------------------------------------
    # enqueue
    # ------------------------------------------------------------------
    def enqueue(
        self,
        points: Sequence[SweepPoint],
        seeds: Sequence[int],
        model: BurstFailureModel,
    ) -> list[str]:
        """Enqueue every cell of a grid that is not already accounted for.

        Idempotent: cells with an existing checkpoint, task, claim or
        dead-letter are skipped, so re-running a driver against a
        half-finished queue directory resumes instead of duplicating.
        Returns the keys actually enqueued.
        """
        enqueued: list[str] = []
        for (i, si), point, seed in enumerate_cells(
            points, range(len(points)), seeds
        ):
            key = cell_key(point, seed, model)
            if (
                self.store.has(key)
                or (self.tasks_dir / f"{key}.json").exists()
                or (self.claims_dir / f"{key}.json").exists()
                or (self.dead_dir / f"{key}.json").exists()
            ):
                continue
            _write_record(
                self.tasks_dir,
                key,
                {
                    "key": key,
                    "point_index": i,
                    "seed_index": si,
                    "seed": seed,
                    "attempt": 1,
                    "point": describe_point(point),
                    "model": describe_model(model),
                    # The driver's master-log size travels with the
                    # work, so a worker on any host thins from the log
                    # the driver will verify against.
                    "master_failure_count": sweep_mod.MASTER_FAILURE_COUNT,
                },
            )
            enqueued.append(key)
            count_active("queue.task.enqueued")
        return enqueued

    # ------------------------------------------------------------------
    # claim / complete / fail
    # ------------------------------------------------------------------
    def claim(self) -> QueueTask | None:
        """Claim one runnable task, or ``None`` when none is claimable.

        Tasks are attempted in sorted key order (deterministic scan);
        the atomic rename arbitrates racers, and the winner immediately
        rewrites the claim with its lease so expiry is observable by
        key content, not clock guesswork.
        """
        try:
            candidates = sorted(
                p for p in self.tasks_dir.iterdir()
                if p.suffix == ".json" and not p.name.startswith(_TMP_PREFIX)
            )
        except OSError:
            return None
        for path in candidates:
            target = self.claims_dir / path.name
            try:
                os.rename(path, target)
            except FileNotFoundError:
                # Another worker renamed it first.
                count_active("queue.claim.lost")
                continue
            except OSError:
                continue
            record = _read_record(target)
            if record is None:
                # Garbled task file: nobody can run it; dead-letter the
                # raw claim so the driver surfaces it.
                target.rename(self.dead_dir / path.name)
                count_active("queue.task.garbled")
                continue
            now = time.time()
            record["lease"] = {
                "worker": self.worker_id,
                "claimed_at": now,
                "deadline": now + self.lease_s,
            }
            _write_record(self.claims_dir, record["key"], record)
            count_active("queue.claim.won")
            return QueueTask(
                key=record["key"],
                point_index=record["point_index"],
                seed_index=record["seed_index"],
                seed=record["seed"],
                attempt=record["attempt"],
                record=record,
            )
        return None

    def complete(self, task: QueueTask, report) -> None:
        """Persist the cell's checkpoint, then release the claim.

        Checkpoint-then-unlink ordering means a crash between the two
        leaves a claim whose work is done; reclaim notices the existing
        checkpoint and simply drops the claim.
        """
        self.store.put(
            task.key, report, point_index=task.point_index, seed=task.seed
        )
        (self.claims_dir / f"{task.key}.json").unlink(missing_ok=True)
        count_active("queue.claim.completed")

    def release_duplicate(self, task: QueueTask) -> None:
        """Drop a claim whose cell some other worker already completed."""
        (self.claims_dir / f"{task.key}.json").unlink(missing_ok=True)
        count_active("queue.claim.duplicate")

    def fail(self, task: QueueTask, exc: BaseException) -> None:
        """Record a failed attempt: re-enqueue or dead-letter the cell."""
        (self.claims_dir / f"{task.key}.json").unlink(missing_ok=True)
        record = dict(task.record)
        record.pop("lease", None)
        record["error_type"] = type(exc).__name__
        record["error"] = str(exc)
        if task.attempt >= self.max_attempts:
            _write_record(self.dead_dir, task.key, record)
            count_active("queue.task.dead")
            logger.warning(
                "queue cell %s dead-lettered after %d attempts: %s: %s",
                task.key[:12],
                task.attempt,
                type(exc).__name__,
                exc,
            )
        else:
            record["attempt"] = task.attempt + 1
            _write_record(self.tasks_dir, task.key, record)
            count_active("queue.claim.failed")

    # ------------------------------------------------------------------
    # lease expiry / reclaim
    # ------------------------------------------------------------------
    def _claim_expiry(self, path: Path, record: dict[str, Any] | None) -> float:
        """Deterministic expiry instant of one claim.

        The recorded deadline governs; a claim whose worker died between
        the rename and the lease write has no deadline, so the rename's
        mtime plus the queue lease bounds it instead.
        """
        if record is not None and isinstance(record.get("lease"), dict):
            deadline = record["lease"].get("deadline")
            if isinstance(deadline, (int, float)):
                return float(deadline)
        try:
            return path.stat().st_mtime + self.lease_s
        except OSError:
            return float("-inf")  # vanished: treat as expired, unlink loses

    def reclaim_expired(self, now: float | None = None) -> int:
        """Re-enqueue (or dead-letter) every claim past its lease.

        ``unlink`` is the arbiter: of any number of concurrent
        reclaimers (and the original worker's own completion), exactly
        one unlink succeeds and only that caller re-enqueues — so a cell
        can never fork into two live tasks.  Returns how many claims
        were reclaimed.
        """
        now = time.time() if now is None else now
        reclaimed = 0
        try:
            claims = sorted(
                p for p in self.claims_dir.iterdir()
                if p.suffix == ".json" and not p.name.startswith(_TMP_PREFIX)
            )
        except OSError:
            return 0
        for path in claims:
            record = _read_record(path)
            if self._claim_expiry(path, record) > now:
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # completer or rival reclaimer won
            except OSError:
                continue
            key = path.stem
            if self.store.has(key):
                # The worker finished but died before dropping its claim.
                count_active("queue.claim.orphan_completed")
                reclaimed += 1
                continue
            if record is None:
                # Expired claim with an unreadable record: nothing can
                # rebuild the cell description, so surface it.
                _write_record(
                    self.dead_dir,
                    key,
                    {"key": key, "error_type": "GarbledClaim",
                     "error": "claim record unreadable at reclaim"},
                )
                count_active("queue.task.garbled")
                reclaimed += 1
                continue
            attempt = int(record.get("attempt", 1))
            lease = record.pop("lease", None) or {}
            record["error_type"] = "LeaseExpired"
            record["error"] = (
                f"worker {lease.get('worker', 'unknown')} lease expired "
                f"mid-cell"
            )
            if attempt >= self.max_attempts:
                _write_record(self.dead_dir, key, record)
                count_active("queue.task.dead")
            else:
                record["attempt"] = attempt + 1
                _write_record(self.tasks_dir, key, record)
            count_active("queue.claim.reclaimed")
            reclaimed += 1
        if reclaimed:
            logger.info("reclaimed %d expired queue claims", reclaimed)
        return reclaimed

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _count(self, directory: Path) -> int:
        try:
            return sum(
                1 for p in directory.iterdir()
                if p.suffix == ".json" and not p.name.startswith(_TMP_PREFIX)
            )
        except OSError:
            return 0

    def counts(self) -> dict[str, int]:
        return {
            "tasks": self._count(self.tasks_dir),
            "claims": self._count(self.claims_dir),
            "dead": self._count(self.dead_dir),
            "cells": self._count(self.store.cells_dir),
        }

    def dead_records(self) -> list[dict[str, Any]]:
        records = []
        for path in sorted(self.dead_dir.iterdir()):
            if path.suffix != ".json" or path.name.startswith(_TMP_PREFIX):
                continue
            record = _read_record(path)
            if record is not None:
                records.append(record)
        return records


# ----------------------------------------------------------------------
# worker loop
# ----------------------------------------------------------------------

def run_worker(
    queue_dir: str | Path,
    *,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    max_cells: int | None = None,
    idle_exit_s: float | None = None,
    poll_s: float = 0.05,
    kill_after_claims: int | None = None,
    worker_id: str | None = None,
) -> int:
    """Pull-and-run loop of one queue worker; returns cells completed.

    The worker exits when the queue is drained (no tasks *and* no
    claims), after ``max_cells`` completions, or after ``idle_exit_s``
    seconds without claimable work.  ``kill_after_claims=N`` is the
    chaos hook: the worker processes ``N`` claims normally, then dies
    via ``os._exit`` *between claiming and computing* its next cell —
    the deterministic "crash mid-cell" the lease-expiry tests rehearse.
    """
    from repro.resilience.chaos import KILL_EXIT_CODE

    queue = WorkQueue(
        queue_dir,
        lease_s=lease_s,
        max_attempts=max_attempts,
        worker_id=worker_id,
    )
    # Each task record names its driver's master-log size; one written
    # before the field existed runs under this process's own.
    own_master_count = sweep_mod.MASTER_FAILURE_COUNT
    completed = 0
    claims_made = 0
    idle_since: float | None = None
    logger.info(
        "sweep worker %s polling %s (lease %.1fs)",
        queue.worker_id,
        queue.root,
        lease_s,
    )
    while True:
        task = queue.claim()
        if task is None:
            queue.reclaim_expired()
            task = queue.claim()
        if task is None:
            counts = queue.counts()
            if counts["tasks"] == 0 and counts["claims"] == 0:
                break
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif idle_exit_s is not None and now - idle_since >= idle_exit_s:
                logger.info(
                    "worker %s idle for %.1fs; exiting", queue.worker_id,
                    idle_exit_s,
                )
                break
            time.sleep(poll_s)
            continue
        idle_since = None
        claims_made += 1
        if kill_after_claims is not None and claims_made > kill_after_claims:
            os._exit(KILL_EXIT_CODE)
        if queue.store.has(task.key):
            queue.release_duplicate(task)
            continue
        try:
            sweep_mod.MASTER_FAILURE_COUNT = int(
                task.record.get("master_failure_count", own_master_count)
            )
            report = simulate_cell(task.point(), task.seed, task.model())
        except BaseException as exc:
            queue.fail(task, exc)
            if not isinstance(exc, Exception):  # KeyboardInterrupt etc.
                raise
            continue
        queue.complete(task, report)
        completed += 1
        if max_cells is not None and completed >= max_cells:
            break
    logger.info(
        "sweep worker %s done: %d cells completed", queue.worker_id, completed
    )
    return completed


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def spawn_worker_process(
    queue_dir: str | Path,
    *,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    idle_exit_s: float = 2.0,
    kill_after_claims: int | None = None,
) -> subprocess.Popen:
    """Start one same-host ``sweep-worker`` subprocess via the CLI.

    This is deliberately the same entry a multi-host deployment uses
    (``bgl-sim sweep-worker --queue-dir ...``), so the driver's spawned
    workers and remotely started ones are indistinguishable.
    """
    cmd = [
        sys.executable,
        "-m",
        "repro.cli",
        "sweep-worker",
        "--queue-dir",
        str(queue_dir),
        "--lease-s",
        str(lease_s),
        "--max-attempts",
        str(max_attempts),
        "--idle-exit-s",
        str(idle_exit_s),
    ]
    if kill_after_claims is not None:
        cmd += ["--kill-after-claims", str(kill_after_claims)]
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(cmd, env=env)


def run_queue_sweep(
    points: Sequence[SweepPoint],
    seeds: Sequence[int],
    failure_model: BurstFailureModel | None = None,
    *,
    queue_dir: str | Path,
    workers: int = 2,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    spawn_workers: bool = True,
    max_respawns: int = 3,
    poll_s: float = 0.05,
    timeout_s: float | None = None,
) -> ResilientSweepOutcome:
    """Drive one sweep through a shared-directory work queue.

    Enqueues every not-yet-checkpointed cell, optionally spawns
    ``workers`` same-host worker subprocesses (set
    ``spawn_workers=False`` when workers run elsewhere against the same
    directory), then supervises: reclaiming expired leases, respawning
    a fully-dead local worker fleet (up to ``max_respawns`` times, each
    counted as a pool rebuild), and finally merging checkpoints into
    :class:`~repro.resilience.ResilientSweepOutcome` **against the
    original in-memory points** — the same verified-read resume path a
    single-host resilient sweep uses, so results are bitwise-identical
    to serial.  Dead-lettered cells surface as quarantine entries,
    mirroring the poison-cell contract.
    """
    model = failure_model or BurstFailureModel()
    seeds = tuple(seeds)
    if not seeds:
        raise ExperimentError("cannot run a sweep across zero seeds")
    queue = WorkQueue(
        queue_dir, lease_s=lease_s, max_attempts=max_attempts
    )
    stats = SweepRunStats(mode="queue", workers_used=workers)
    keys = {
        cell_id: cell_key(point, seed, model)
        for cell_id, point, seed in enumerate_cells(
            points, range(len(points)), seeds
        )
    }
    enqueued = queue.enqueue(points, seeds, model)
    already_done = sum(1 for key in keys.values() if queue.store.has(key))
    logger.info(
        "queue sweep: %d cells (%d enqueued, %d already checkpointed) "
        "under %s with %d workers",
        len(keys),
        len(enqueued),
        already_done,
        queue.root,
        workers,
    )

    procs: list[subprocess.Popen] = []
    respawns = 0
    started = time.monotonic()
    initial = queue.counts()
    # Workers are needed for newly enqueued cells AND for work already
    # outstanding in the directory — a resumed run may enqueue nothing
    # yet still face leftover tasks or stale claims from a killed fleet.
    outstanding = bool(enqueued) or initial["tasks"] > 0 or initial["claims"] > 0
    try:
        if spawn_workers and outstanding:
            procs = [
                spawn_worker_process(
                    queue_dir, lease_s=lease_s, max_attempts=max_attempts
                )
                for _ in range(workers)
            ]
        while True:
            counts = queue.counts()
            done = all(
                queue.store.has(key) or (queue.dead_dir / f"{key}.json").exists()
                for key in keys.values()
            )
            if done and counts["claims"] == 0:
                break
            queue.reclaim_expired()
            if spawn_workers and procs:
                alive = [p for p in procs if p.poll() is None]
                if not alive and (counts["tasks"] > 0 or counts["claims"] > 0):
                    # The whole local fleet died with work outstanding.
                    # Expired claims were just reclaimed; claims still
                    # inside their lease will be on the next pass.
                    if respawns >= max_respawns:
                        raise ExperimentError(
                            f"queue sweep workers died {respawns + 1} times "
                            f"with work outstanding "
                            f"({counts['tasks']} tasks, {counts['claims']} "
                            f"claims); inspect {queue.root}"
                        )
                    respawns += 1
                    stats.pool_rebuilds += 1
                    count_active("queue.worker.respawn")
                    logger.warning(
                        "all %d queue workers exited with work outstanding; "
                        "respawning fleet (%d/%d)",
                        workers,
                        respawns,
                        max_respawns,
                    )
                    procs = [
                        spawn_worker_process(
                            queue_dir, lease_s=lease_s,
                            max_attempts=max_attempts,
                        )
                        for _ in range(workers)
                    ]
            if timeout_s is not None and time.monotonic() - started > timeout_s:
                raise ExperimentError(
                    f"queue sweep did not drain within {timeout_s}s "
                    f"({queue.counts()})"
                )
            time.sleep(poll_s)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()

    # ------------------------------------------------------------------
    # merge: the ordinary verified-checkpoint resume path
    # ------------------------------------------------------------------
    reports: dict[tuple[int, int], Any] = {}
    for cell_id, key in keys.items():
        restored = queue.store.get(key)
        if restored is not None:
            reports[cell_id] = restored
    stats.checkpoint_hits = queue.store.hits
    stats.checkpoint_misses = queue.store.misses
    stats.checkpoint_corrupt = queue.store.corrupt
    stats.cells_computed = len(reports) - already_done

    dead_by_key = {
        record.get("key"): record for record in queue.dead_records()
    }
    quarantined: list[QuarantineEntry] = []
    for cell_id, key in sorted(keys.items()):
        if cell_id in reports or key not in dead_by_key:
            continue
        record = dead_by_key[key]
        quarantined.append(
            QuarantineEntry(
                point_index=record.get("point_index", cell_id[0]),
                seed_index=record.get("seed_index", cell_id[1]),
                seed=record.get("seed", seeds[cell_id[1]]),
                attempts=record.get("attempt", max_attempts),
                error_type=record.get("error_type", "QueueDeadLetter"),
                error=record.get("error", "cell dead-lettered by queue"),
                key=key,
            )
        )
    stats.quarantined = len(quarantined)

    results = merge_reports(points, range(len(points)), seeds, model, reports)

    if quarantined:
        logger.warning(
            "queue sweep finished with %d dead-lettered cells", len(quarantined)
        )
    logger.info("queue sweep complete: %s", stats.summary_line())
    return ResilientSweepOutcome(results, tuple(quarantined), stats)
