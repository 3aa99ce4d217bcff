"""Work-queue protocol, worker-loop and executor tests.

The protocol under test (:mod:`repro.experiments.queue`): the task
record is a ``run_cell`` call, claim by atomic rename (exactly one
racer wins), deterministic lease expiry with ``unlink`` as the arbiter
of who reports the loss, checkpoints as results — and the
``QueueExecutor`` that turns what workers leave in the directory into
settled futures for the one dispatch loop.  What the loop then does
with a failed or lost cell (retry, backoff, quarantine, respawn,
degrade) is asserted where it is asserted for every backend:
``test_parallel_equivalence.py::BACKENDS`` and
``tests/resilience/test_quarantine.py``.

Workers take the driver's ``MASTER_FAILURE_COUNT`` from the task records,
so the shrunken logs the fixture installs apply on both sides of the
queue directory, whoever started the worker.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.experiments.queue as queue_mod
import repro.experiments.sweep as sweep_mod
from repro.core.simulator import Simulator
from repro.errors import ExperimentError
from repro.experiments.parallel import SweepExecutor
from repro.experiments.pool import run_cell
from repro.experiments.queue import (
    QueueExecutor,
    QueueTask,
    WorkQueue,
    run_worker,
)
from repro.experiments.sweep import (
    SweepPoint,
    enumerate_cells,
    run_sweep,
    run_sweep_outcome,
)
from repro.failures.synthetic import BurstFailureModel
from repro.obs.aggregate import SweepObsCollector
from repro.records import atomic_write_json, to_plain
from repro.resilience import CellStore, RetryPolicy, cell_key

from tests.chaos import KILL_EXIT_CODE, PLAN_FILE, ChaosConfig, injecting, load_plan

MODEL = BurstFailureModel()


def cell_report(point, seed):
    """One cell's report, computed as ``pool.run_cell`` computes it."""
    return Simulator(*sweep_mod.cell_inputs(point, seed, MODEL, with_obs=False)).run()


@pytest.fixture(autouse=True)
def small_master_log(monkeypatch):
    """Shrink master failure logs and isolate every sweep-level cache."""
    monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 64)
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()
    yield
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()


@pytest.fixture
def grid():
    points = [
        SweepPoint("nasa", 15, 1.0, 2, "krevat", 0.0),
        SweepPoint("nasa", 18, 1.0, 3, "balancing", 0.5),
    ]
    return points, (0, 1)


def _serial_reference(points, seeds):
    ref = run_sweep(points, seeds, workers=1)
    sweep_mod._result_cache.clear()
    return ref


def _calls(points, seeds):
    """``(key, run_cell arguments)`` of every cell, as the dispatch loop
    would submit it."""
    return [
        (
            cell_key(point, seed, MODEL),
            (cell_id, point, seed, MODEL, False, None, 64),
        )
        for cell_id, point, seed in enumerate_cells(
            points, range(len(points)), seeds
        )
    ]


def _put_grid(queue, points, seeds):
    calls = _calls(points, seeds)
    for key, args in calls:
        assert queue.put(QueueTask(*args)) == key
    return [key for key, _ in calls]


def _file_record(directory, key, record):
    """Write one record file as the queue does, bypassing ``put``."""
    atomic_write_json(directory / f"{key}.json", record)


@pytest.fixture
def driver_puts(monkeypatch):
    """The keys the calling process writes checkpoints under (spawned
    workers are other processes: their writes are not seen)."""
    puts = []
    real_put = CellStore.put

    def recording_put(store, key, *args, **kwargs):
        puts.append(key)
        return real_put(store, key, *args, **kwargs)

    monkeypatch.setattr(CellStore, "put", recording_put)
    return puts


# ----------------------------------------------------------------------
# protocol: put / claim / lease / reclaim
# ----------------------------------------------------------------------

class TestQueueProtocol:
    def test_validation(self, tmp_path):
        with pytest.raises(ExperimentError, match="lease_s"):
            WorkQueue(tmp_path, lease_s=0.0)

    @pytest.mark.parametrize("lease_s", [float("nan"), float("inf")])
    def test_non_finite_lease_rejected(self, tmp_path, lease_s):
        """A NaN lease made every claim's deadline NaN, so every claim
        counted as expired at once."""
        with pytest.raises(ExperimentError, match="lease_s"):
            WorkQueue(tmp_path, lease_s=lease_s)

    def test_enqueue_idempotent(self, tmp_path, grid):
        """``put`` leaves a task or claim already there in place, and
        drops the stale checkpoint / failure record of the key it is
        about to make runnable."""
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        keys = _put_grid(queue, points, seeds)
        assert queue.counts()["tasks"] == len(keys) == 4
        _put_grid(queue, points, seeds)
        assert queue.counts()["tasks"] == 4
        task = queue.claim()
        _put_grid(queue, points, seeds)
        assert queue.counts() == {"tasks": 3, "claims": 1, "failed": 0, "cells": 0}
        # A finished cell put again (corrupt, or resume off): recomputed.
        queue.complete(task, cell_report(task.point, task.seed))
        _file_record(queue.failed_dir, task.key, {"error": "stale"})
        _put_grid(queue, points, seeds)
        assert queue.counts() == {"tasks": 4, "claims": 0, "failed": 0, "cells": 0}

    def test_record_write_interrupted_leaves_no_temp_file(
        self, tmp_path, grid, monkeypatch
    ):
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        ((_, args), *_) = _calls(points, seeds)

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            queue.put(QueueTask(*args))
        assert list(queue.tasks_dir.iterdir()) == []

    def test_claim_then_drain(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        calls = dict(_calls(points, seeds))
        _put_grid(queue, points, seeds)
        claimed = set()
        while (task := queue.claim()) is not None:
            claimed.add(task.key)
            # The decoded record is the call that was submitted.
            assert task.call == calls[task.key]
            assert task.lease.worker == queue.worker_id
        assert claimed == set(calls)
        counts = queue.counts()
        assert counts["tasks"] == 0
        assert counts["claims"] == len(claimed)

    def test_chaos_survives_the_record(self, tmp_path, grid):
        """A queue worker under a fault plan decides by the plan file.
        ``ChaosConfig`` matches cell ids as tuples; JSON's lists must
        come back as tuples or no fault would ever fire in a worker."""
        points, seeds = grid
        chaos = ChaosConfig(kill_cells=((0, 0),), raise_cells=((1, 1),), seed=3)
        with injecting(chaos, points, seeds, tmp_path) as plan:
            loaded = load_plan(tmp_path / PLAN_FILE)
        assert loaded == plan
        assert loaded.config.should_kill(loaded.cell(points[0], seeds[0]), 0)
        assert loaded.config.should_raise(loaded.cell(points[1], seeds[1]), 0)

    def test_lost_rename_race_moves_to_next_task(
        self, tmp_path, grid, monkeypatch
    ):
        """A racer whose rename loses (FileNotFoundError) must skip to
        the next candidate instead of failing the claim."""
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        _put_grid(queue, points, seeds)
        real_rename = os.rename
        failed = []

        def racing_rename(src, dst, **kw):
            if not failed:
                failed.append(src)
                raise FileNotFoundError(src)  # rival renamed it first
            return real_rename(src, dst, **kw)

        monkeypatch.setattr(os, "rename", racing_rename)
        task = queue.claim()
        assert task is not None
        assert str(failed[0]) != str(queue.tasks_dir / f"{task.key}.json")

    def test_concurrent_claimers_take_each_task_exactly_once(self, tmp_path, grid):
        """More claimers than cores on one directory: the rename lets
        exactly one of them have each task."""
        points, seeds = grid
        keys = _put_grid(WorkQueue(tmp_path), points, seeds)
        taken: list[str] = []

        def drain():
            queue = WorkQueue(tmp_path)
            while (task := queue.claim()) is not None:
                taken.append(task.key)

        threads = [threading.Thread(target=drain) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(taken) == sorted(keys)

    def test_unexpired_claim_not_reclaimed(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=60.0)
        _put_grid(queue, points, seeds)
        queue.claim()
        assert queue.reclaim_expired() == 0
        assert queue.counts()["claims"] == 1
        assert queue.counts()["failed"] == 0

    def test_expired_claim_reenqueued_with_next_attempt(self, tmp_path, grid):
        """An expired claim is reported lost exactly once — a
        ``LeaseExpired`` failure on the future of whoever waits for the
        cell — and re-enqueueing it for the next attempt is that
        caller's move (the dispatch loop's, which counts attempts, as for
        any failed cell)."""
        points, seeds = grid
        (key, args), *_ = _calls(points, seeds)
        executor = QueueExecutor(tmp_path, lease_s=5.0, spawn_workers=False)
        queue = executor.queue
        try:
            future = executor.ensure(2).submit(run_cell, *args)
            task = queue.claim()  # a worker that then goes silent
            assert task.key == key
            # Deterministic expiry: a clock already past the deadline.
            # A second observer (and the settle thread) find nothing left.
            assert queue.reclaim_expired(now=time.time() + 10.0) == 1
            assert queue.reclaim_expired(now=time.time() + 10.0) == 0
            error = future.exception(timeout=30)
            assert type(error).__name__ == "LeaseExpired"
            assert isinstance(error, ExperimentError)
            assert queue.counts() == {
                "tasks": 0, "claims": 0, "failed": 0, "cells": 0,
            }
            executor.submit(run_cell, *args)
            retry = queue.claim()
            assert retry.key == key
            assert retry.call == args
        finally:
            executor.shutdown()

    def test_mtime_fallback_when_lease_never_written(self, tmp_path, grid):
        """A worker that died between rename and lease write leaves a
        claim with no lease; its expiry falls back to mtime + lease."""
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0)
        _put_grid(queue, points, seeds)
        task = queue.claim()
        claim_path = queue.claims_dir / f"{task.key}.json"
        record = json.loads(claim_path.read_text())
        del record["lease"]
        claim_path.write_text(json.dumps(record))
        assert queue.reclaim_expired() == 0  # mtime is now: inside the lease
        past = time.time() - 60.0
        os.utime(claim_path, (past, past))
        assert queue.reclaim_expired() == 1
        lost = json.loads((queue.failed_dir / f"{task.key}.json").read_text())
        assert lost["error_type"] == "LeaseExpired"

    def test_reclaim_drops_orphan_completed_claim(self, tmp_path, grid):
        """Crash between checkpoint write and claim unlink: reclaim sees
        the finished cell and drops the claim without reporting a loss."""
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0)
        _put_grid(queue, points, seeds)
        task = queue.claim()
        queue.store.put(
            task.key, cell_report(task.point, task.seed),
            point_index=task.cell_id[0], seed=task.seed,
        )
        assert queue.reclaim_expired(now=time.time() + 10.0) == 1
        counts = queue.counts()
        assert counts["claims"] == 0
        assert counts["failed"] == 0
        assert not (queue.tasks_dir / f"{task.key}.json").exists()

    def test_late_failure_of_a_reclaimed_claim_is_not_charged_twice(
        self, tmp_path, grid
    ):
        """``unlink`` arbitrates between a lease observer and the slow
        worker's own failure report: one loss, one record."""
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0)
        _put_grid(queue, points[:1], seeds[:1])
        task = queue.claim()
        assert queue.reclaim_expired(now=time.time() + 10.0) == 1
        (queue.failed_dir / f"{task.key}.json").unlink()  # driver consumed it
        queue.fail(task, ValueError("boom, but too late"))
        assert queue.counts()["failed"] == 0

    def test_garbled_task_dead_lettered(self, tmp_path):
        """A task nobody can decode is moved aside, not left for every
        worker to trip over: its claim is dropped and a ``failed/``
        record surfaces it to the driver as a failed attempt."""
        queue = WorkQueue(tmp_path)
        (queue.tasks_dir / "feedface.json").write_text("{not json")
        assert queue.claim() is None
        assert queue.counts() == {"tasks": 0, "claims": 0, "failed": 1, "cells": 0}
        record = json.loads((queue.failed_dir / "feedface.json").read_text())
        assert record["error_type"] == "GarbledTask"


    # One non-UTF-8 byte (``UnicodeDecodeError`` is a ``ValueError``, not
    # a ``JSONDecodeError``) used to escape the record reader: out of
    # ``claim()`` in a worker, and in the driver out of the settle pass,
    # whose catch-all then failed every pending future of the sweep.
    NOT_UTF8 = b'{"error_type": "\xff\xfe"}'

    def test_non_utf8_task_is_one_garbled_attempt(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        (key,) = _put_grid(queue, points[:1], seeds[:1])
        (queue.tasks_dir / f"{key}.json").write_bytes(self.NOT_UTF8)
        assert queue.claim() is None
        assert queue.counts() == {"tasks": 0, "claims": 0, "failed": 1, "cells": 0}
        record = json.loads((queue.failed_dir / f"{key}.json").read_text())
        assert record["error_type"] == "GarbledTask"

    def test_non_utf8_claim_is_reclaimed_like_an_unreadable_one(
        self, tmp_path, grid
    ):
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0)
        _put_grid(queue, points[:1], seeds[:1])
        task = queue.claim()
        claim = queue.claims_dir / f"{task.key}.json"
        claim.write_bytes(self.NOT_UTF8)
        queue.release_claims_of({queue.worker_id})  # no lease readable: kept
        assert queue.reclaim_expired() == 0  # mtime is now: inside the lease
        assert queue.reclaim_expired(now=time.time() + 10.0) == 1
        lost = json.loads((queue.failed_dir / f"{task.key}.json").read_text())
        assert lost["error_type"] == "LeaseExpired"
        assert queue.counts()["claims"] == 0

    def test_non_utf8_failure_record_fails_its_own_future_only(
        self, tmp_path, grid
    ):
        points, seeds = grid
        executor = QueueExecutor(tmp_path, spawn_workers=False).ensure(1)
        queue = executor.queue
        try:
            (bad_key, bad), (good_key, good), *_ = [
                (key, executor.submit(run_cell, *args))
                for key, args in _calls(points, seeds)
            ]
            (queue.failed_dir / f"{bad_key}.json").write_bytes(self.NOT_UTF8)
            error = bad.exception(timeout=30)
            assert type(error).__name__ == "QueueFailure"
            assert isinstance(error, ExperimentError)
            assert queue.counts()["failed"] == 0
            # The settle thread is alive and the rest of the sweep waits on.
            assert not good.done()
            while (task := queue.claim()).key != good_key:
                pass
            report = cell_report(task.point, task.seed)
            queue.complete(task, report)
            assert good.result(timeout=30) == (report, None)
        finally:
            executor.shutdown()


# ----------------------------------------------------------------------
# worker loop (in-process)
# ----------------------------------------------------------------------

class TestWorkerLoop:
    def test_run_worker_drains_and_driver_merge_matches_serial(
        self, tmp_path, grid
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        queue = WorkQueue(tmp_path)
        _put_grid(queue, points, seeds)
        completed = run_worker(tmp_path, idle_exit_s=0.0)
        assert completed == len(points) * len(seeds)
        assert queue.counts()["cells"] == completed
        # A driver arriving afterwards restores all of it, verified.
        outcome = run_sweep_outcome(
            points, seeds, queue_dir=tmp_path, spawn_workers=False
        )
        assert outcome.results == ref
        assert outcome.complete
        assert outcome.stats.checkpoint_hits == completed
        assert outcome.stats.cells_computed == 0

    def test_hand_started_worker_follows_the_enqueued_master_count(
        self, tmp_path, grid
    ):
        """A ``bgl-sim sweep-worker`` on another host shares nothing with
        the driver but the queue directory — no module state, no
        environment — and may well be started first, on a directory that
        is still empty.  It must wait for work, then thin from master
        logs of the driver's size: the count travels in the task record."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src_root = str(Path(queue_mod.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")])
        )
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "sweep-worker",
                "--queue-dir", str(tmp_path), "--idle-exit-s", "2",
            ],
            env=env,
        )
        try:
            deadline = time.monotonic() + 60
            while not (tmp_path / "tasks").is_dir():  # the worker is up
                assert time.monotonic() < deadline
                time.sleep(0.05)
            time.sleep(0.5)
            assert worker.poll() is None  # an empty queue is not "drained"
            outcome = run_sweep_outcome(
                points, seeds, queue_dir=tmp_path, spawn_workers=False
            )
            assert worker.wait(timeout=60) == 0  # --idle-exit-s, nothing else
        finally:
            worker.kill()
            worker.wait()
        assert outcome.results == ref
        assert outcome.complete
        assert outcome.stats.mode == "queue"
        assert outcome.stats.cells_computed == len(points) * len(seeds)

    def test_old_format_record_is_garbled_not_half_read(self, tmp_path, grid):
        """A task in a record format this one replaced — the chunked
        record (the cell nested in a one-element ``chunk``, every field
        of it otherwise current), the schema-1 record (the same nesting
        around a hand-mirrored point: ``pf_rule`` by name, ``dims`` as a
        list, no observational flags), or the one before it (cell fields
        at the top level, an ``attempt`` but no ``cell_id``) — is
        refused whole, never run from the fields that happen to be
        there."""
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        key = cell_key(points[0], seeds[0], MODEL)
        plain = to_plain(points[0])
        schema_1_point = {
            **plain, "pf_rule": "MAX",
            "config": {
                name: value for name, value in plain["config"].items()
                if name not in ("trace", "profile")
            } | {"dims": [4, 4, 8]},
        }
        for old in (
            {
                "chunk": [[[0, 0], plain, seeds[0], 0]],
                "model": to_plain(MODEL), "with_obs": False, "chaos": None,
                "timeout_s": None, "in_worker": True, "master_failure_count": 64,
                "lease": None,
            },
            {
                "chunk": [[[0, 0], schema_1_point, seeds[0], 0]],
                "model": to_plain(MODEL), "with_obs": False, "chaos": None,
                "timeout_s": None, "in_worker": True, "master_failure_count": 64,
            },
            {
                "key": key, "point_index": 0, "seed_index": 0, "seed": seeds[0],
                "attempt": 1, "point": plain, "model": to_plain(MODEL),
                "master_failure_count": 64,
            },
        ):
            _file_record(queue.tasks_dir, key, old)
            assert run_worker(tmp_path, idle_exit_s=0.0) == 0
            assert queue.counts() == {"tasks": 0, "claims": 0, "failed": 1, "cells": 0}
            record = json.loads((queue.failed_dir / f"{key}.json").read_text())
            assert record["error_type"] == "GarbledTask"

    def test_task_with_a_retired_config_field_is_garbled(self, tmp_path, grid):
        """A task filed before ``SimulationConfig`` lost its
        ``check_invariants`` field (every other field current) is a dead
        letter, not a crash and not a run from the fields that remain."""
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        (key, args), *_ = _calls(points, seeds)
        record = to_plain(QueueTask(*args))
        record["point"]["config"]["check_invariants"] = True
        _file_record(queue.tasks_dir, key, record)
        assert run_worker(tmp_path, idle_exit_s=0.0) == 0
        assert queue.counts() == {"tasks": 0, "claims": 0, "failed": 1, "cells": 0}
        failed = json.loads((queue.failed_dir / f"{key}.json").read_text())
        assert failed["error_type"] == "GarbledTask"

    def test_record_filed_under_the_wrong_key_is_garbled(self, tmp_path, grid):
        """A checkpoint is trusted by key, so a worker must never write
        one cell's report under another cell's key."""
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        (_, args), (other_key, _), *_ = _calls(points, seeds)
        _file_record(queue.tasks_dir, other_key, to_plain(QueueTask(*args)))
        assert run_worker(tmp_path, idle_exit_s=0.0) == 0
        assert queue.counts()["cells"] == 0
        assert queue.counts()["failed"] == 1

    def test_duplicate_task_released_not_recomputed(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        (key,) = _put_grid(queue, points[:1], seeds[:1])
        assert run_worker(tmp_path, idle_exit_s=0.0) == 1
        # A rival host re-enqueues the finished cell (e.g. raced the
        # checkpoint write); the worker must release, not recompute.
        ((_, args),) = _calls(points[:1], seeds[:1])
        _file_record(queue.tasks_dir, key, to_plain(QueueTask(*args)))
        assert run_worker(tmp_path, idle_exit_s=0.0) == 0
        assert queue.counts()["tasks"] == 0
        assert queue.counts()["claims"] == 0

    def test_failing_cell_leaves_the_worker_side_error(
        self, tmp_path, grid, monkeypatch
    ):
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        (key,) = _put_grid(queue, points[:1], seeds[:1])
        monkeypatch.setattr(
            sweep_mod, "cell_inputs",
            lambda *a: (_ for _ in ()).throw(ValueError("poison")),
        )
        assert run_worker(tmp_path, idle_exit_s=0.0) == 0
        assert queue.counts() == {"tasks": 0, "claims": 0, "failed": 1, "cells": 0}
        record = json.loads((queue.failed_dir / f"{key}.json").read_text())
        assert record == {"error_type": "ValueError", "error": "poison"}


# ----------------------------------------------------------------------
# the executor: futures settled from the directory
# ----------------------------------------------------------------------

class TestQueueExecutor:
    def test_futures_settle_from_checkpoints_and_failure_records(
        self, tmp_path, grid
    ):
        points, seeds = grid
        executor = QueueExecutor(tmp_path, spawn_workers=False).ensure(2)
        queue = executor.queue
        try:
            futures = {
                key: executor.submit(run_cell, *args)
                for key, args in _calls(points, seeds)
            }
            good, bad = queue.claim(), queue.claim()
            report = cell_report(good.point, good.seed)
            queue.complete(good, report)
            queue.fail(bad, ValueError("poison"))
            assert futures[good.key].result(timeout=30) == (report, None)
            error = futures[bad.key].exception(timeout=30)
            # The worker-side type name, for the quarantine entry.
            assert type(error).__name__ == "ValueError"
            assert str(error) == "poison"
            assert queue.counts()["failed"] == 0  # consumed: charged once
        finally:
            executor.shutdown()
        # Nothing is left unsettled and nothing stays runnable.
        done, not_done = wait(futures.values(), timeout=30)
        assert not not_done
        assert sum(f.cancelled() for f in done) == 2
        assert queue.counts()["tasks"] == 0

    def test_corrupt_worker_checkpoint_is_a_failed_attempt(self, tmp_path, grid):
        """The result is read back through the verified ``get``: damage
        between the worker's write and the driver's read costs a retry,
        never a wrong number."""
        points, seeds = grid
        (key, args), *_ = _calls(points, seeds)
        executor = QueueExecutor(tmp_path, spawn_workers=False).ensure(1)
        try:
            future = executor.submit(run_cell, *args)
            executor.queue.store.path_for(key).write_text('{"schema": 1, "trunc')
            assert "verification" in str(future.exception(timeout=30))
            # The resubmission drops the damaged file and runs the cell.
            again = executor.submit(run_cell, *args)
            assert run_worker(tmp_path, idle_exit_s=0.0) == 1
            report, _ = again.result(timeout=30)
            assert report == cell_report(*args[1:3])
        finally:
            executor.shutdown()

    def test_dead_local_fleet_is_a_broken_pool(
        self, tmp_path, grid, inject_faults
    ):
        """Every spawned worker dead with futures outstanding resolves
        them with ``BrokenProcessPool`` and frees the claim the fleet
        died holding, at once — not a lease later."""
        points, seeds = grid
        chaos = ChaosConfig(kill_cells=((0, 0), (1, 0)), kill_attempts=99)
        with inject_faults(chaos, points, seeds):
            executor = QueueExecutor(tmp_path, lease_s=600.0).ensure(1)
            try:
                futures = [
                    executor.submit(run_cell, *args)
                    for _, args in _calls(points, seeds[:1])
                ]
                for future in futures:
                    error = future.exception(timeout=120)
                    assert isinstance(error, BrokenProcessPool)
                assert executor.queue.counts()["tasks"] == 0  # withdrawn
                executor.mark_broken()
                assert executor.queue.counts()["claims"] == 0
                assert executor.ensure(1) is executor
                assert executor.spawns == 2
            finally:
                executor.shutdown()

    def test_collector_is_refused(self, tmp_path, grid, monkeypatch):
        """Workers' observability is not shipped back, so a collector
        with ``queue_dir`` is refused before the queue directory is made
        or any worker is spawned."""
        points, seeds = grid
        spawned = []

        def spawn(*args):
            spawned.append(args)
            raise AssertionError("a sweep-worker was spawned")

        monkeypatch.setattr(queue_mod, "spawn_worker_process", spawn)
        queue_dir = tmp_path / "queue"
        with pytest.raises(ExperimentError, match="collectors"):
            run_sweep_outcome(
                points, seeds[:1], workers=2, queue_dir=queue_dir,
                collector=SweepObsCollector(),
            )
        assert spawned == []
        assert not queue_dir.exists()

    def test_interrupted_loop_cancels_withdraws_and_reaps(
        self, tmp_path, grid, inject_faults
    ):
        """Ctrl-C while the loop sleeps out a backoff: the sweep's own
        workers are reaped and no task of it stays runnable."""
        points, seeds = grid
        spawned = []

        def interrupt(delay):
            raise KeyboardInterrupt

        executor = SweepExecutor(
            workers=2, queue_dir=tmp_path, sleep=interrupt, retry=RetryPolicy(),
        )
        chaos = ChaosConfig(raise_cells=((0, 0),), raise_attempts=1)
        with (
            inject_faults(chaos, points, seeds),
            pytest.MonkeyPatch.context() as patch,
        ):
            plan_spawn = queue_mod.spawn_worker_process

            def recording_spawn(*args, **kwargs):
                spawned.append(plan_spawn(*args, **kwargs))
                return spawned[-1]

            patch.setattr(queue_mod, "spawn_worker_process", recording_spawn)
            with pytest.raises(KeyboardInterrupt):
                executor.run_outcome(points, seeds)
        assert len(spawned) == 2
        assert all(proc.poll() is not None for proc in spawned)
        assert WorkQueue(tmp_path).counts()["tasks"] == 0


# ----------------------------------------------------------------------
# driver with spawned worker subprocesses
# ----------------------------------------------------------------------

class TestQueueSweepDriver:
    def test_two_workers_bitwise_identical_and_resumable(
        self, tmp_path, grid
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        outcome = run_sweep_outcome(points, seeds, queue_dir=tmp_path, workers=2)
        assert outcome.results == ref
        assert outcome.stats.mode == "queue"
        assert outcome.stats.workers_used == 2
        assert outcome.stats.cells_computed == len(points) * len(seeds)
        assert (tmp_path / "quarantine.json").is_file()
        # Re-running against the drained directory restores everything
        # from checkpoints and computes nothing.
        sweep_mod._result_cache.clear()
        resumed = run_sweep_outcome(points, seeds, queue_dir=tmp_path, workers=2)
        assert resumed.results == ref
        assert resumed.stats.cells_computed == 0
        assert resumed.stats.checkpoint_hits == len(points) * len(seeds)

    def test_killed_worker_claim_reclaimed_and_resumed_bitwise(
        self, tmp_path, grid, inject_faults
    ):
        """The acceptance scenario: a worker dies *holding a claim*
        (a chaos kill, installed in the worker from the plan file); the
        driver that enqueued it is gone; a resumed driver finds the
        claim, lets its lease run out and the merged results equal
        serial exactly."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        queue = WorkQueue(tmp_path, lease_s=1.0)
        chaos = ChaosConfig(kill_cells=((1, 1),), kill_attempts=1)
        keys = _put_grid(queue, points, seeds)
        with inject_faults(chaos, points, seeds):
            proc = queue_mod.spawn_worker_process(tmp_path, lease_s=1.0)
            assert proc.wait(timeout=120) == KILL_EXIT_CODE
        counts = queue.counts()
        assert counts["claims"] == 1  # died holding one
        assert counts["cells"] + counts["tasks"] == len(keys) - 1
        outcome = run_sweep_outcome(
            points, seeds, queue_dir=tmp_path, workers=2, lease_s=1.0
        )
        assert outcome.results == ref
        assert outcome.complete
        assert not outcome.quarantined
        final = queue.counts()
        assert final["tasks"] == 0
        assert final["claims"] == 0
        assert final["cells"] == len(points) * len(seeds)

    def test_driver_rewrites_no_checkpoint_a_worker_wrote(
        self, tmp_path, grid, driver_puts
    ):
        """A worker's ``complete`` wrote the cell's checkpoint and the
        settle thread read it back verified: the driver writes none."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        outcome = run_sweep_outcome(points, seeds, queue_dir=tmp_path, workers=2)
        assert outcome.results == ref
        assert outcome.stats.cells_computed == len(points) * len(seeds)
        assert driver_puts == []
        store = CellStore(tmp_path)
        assert store.validate() == []
        assert len(store) == len(points) * len(seeds)

    def test_degraded_queue_sweep_checkpoints_its_inprocess_cells(
        self, tmp_path, grid, driver_puts, inject_faults
    ):
        """Once the fleet keeps dying the driver runs what is left
        itself; those cells have no other writer, so it writes them."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(kill_cells=((0, 0),), kill_attempts=99)
        policy = RetryPolicy(max_attempts=8, max_pool_rebuilds=0)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(
                points, seeds, workers=2, queue_dir=tmp_path, lease_s=1.0,
                retry=policy, sleep=lambda seconds: None,
            )
        assert outcome.stats.degraded
        assert outcome.results == ref
        assert cell_key(points[0], seeds[0], MODEL) in driver_puts
        store = CellStore(tmp_path)
        assert store.validate() == []
        assert len(store) == len(points) * len(seeds)

    def test_task_filed_with_fields_run_cell_lost_is_charged_then_rerun(
        self, tmp_path, grid
    ):
        """A task in the record shape from before ``run_cell`` lost its
        ``attempt`` / ``chaos`` / ``in_worker`` parameters does not
        decode: its claim is a ``GarbledTask`` failed attempt that the
        driver charges (one attempt allowed: quarantined), and the
        rerun of the cell matches serial."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        queue = WorkQueue(tmp_path)
        (key, args), *_ = _calls(points, seeds)
        old = to_plain(QueueTask(*args)) | {
            "attempt": 0, "chaos": None, "in_worker": True,
        }
        _file_record(queue.tasks_dir, key, old)

        def worker():
            # Only once the driver has filed the other three: it keeps
            # the old task, and no worker may claim it before then.
            while queue.counts()["tasks"] < len(points) * len(seeds):
                time.sleep(0.01)
            run_worker(tmp_path, idle_exit_s=1.0)

        thread = threading.Thread(target=worker)
        thread.start()
        first = run_sweep_outcome(
            points, seeds, queue_dir=tmp_path, spawn_workers=False,
            retry=RetryPolicy(max_attempts=1),
        )
        thread.join(timeout=60)
        assert not thread.is_alive()
        (entry,) = first.quarantined
        assert (entry.point_index, entry.seed_index) == (0, 0)
        assert (entry.error_type, entry.attempts) == ("GarbledTask", 1)
        sweep_mod._result_cache.clear()
        rerun = run_sweep_outcome(points, seeds, queue_dir=tmp_path, workers=1)
        assert rerun.results == ref
        assert rerun.stats.cells_computed == 1
        assert queue.counts() == {
            "tasks": 0, "claims": 0, "failed": 0, "cells": len(points) * len(seeds),
        }
