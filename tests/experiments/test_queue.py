"""Work-queue protocol and driver tests.

The protocol under test (:mod:`repro.experiments.queue`): claim by
atomic rename (exactly one racer wins), deterministic lease expiry with
unlink-as-arbiter reclaim, re-enqueue-then-dead-letter attempt
accounting, and a driver whose merged results are bitwise identical to
a serial sweep of the same grid — including across resumed runs.

Workers take the driver's ``MASTER_FAILURE_COUNT`` from the task records,
so the shrunken logs the fixture installs apply on both sides of the
queue directory, whoever started the worker.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.queue as queue_mod
import repro.experiments.sweep as sweep_mod
from repro.errors import ExperimentError
from repro.experiments.queue import (
    WorkQueue,
    run_queue_sweep,
    run_worker,
    spawn_worker_process,
)
from repro.experiments.sweep import SweepPoint, run_sweep
from repro.failures.synthetic import BurstFailureModel
from repro.resilience import cell_key
from repro.resilience.chaos import KILL_EXIT_CODE


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


# ----------------------------------------------------------------------
# protocol: enqueue / claim / lease / reclaim
# ----------------------------------------------------------------------

class TestQueueProtocol:
    def test_validation(self, tmp_path):
        with pytest.raises(ExperimentError, match="lease_s"):
            WorkQueue(tmp_path, lease_s=0.0)
        with pytest.raises(ExperimentError, match="max_attempts"):
            WorkQueue(tmp_path, max_attempts=0)

    def test_enqueue_idempotent(self, tmp_path, grid):
        points, seeds = grid
        model = BurstFailureModel()
        queue = WorkQueue(tmp_path)
        first = queue.enqueue(points, seeds, model)
        assert len(first) == len(points) * len(seeds)
        assert queue.enqueue(points, seeds, model) == []
        assert queue.counts()["tasks"] == len(first)

    def test_claim_then_drain(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        queue.enqueue(points, seeds, BurstFailureModel())
        claimed = set()
        while (task := queue.claim()) is not None:
            claimed.add(task.key)
            assert task.attempt == 1
            # The rebuilt point runs the same cell as the original.
            assert task.point().site == points[task.point_index].site
        assert len(claimed) == len(points) * len(seeds)
        counts = queue.counts()
        assert counts["tasks"] == 0
        assert counts["claims"] == len(claimed)

    def test_lost_rename_race_moves_to_next_task(
        self, tmp_path, grid, monkeypatch
    ):
        """A racer whose rename loses (FileNotFoundError) must skip to
        the next candidate instead of failing the claim."""
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        queue.enqueue(points, seeds, BurstFailureModel())
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

    def test_unexpired_claim_not_reclaimed(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=60.0)
        queue.enqueue(points, seeds, BurstFailureModel())
        queue.claim()
        assert queue.reclaim_expired() == 0
        assert queue.counts()["claims"] == 1

    def test_expired_claim_reenqueued_with_next_attempt(
        self, tmp_path, grid
    ):
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0)
        queue.enqueue(points, seeds, BurstFailureModel())
        task = queue.claim()
        # Deterministic expiry: pass a clock already past the deadline.
        assert queue.reclaim_expired(now=time.time() + 10.0) == 1
        counts = queue.counts()
        assert counts["claims"] == 0
        record = json.loads(
            (queue.tasks_dir / f"{task.key}.json").read_text()
        )
        assert record["attempt"] == 2
        assert record["error_type"] == "LeaseExpired"

    def test_mtime_fallback_when_lease_never_written(self, tmp_path, grid):
        """A worker that died between rename and lease write leaves a
        claim with no lease; its expiry falls back to mtime + lease."""
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0)
        queue.enqueue(points, seeds, BurstFailureModel())
        task = queue.claim()
        claim_path = queue.claims_dir / f"{task.key}.json"
        record = json.loads(claim_path.read_text())
        del record["lease"]
        claim_path.write_text(json.dumps(record))
        past = time.time() - 60.0
        os.utime(claim_path, (past, past))
        assert queue.reclaim_expired() == 1
        assert (queue.tasks_dir / f"{task.key}.json").exists()

    def test_reclaim_drops_orphan_completed_claim(self, tmp_path, grid):
        """Crash between checkpoint write and claim unlink: reclaim sees
        the finished cell and drops the claim without re-enqueueing."""
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0)
        queue.enqueue(points, seeds, BurstFailureModel())
        task = queue.claim()
        report = queue_mod.simulate_cell(task.point(), task.seed, task.model())
        queue.store.put(
            task.key, report, point_index=task.point_index, seed=task.seed
        )
        assert queue.reclaim_expired(now=time.time() + 10.0) == 1
        counts = queue.counts()
        assert counts["claims"] == 0
        assert not (queue.tasks_dir / f"{task.key}.json").exists()

    def test_fail_reenqueues_then_dead_letters(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path, max_attempts=2)
        queue.enqueue(points[:1], seeds[:1], BurstFailureModel())
        task = queue.claim()
        queue.fail(task, ValueError("boom"))
        retry = queue.claim()
        assert retry.key == task.key
        assert retry.attempt == 2
        queue.fail(retry, ValueError("boom again"))
        assert queue.claim() is None
        dead = queue.dead_records()
        assert len(dead) == 1
        assert dead[0]["error_type"] == "ValueError"
        assert queue.counts() == {
            "tasks": 0, "claims": 0, "dead": 1, "cells": 0,
        }

    def test_garbled_task_dead_lettered(self, tmp_path):
        queue = WorkQueue(tmp_path)
        (queue.tasks_dir / "feedface.json").write_text("{not json")
        assert queue.claim() is None
        assert queue.counts()["dead"] == 1

    def test_reclaimed_expiry_respects_max_attempts(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path, lease_s=5.0, max_attempts=1)
        queue.enqueue(points[:1], seeds[:1], BurstFailureModel())
        queue.claim()
        assert queue.reclaim_expired(now=time.time() + 10.0) == 1
        assert queue.counts()["tasks"] == 0  # straight to dead-letter
        assert queue.dead_records()[0]["error_type"] == "LeaseExpired"


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
        queue.enqueue(points, seeds, BurstFailureModel())
        completed = run_worker(tmp_path)
        assert completed == len(points) * len(seeds)
        assert queue.counts()["cells"] == completed
        outcome = run_queue_sweep(
            points, seeds, queue_dir=tmp_path, spawn_workers=False
        )
        assert outcome.results == ref
        assert outcome.complete
        assert outcome.stats.mode == "queue"

    def test_hand_started_worker_follows_the_enqueued_master_count(
        self, tmp_path, grid
    ):
        """A ``bgl-sim sweep-worker`` on another host shares nothing with
        the driver but the queue directory — no module state, no
        environment — and must still thin from master logs of the
        driver's size: the count travels in the task record."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        WorkQueue(tmp_path).enqueue(points, seeds, BurstFailureModel())
        env = {
            k: v for k, v in os.environ.items()
            if k != "REPRO_MASTER_FAILURE_COUNT"
        }
        src_root = str(Path(queue_mod.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_root, env.get("PYTHONPATH")])
        )
        subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "sweep-worker",
                "--queue-dir", str(tmp_path), "--idle-exit-s", "1",
            ],
            env=env, check=True, timeout=120,
        )
        outcome = run_queue_sweep(
            points, seeds, queue_dir=tmp_path, spawn_workers=False
        )
        assert outcome.results == ref
        assert outcome.complete

    def test_record_without_master_count_keeps_the_module_default(
        self, tmp_path, grid
    ):
        """Task records written before the field existed still run."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        queue = WorkQueue(tmp_path)
        for key in queue.enqueue(points, seeds, BurstFailureModel()):
            record = json.loads((queue.tasks_dir / f"{key}.json").read_text())
            del record["master_failure_count"]
            queue_mod._write_record(queue.tasks_dir, key, record)
        assert run_worker(tmp_path) == len(points) * len(seeds)
        outcome = run_queue_sweep(
            points, seeds, queue_dir=tmp_path, spawn_workers=False
        )
        assert outcome.results == ref

    def test_duplicate_task_released_not_recomputed(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path)
        model = BurstFailureModel()
        queue.enqueue(points[:1], seeds[:1], model)
        assert run_worker(tmp_path) == 1
        # A rival host re-enqueues the finished cell (e.g. raced the
        # checkpoint write); the worker must release, not recompute.
        key = cell_key(points[0], seeds[0], model)
        task_record = {
            "key": key, "point_index": 0, "seed_index": 0,
            "seed": seeds[0], "attempt": 1,
            "point": queue_mod.describe_point(points[0]),
            "model": queue_mod.describe_model(model),
        }
        queue_mod._write_record(queue.tasks_dir, key, task_record)
        assert run_worker(tmp_path) == 0
        assert queue.counts()["tasks"] == 0
        assert queue.counts()["claims"] == 0

    def test_poison_cell_dead_letters_and_quarantines(self, tmp_path, grid):
        points, seeds = grid
        queue = WorkQueue(tmp_path, max_attempts=2)
        queue.enqueue(points[:1], (seeds[0],), BurstFailureModel())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                queue_mod,
                "simulate_cell",
                lambda *a: (_ for _ in ()).throw(ValueError("poison")),
            )
            assert run_worker(tmp_path, max_attempts=2) == 0
        assert queue.counts()["dead"] == 1
        outcome = run_queue_sweep(
            points[:1], (seeds[0],), queue_dir=tmp_path,
            spawn_workers=False, max_attempts=2,
        )
        assert not outcome.complete
        assert outcome.results == [None]
        assert len(outcome.quarantined) == 1
        assert outcome.quarantined[0].error_type == "ValueError"
        assert outcome.stats.quarantined == 1


# ----------------------------------------------------------------------
# driver with spawned worker subprocesses
# ----------------------------------------------------------------------

class TestQueueSweepDriver:
    def test_two_workers_bitwise_identical_and_resumable(
        self, tmp_path, grid
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        outcome = run_queue_sweep(
            points, seeds, queue_dir=tmp_path, workers=2, timeout_s=120.0
        )
        assert outcome.results == ref
        assert outcome.stats.mode == "queue"
        assert outcome.stats.workers_used == 2
        assert outcome.stats.cells_computed == len(points) * len(seeds)
        # Re-running against the drained directory restores everything
        # from checkpoints and computes nothing.
        sweep_mod._result_cache.clear()
        resumed = run_queue_sweep(
            points, seeds, queue_dir=tmp_path, workers=2, timeout_s=120.0
        )
        assert resumed.results == ref
        assert resumed.stats.cells_computed == 0
        assert resumed.stats.checkpoint_hits == len(points) * len(seeds)

    def test_killed_worker_claim_reclaimed_and_resumed_bitwise(
        self, tmp_path, grid
    ):
        """The acceptance scenario: a worker dies *holding a claim*; the
        claim's lease expires; a resumed driver reclaims it and the
        merged results equal serial exactly."""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        queue = WorkQueue(tmp_path, lease_s=1.0)
        enqueued = queue.enqueue(points, seeds, BurstFailureModel())
        assert len(enqueued) == 4
        proc = spawn_worker_process(
            tmp_path, lease_s=1.0, kill_after_claims=1
        )
        assert proc.wait(timeout=120) == KILL_EXIT_CODE
        counts = queue.counts()
        assert counts["cells"] == 1  # one completed before the kill
        assert counts["claims"] == 1  # died holding the second claim
        outcome = run_queue_sweep(
            points, seeds, queue_dir=tmp_path, workers=2,
            lease_s=1.0, timeout_s=120.0,
        )
        assert outcome.results == ref
        assert outcome.complete
        assert not outcome.quarantined
        final = queue.counts()
        assert final["tasks"] == 0
        assert final["claims"] == 0
        assert final["cells"] == len(points) * len(seeds)
