"""Poison cells quarantine; the rest of the sweep completes.

A poison cell (fails every attempt) must cost the sweep exactly that
cell: the point averages over surviving seeds, a fully poisoned point
reports ``None``, and the quarantine document names every lost cell.
A worker pool that keeps breaking degrades to in-process execution and
still finishes the sweep with serially-identical results.
"""

from __future__ import annotations

import json

import pytest

import repro.experiments.sweep as sweep_mod
from repro.experiments.parallel import SweepExecutor
from repro.experiments.sweep import SweepPoint, run_sweep, run_sweep_outcome
from repro.resilience import Quarantine, RetryPolicy

from tests.chaos import ChaosConfig
from tests.resilience.conftest import needs_fork, no_sleep


def _serial_reference(points, seeds):
    ref = run_sweep(points, seeds, workers=1)
    sweep_mod._result_cache.clear()
    return ref


def _pooled_backends(tmp_path):
    """``(mode, options)`` of each backend that runs cells in other
    processes.  The tests below loop over them rather than parametrise,
    so their ids stay what they were when the warm pool was the only
    one.  A short lease, because a queue worker that dies alone is
    noticed by its lease running out."""
    yield "warm", dict(workers=2, min_cells_per_worker=0)
    yield "queue", dict(workers=2, queue_dir=tmp_path, lease_s=1.0)


class TestQuarantine:
    def test_poison_cell_quarantined_partial_point(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(raise_cells=((1, 1),), raise_attempts=99)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(
                points, seeds, checkpoint_dir=tmp_path, **fast_retry
            )
        # The unaffected point is bitwise identical to serial.
        assert outcome.results[0] == ref[0]
        # The poisoned point averages over its surviving seed.
        assert outcome.results[1] is not None
        assert outcome.results[1].n_seeds == 1
        assert outcome.results[1] != ref[1]
        assert [ (e.point_index, e.seed_index) for e in outcome.quarantined ] \
            == [(1, 1)]
        entry = outcome.quarantined[0]
        assert entry.error_type == "ChaosError"
        assert entry.attempts == fast_retry["retry"].max_attempts
        assert not outcome.complete
        assert outcome.stats.quarantined == 1

    def test_quarantine_json_structured(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        points, seeds = grid
        chaos = ChaosConfig(raise_cells=((0, 0),), raise_attempts=99)
        with inject_faults(chaos, points, seeds):
            run_sweep_outcome(
                points, seeds, checkpoint_dir=tmp_path, **fast_retry
            )
        path = tmp_path / "quarantine.json"
        document = json.loads(path.read_text())
        assert document["schema"] == 1
        [entry] = document["entries"]
        assert entry["point_index"] == 0 and entry["seed_index"] == 0
        assert entry["error_type"] == "ChaosError"
        assert entry["key"]  # reproducible: names the cell's content key
        loaded = Quarantine.load(path)
        assert loaded.cells() == {(0, 0)}

    def test_fully_poisoned_point_is_none(self, grid, fast_retry, inject_faults):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(
            raise_cells=((0, 0), (0, 1)), raise_attempts=99
        )
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(points, seeds, **fast_retry)
        assert outcome.results[0] is None
        assert outcome.results[1] == ref[1]
        assert len(outcome.quarantined) == 2
        assert not outcome.complete

    @needs_fork
    def test_pooled_poison_cell_quarantined(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(raise_cells=((1, 0),), raise_attempts=99)
        for mode, options in _pooled_backends(tmp_path):
            with inject_faults(chaos, points, seeds):
                outcome = run_sweep_outcome(
                    points, seeds, **fast_retry, **options
                )
            assert outcome.stats.mode == mode
            assert outcome.results[0] == ref[0]
            assert outcome.results[1].n_seeds == 1
            (entry,) = outcome.quarantined
            assert (entry.point_index, entry.seed_index) == (1, 0)
            # The error the worker saw, not the name of what carried it.
            assert entry.error_type == "ChaosError", mode
            assert entry.attempts == fast_retry["retry"].max_attempts
        assert Quarantine.load(tmp_path / "quarantine.json").cells() == {(1, 0)}

    def test_partial_point_never_enters_memo_cache(
        self, grid, fast_retry, inject_faults
    ):
        """A partial average must not be served to a later clean sweep."""
        points, seeds = grid
        chaos = ChaosConfig(raise_cells=((1, 1),), raise_attempts=99)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(points, seeds, **fast_retry)
        assert outcome.results[1].n_seeds == 1
        clean = run_sweep(points, seeds, workers=1)
        assert clean[1].n_seeds == len(seeds)


@needs_fork
class TestDegradation:
    def test_persistent_killer_degrades_to_inprocess(
        self, grid, tmp_path, inject_faults
    ):
        """A cell that kills its worker on every attempt forces the pool
        to degrade; kills don't fire in-process, so the sweep completes
        with results bitwise identical to serial.  (The queue's two
        workers die one at a time: each rebuild is the second death.)"""
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(kill_cells=((0, 0),), kill_attempts=99)
        policy = RetryPolicy(max_attempts=8, max_pool_rebuilds=1)
        for mode, options in _pooled_backends(tmp_path):
            with inject_faults(chaos, points, seeds):
                outcome = run_sweep_outcome(
                    points, seeds, retry=policy, sleep=no_sleep, **options
                )
            assert outcome.stats.mode == mode
            assert outcome.results == ref
            assert outcome.stats.degraded
            assert outcome.stats.pool_rebuilds == 2, mode
            assert not outcome.quarantined

    def test_transient_kill_recovers_without_degrading(
        self, grid, fast_retry, tmp_path, inject_faults
    ):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(kill_cells=((0, 0),), kill_attempts=1)
        for mode, options in _pooled_backends(tmp_path):
            with inject_faults(chaos, points, seeds):
                outcome = run_sweep_outcome(
                    points, seeds, **fast_retry, **options
                )
            assert outcome.results == ref
            assert not outcome.stats.degraded
            assert not outcome.quarantined
            if mode == "warm":
                # The dead worker took the pool, and every cell in it, along.
                assert outcome.stats.pool_rebuilds >= 1
                assert outcome.stats.resubmits >= 1
            else:
                # The dead worker's one claim ran out its lease.
                assert outcome.stats.retries >= 1

    def test_breakage_charges_only_a_cell_alone_in_flight(self, grid, inject_faults):
        """A killer among cells that never fail: a breakage with several
        cells in flight charges none of them, and they rerun one at a
        time, so only the killer spends its attempts (each on a pool it
        broke alone) and the other five cells finish as serial does.
        Charging every lost cell quarantined the whole grid here."""
        points, seeds = grid
        points = [*points, SweepPoint("nasa", 12, 1.0, 1, "krevat", 0.0)]
        ref = _serial_reference(points, seeds)
        survivor = _serial_reference(points[:1], seeds[1:])
        chaos = ChaosConfig(kill_cells=((0, 0),), kill_attempts=99)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(
                points, seeds, workers=2, min_cells_per_worker=0,
                retry=RetryPolicy(), sleep=no_sleep,
            )
        (entry,) = outcome.quarantined
        assert (entry.point_index, entry.seed_index) == (0, 0)
        assert entry.attempts == RetryPolicy().max_attempts
        assert outcome.results[1:] == ref[1:]
        assert outcome.results[0] == survivor[0]
        assert outcome.stats.mode == "warm"
        assert outcome.stats.cells_computed == 5

    def test_zero_rebuild_budget_degrades_immediately(self, grid, inject_faults):
        points, seeds = grid
        ref = _serial_reference(points, seeds)
        chaos = ChaosConfig(kill_cells=((1, 1),), kill_attempts=99)
        policy = RetryPolicy(max_attempts=8, max_pool_rebuilds=0)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(
                points, seeds, workers=2, min_cells_per_worker=0,
                retry=policy, sleep=no_sleep,
            )
        assert outcome.results == ref
        assert outcome.stats.degraded
        assert outcome.stats.pool_rebuilds == 1


@needs_fork
def test_pooled_point_with_unbuildable_inputs_is_quarantined(grid, fast_retry):
    """A point whose inputs cannot even be generated (here: an unknown
    site) must cost a pooled resilient sweep only its own cells: they
    fail in the worker that tries to build them, like any other cell."""
    from repro.experiments.sweep import SweepPoint

    points, seeds = grid
    ref = _serial_reference(points, seeds)
    bad = SweepPoint("no-such-site", 10, 1.0, 0, "krevat", 0.0)
    outcome = run_sweep_outcome(
        [*points, bad], seeds, workers=2, min_cells_per_worker=0,
        **fast_retry,
    )
    assert outcome.stats.mode == "warm"
    assert outcome.results[:2] == ref
    assert outcome.results[2] is None
    assert {(e.point_index, e.seed_index) for e in outcome.quarantined} \
        == {(2, 0), (2, 1)}
