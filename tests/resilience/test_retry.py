"""RetryPolicy schedule determinism, fake-clock backoff, quarantine I/O.

The backoff schedule must be a pure function of ``(policy, cell,
attempt)``: no wall clock, no global RNG.  The executor consumes it via
an injectable ``sleep``, which these tests replace with a recorder so
the exact delays an interrupted cell experiences are asserted, not
timed.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, strategies as st

import repro.experiments.sweep as sweep_mod
from repro.errors import CellTimeoutError, ResilienceError
from repro.experiments.parallel import SweepExecutor
from repro.experiments.sweep import run_sweep, run_sweep_outcome
from repro.resilience import (
    Quarantine,
    QuarantineEntry,
    RetryPolicy,
    cell_timeout,
)

from tests.chaos import ChaosConfig
from tests.resilience.conftest import needs_fork


class TestBackoffSchedule:
    def test_exponential_without_jitter(self):
        policy = RetryPolicy(
            base_delay_s=0.5, backoff_factor=2.0, jitter_fraction=0.0,
            max_attempts=5, max_delay_s=100.0,
        )
        assert policy.schedule((0, 0)) == [0.5, 1.0, 2.0, 4.0]

    def test_cap_at_max_delay(self):
        policy = RetryPolicy(
            base_delay_s=1.0, backoff_factor=10.0, jitter_fraction=0.0,
            max_attempts=5, max_delay_s=30.0,
        )
        assert policy.schedule((0, 0)) == [1.0, 10.0, 30.0, 30.0]

    def test_deterministic_across_instances(self):
        a = RetryPolicy(jitter_seed=7)
        b = RetryPolicy(jitter_seed=7)
        assert a.backoff_s((3, 1), 2) == b.backoff_s((3, 1), 2)

    def test_jitter_decorrelates_cells(self):
        policy = RetryPolicy(jitter_fraction=0.5)
        delays = {policy.backoff_s((i, 0), 1) for i in range(16)}
        assert len(delays) > 1

    @given(
        base=st.floats(0.001, 10.0),
        factor=st.floats(1.0, 4.0),
        jitter=st.floats(0.0, 0.99),
        attempt=st.integers(1, 10),
        cell=st.tuples(st.integers(0, 50), st.integers(0, 10)),
    )
    def test_jitter_bounds_and_purity(self, base, factor, jitter, attempt, cell):
        policy = RetryPolicy(
            base_delay_s=base, backoff_factor=factor, jitter_fraction=jitter,
            max_attempts=10, max_delay_s=60.0,
        )
        raw = min(base * factor ** (attempt - 1), 60.0)
        delay = policy.backoff_s(cell, attempt)
        assert raw * (1 - jitter) <= delay <= raw * (1 + jitter)
        assert delay == policy.backoff_s(cell, attempt)  # pure

    def test_attempt_is_one_based(self):
        with pytest.raises(ResilienceError):
            RetryPolicy().backoff_s((0, 0), 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(base_delay_s=-1.0),
            dict(backoff_factor=0.5),
            dict(jitter_fraction=1.0),
            dict(cell_timeout_s=0.0),
            dict(max_pool_rebuilds=-1),
            # --cell-timeout nan used to fail every cell until quarantine.
            dict(cell_timeout_s=float("nan")),
            dict(cell_timeout_s=float("inf")),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ResilienceError):
            RetryPolicy(**kwargs)


class TestFakeClockBackoff:
    def test_executor_sleeps_exact_schedule(self, grid, inject_faults):
        """A transiently raising cell waits exactly its policy schedule.

        The executor's clock is injected, so the recorded sleeps are the
        policy's deterministic values — nothing here measures time.
        """
        points, seeds = grid
        slept: list[float] = []
        policy = RetryPolicy(
            base_delay_s=0.5, backoff_factor=2.0, jitter_fraction=0.0,
            max_attempts=4,
        )
        # Cell (1, 0) fails its first two attempts, then runs clean.
        chaos = ChaosConfig(raise_cells=((1, 0),), raise_attempts=2)
        executor = SweepExecutor(workers=1, retry=policy, sleep=slept.append)
        with inject_faults(chaos, points, seeds):
            outcome = executor.run_outcome(points, seeds)
        assert outcome.complete
        assert outcome.stats.retries == 2
        assert slept == [
            policy.backoff_s((1, 0), 1),
            policy.backoff_s((1, 0), 2),
        ] == [0.5, 1.0]

    def test_jittered_schedule_still_replayable(self, grid, inject_faults):
        points, seeds = grid
        policy = RetryPolicy(
            base_delay_s=0.25, jitter_fraction=0.3, jitter_seed=11,
            max_attempts=3,
        )
        chaos = ChaosConfig(raise_cells=((0, 1),), raise_attempts=1)

        def run() -> list[float]:
            sweep_mod._result_cache.clear()
            slept: list[float] = []
            with inject_faults(chaos, points, seeds):
                SweepExecutor(
                    workers=1, retry=policy, sleep=slept.append
                ).run_outcome(points, seeds)
            return slept

        first, second = run(), run()
        assert first == second == [policy.backoff_s((0, 1), 1)]


class TestCellTimeout:
    def test_timeout_raises_cell_timeout_error(self):
        with pytest.raises(CellTimeoutError):
            with cell_timeout(0.05):
                time.sleep(5.0)

    def test_no_timeout_is_noop(self):
        with cell_timeout(None):
            pass

    def test_handler_restored_after_use(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        with cell_timeout(10.0):
            pass
        assert signal.getsignal(signal.SIGALRM) is before

    def test_noop_off_main_thread(self):
        outcome: list[Exception | None] = [None]

        def body():
            try:
                with cell_timeout(0.01):
                    time.sleep(0.05)
            except Exception as exc:  # pragma: no cover - failure path
                outcome[0] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert outcome[0] is None

    @pytest.mark.parametrize(
        "backend",
        [
            pytest.param(dict(workers=1), id="serial"),
            pytest.param(
                dict(workers=2, min_cells_per_worker=0), id="warm",
                marks=needs_fork,
            ),
        ],
    )
    def test_cell_delayed_past_its_timeout_is_quarantined(
        self, grid, inject_faults, backend
    ):
        """The injected delay runs inside the cell's timeout, as the
        cell body does: every attempt of the delayed cell is a
        ``CellTimeoutError``, and only that cell is lost."""
        points, seeds = grid
        ref = run_sweep(points, seeds, workers=1)
        sweep_mod._result_cache.clear()
        policy = RetryPolicy(
            base_delay_s=0.0, jitter_fraction=0.0, max_attempts=2,
            cell_timeout_s=1.0,
        )
        chaos = ChaosConfig(delay_cells=((0, 1),), delay_s=30.0)
        with inject_faults(chaos, points, seeds):
            outcome = run_sweep_outcome(points, seeds, retry=policy, **backend)
        (entry,) = outcome.quarantined
        assert (entry.point_index, entry.seed_index) == (0, 1)
        assert (entry.error_type, entry.attempts) == ("CellTimeoutError", 2)
        assert outcome.results[1] == ref[1]


class TestQuarantineDocument:
    def test_round_trip(self, tmp_path):
        quarantine = Quarantine()
        quarantine.add(
            QuarantineEntry(
                point_index=1, seed_index=0, seed=0, attempts=3,
                error_type="ChaosError", error="boom", key="ab" * 32,
            )
        )
        quarantine.add(
            QuarantineEntry(
                point_index=0, seed_index=1, seed=1, attempts=2,
                error_type="ValueError", error="bad",
            )
        )
        path = quarantine.write(tmp_path / "quarantine.json")
        loaded = Quarantine.load(path)
        # Written sorted by (point_index, seed_index).
        assert [e.point_index for e in loaded.entries] == [0, 1]
        assert set(loaded.entries) == set(quarantine.entries)
        assert loaded.cells() == {(0, 1), (1, 0)}

    def test_empty_document_still_written(self, tmp_path):
        path = Quarantine().write(tmp_path / "quarantine.json")
        assert path.exists()
        assert len(Quarantine.load(path)) == 0

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "quarantine.json"
        path.write_text('{"schema": 999, "entries": []}')
        with pytest.raises(ResilienceError):
            Quarantine.load(path)
