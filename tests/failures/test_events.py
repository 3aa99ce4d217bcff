"""Tests for FailureEvent and FailureLog."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FailureModelError
from repro.failures.events import FailureEvent, FailureLog


def log_of(*pairs: tuple[float, int], n_nodes: int = 8) -> FailureLog:
    return FailureLog(n_nodes, [FailureEvent(t, n) for t, n in pairs])


class TestFailureEvent:
    def test_validation(self):
        with pytest.raises(FailureModelError):
            FailureEvent(-1.0, 0)
        with pytest.raises(FailureModelError):
            FailureEvent(0.0, -1)

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, time):
        with pytest.raises(FailureModelError):
            FailureEvent(time, 0)


class TestFailureLog:
    def test_sorted_by_time(self):
        log = log_of((30.0, 1), (10.0, 2), (20.0, 0))
        assert list(log.times) == [10.0, 20.0, 30.0]
        assert list(log.nodes) == [2, 0, 1]

    def test_node_range_checked(self):
        with pytest.raises(FailureModelError):
            log_of((0.0, 8), n_nodes=8)
        with pytest.raises(FailureModelError):
            FailureLog(0)

    def test_from_arrays_matches_constructor(self):
        times = np.array([5.0, 1.0, 3.0])
        nodes = np.array([2, 0, 1])
        a = FailureLog.from_arrays(8, times, nodes)
        b = log_of((5.0, 2), (1.0, 0), (3.0, 1))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.nodes, b.nodes)

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(FailureModelError):
            FailureLog.from_arrays(8, np.array([1.0]), np.array([0, 1]))

    def test_from_arrays_validates_ranges(self):
        with pytest.raises(FailureModelError):
            FailureLog.from_arrays(8, np.array([-1.0]), np.array([0]))
        with pytest.raises(FailureModelError):
            FailureLog.from_arrays(8, np.array([1.0]), np.array([9]))
        with pytest.raises(FailureModelError):
            FailureLog.from_arrays(0, np.array([]), np.array([]))

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, time):
        """A NaN or infinite time must not reach the sorted log: NaN
        sorts last, is never due, and corrupts the engine's event heap."""
        with pytest.raises(FailureModelError, match="finite"):
            FailureLog.from_arrays(8, np.array([5.0, time, 1.0]), np.array([0, 1, 2]))

    def test_a_nan_failure_time_is_refused_before_a_run(self):
        """A 40-job run with one NaN failure time died mid-run with
        ``capacity record time went backwards``; it is refused where the
        log is built."""
        from repro.api import SimulationSetup
        from repro.core.simulator import Simulator

        setup = SimulationSetup(n_jobs=40, n_failures=20, seed=0)
        workload, failures, policy = setup.build_inputs()
        times = failures.times.copy()
        times[len(times) // 2] = float("nan")
        with pytest.raises(FailureModelError):
            bad = FailureLog.from_arrays(failures.n_nodes, times, failures.nodes)
            Simulator(workload, bad, policy, setup.config).run()

    def test_ties_sorted_by_node_read_only_copies(self):
        """Both constructors take one path: a ``(time, node)`` sort into
        read-only copies, the caller's arrays untouched."""
        times, nodes = np.array([2.0, 1.0, 1.0]), np.array([0, 5, 3])
        for log in (
            FailureLog.from_arrays(8, times, nodes),
            log_of((2.0, 0), (1.0, 5), (1.0, 3)),
        ):
            assert log.times.tolist() == [1.0, 1.0, 2.0]
            assert log.nodes.tolist() == [3, 5, 0]
            assert not log.times.flags.writeable and not log.nodes.flags.writeable
        assert times.flags.writeable and times.tolist() == [2.0, 1.0, 1.0]

    def test_immutable_arrays(self):
        log = log_of((1.0, 0))
        with pytest.raises(ValueError):
            log.times[0] = 5.0

    def test_len_iter_span(self):
        log = log_of((1.0, 0), (11.0, 1))
        assert len(log) == 2
        assert log.span == 10.0
        events = list(log)
        assert events[0] == FailureEvent(1.0, 0)

    def test_empty_log(self):
        log = FailureLog(8)
        assert len(log) == 0 and log.span == 0.0
        assert log.nodes_failing_in(0, 1e9).size == 0
        assert not log.failure_mask(0, 1e9).any()

    def test_window_queries(self):
        log = log_of((10.0, 1), (20.0, 2), (20.0, 1), (30.0, 3))
        assert log.window_slice(10.0, 20.0) == (0, 1)        # [t0, t1)
        assert log.window_slice(10.0, 20.0001) == (0, 3)
        assert set(log.nodes_failing_in(15.0, 25.0)) == {1, 2}
        mask = log.failure_mask(15.0, 25.0)
        assert mask[1] and mask[2] and not mask[3] and not mask[0]

    def test_per_node_counts(self):
        log = log_of((1.0, 1), (2.0, 1), (3.0, 5))
        counts = log.per_node_counts()
        assert counts[1] == 2 and counts[5] == 1 and counts.sum() == 3

    @given(st.lists(st.tuples(st.floats(0, 1e6), st.integers(0, 7)), max_size=50), st.floats(0, 1e6), st.floats(0, 1e6))
    @settings(max_examples=50)
    def test_window_count_matches_bruteforce(self, pairs, a, b):
        t0, t1 = min(a, b), max(a, b)
        log = log_of(*pairs) if pairs else FailureLog(8)
        expected = sum(1 for t, _ in pairs if t0 <= t < t1)
        lo, hi = log.window_slice(t0, t1)
        assert hi - lo == expected
