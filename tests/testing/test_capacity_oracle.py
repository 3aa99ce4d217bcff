"""Unit tests for the capacity-accounting oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.metrics.capacity import CapacityTracker
from tests.oracles import CapacityOracle, InvariantViolationError

N = 128


class TestRecompute:
    def test_no_samples(self):
        assert CapacityOracle(N).surplus_integral(10.0) == 0.0

    def test_single_segment(self):
        oracle = CapacityOracle(N)
        oracle.record(0.0, 100, 20)
        assert oracle.surplus_integral(10.0) == pytest.approx(800.0)

    def test_queued_exceeding_free_clamps_to_zero(self):
        oracle = CapacityOracle(N)
        oracle.record(0.0, 10, 50)
        assert oracle.surplus_integral(5.0) == 0.0

    def test_step_function(self):
        oracle = CapacityOracle(N)
        oracle.record(0.0, 128, 0)    # surplus 128 for 2s
        oracle.record(2.0, 64, 32)    # surplus 32 for 3s
        oracle.record(5.0, 0, 64)     # surplus 0 for 5s
        assert oracle.surplus_integral(10.0) == pytest.approx(128 * 2 + 32 * 3)

    def test_rejects_bad_free(self):
        oracle = CapacityOracle(N)
        with pytest.raises(InvariantViolationError):
            oracle.record(0.0, N + 1, 0)
        with pytest.raises(InvariantViolationError):
            oracle.record(0.0, -1, 0)

    def test_rejects_negative_queue(self):
        with pytest.raises(InvariantViolationError):
            CapacityOracle(N).record(0.0, 5, -2)

    def test_rejects_time_regression(self):
        oracle = CapacityOracle(N)
        oracle.record(5.0, 10, 0)
        with pytest.raises(InvariantViolationError, match="backwards"):
            oracle.record(4.0, 10, 0)

    def test_rejects_end_before_last_sample(self):
        oracle = CapacityOracle(N)
        oracle.record(5.0, 10, 0)
        with pytest.raises(InvariantViolationError, match="precedes"):
            oracle.surplus_integral(4.0)


class TestAgainstTracker:
    """The tracker's running sum and the oracle recomputation must agree
    on any shared sample stream — this is exactly the cross-check the
    simulator harness performs at end of run."""

    samples = st.lists(
        st.tuples(
            st.floats(0, 1e5, allow_nan=False, allow_infinity=False),
            st.integers(0, N),
            st.integers(0, 4 * N),
        ),
        min_size=1,
        max_size=40,
    )

    @given(samples, st.floats(0, 1e4, allow_nan=False, allow_infinity=False))
    def test_agreement(self, raw, tail):
        ordered = sorted(raw, key=lambda s: s[0])
        tracker = CapacityTracker(N)
        oracle = CapacityOracle(N)
        for t, free, queued in ordered:
            tracker.record(t, free, queued)
            oracle.record(t, free, queued)
        end = ordered[-1][0] + tail
        tracker.close(end)
        assert oracle.verify(end, tracker.surplus_integral()) == pytest.approx(
            tracker.surplus_integral()
        )

    def test_verify_raises_on_disagreement(self):
        oracle = CapacityOracle(N)
        oracle.record(0.0, 100, 0)
        with pytest.raises(InvariantViolationError, match="integral mismatch"):
            oracle.verify(10.0, 999.0)  # true integral is 1000

    def test_verify_tolerates_float_noise(self):
        oracle = CapacityOracle(N)
        oracle.record(0.0, 100, 0)
        true = oracle.surplus_integral(10.0)
        oracle.verify(10.0, true * (1 + 1e-12))
