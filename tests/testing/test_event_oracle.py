"""Unit tests for the event-stream ordering oracle."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.events import Event, EventKind, EventQueue
from tests.oracles import EventOrderOracle, InvariantViolationError


def ev(time: float, kind: EventKind, seq: int = 0) -> Event:
    return Event(time, kind, seq)


class TestValidStreams:
    def test_single_batch(self):
        oracle = EventOrderOracle()
        oracle.observe_batch([ev(0.0, EventKind.FINISH), ev(0.0, EventKind.ARRIVAL)])
        assert oracle.batches_seen == 1

    def test_monotone_batches(self):
        oracle = EventOrderOracle()
        for t in [0.0, 1.0, 1.0, 2.5]:
            oracle.observe_batch([ev(t, EventKind.ARRIVAL)])
        assert oracle.batches_seen == 4

    def test_full_kind_order(self):
        oracle = EventOrderOracle()
        oracle.observe_batch(
            [
                ev(3.0, EventKind.FINISH),
                ev(3.0, EventKind.FINISH, 1),
                ev(3.0, EventKind.FAILURE, 2),
                ev(3.0, EventKind.ARRIVAL, 3),
            ]
        )

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1e6, allow_nan=False),
                st.sampled_from(list(EventKind)),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_real_queue_output_always_passes(self, pushes):
        """Whatever is pushed, pop_batch output satisfies the oracle."""
        queue = EventQueue()
        for t, kind in pushes:
            queue.push(t, kind, 0)
        oracle = EventOrderOracle()
        while queue:
            oracle.observe_batch(queue.pop_batch())
        assert oracle.batches_seen >= 1


class TestViolations:
    def test_empty_batch(self):
        with pytest.raises(InvariantViolationError, match="empty batch"):
            EventOrderOracle().observe_batch([])

    def test_time_goes_backwards(self):
        oracle = EventOrderOracle()
        oracle.observe_batch([ev(5.0, EventKind.ARRIVAL)])
        with pytest.raises(InvariantViolationError, match="backwards"):
            oracle.observe_batch([ev(4.0, EventKind.ARRIVAL)])

    def test_mixed_timestamps_in_batch(self):
        oracle = EventOrderOracle()
        with pytest.raises(InvariantViolationError, match="mixes timestamps"):
            oracle.observe_batch(
                [ev(1.0, EventKind.FINISH), ev(2.0, EventKind.FINISH, 1)]
            )

    def test_failure_before_finish_rejected(self):
        oracle = EventOrderOracle()
        with pytest.raises(InvariantViolationError, match="kind order"):
            oracle.observe_batch(
                [ev(1.0, EventKind.FAILURE), ev(1.0, EventKind.FINISH, 1)]
            )

    def test_arrival_before_failure_rejected(self):
        oracle = EventOrderOracle()
        with pytest.raises(InvariantViolationError, match="kind order"):
            oracle.observe_batch(
                [ev(1.0, EventKind.ARRIVAL), ev(1.0, EventKind.FAILURE, 1)]
            )

    def test_nan_time_rejected(self):
        with pytest.raises(InvariantViolationError, match="valid time"):
            EventOrderOracle().observe_batch([ev(math.nan, EventKind.ARRIVAL)])

    def test_negative_time_rejected(self):
        with pytest.raises(InvariantViolationError, match="valid time"):
            EventOrderOracle().observe_batch([ev(-1.0, EventKind.ARRIVAL)])
