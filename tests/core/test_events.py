"""Tests for simulator events and the event queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.core.events import Event, EventKind, EventQueue


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        q.push(30.0, EventKind.ARRIVAL, 1)
        q.push(10.0, EventKind.ARRIVAL, 2)
        q.push(20.0, EventKind.ARRIVAL, 3)
        assert [q.pop().payload for _ in range(3)] == [2, 3, 1]

    def test_kind_ordering_at_same_time(self):
        q = EventQueue()
        q.push(10.0, EventKind.ARRIVAL, 1)
        q.push(10.0, EventKind.FINISH, 2)
        q.push(10.0, EventKind.FAILURE, 3)
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [EventKind.FINISH, EventKind.FAILURE, EventKind.ARRIVAL]

    def test_insertion_order_stable_within_kind(self):
        q = EventQueue()
        for payload in (5, 6, 7):
            q.push(1.0, EventKind.ARRIVAL, payload)
        assert [q.pop().payload for _ in range(3)] == [5, 6, 7]

    def test_pop_batch_groups_same_timestamp(self):
        q = EventQueue()
        q.push(1.0, EventKind.ARRIVAL, 1)
        q.push(1.0, EventKind.FINISH, 2)
        q.push(2.0, EventKind.ARRIVAL, 3)
        batch = q.pop_batch()
        assert [e.payload for e in batch] == [2, 1]
        assert len(q) == 1

    def test_empty_queue_errors(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.pop()
        with pytest.raises(SimulationError):
            q.pop_batch()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, EventKind.ARRIVAL, 0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, time):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.push(time, EventKind.FAILURE, 0)
        assert not q

    def test_bool_and_len(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(0.0, EventKind.ARRIVAL, 0)
        assert q and len(q) == 1

    def test_epoch_carried(self):
        q = EventQueue()
        q.push(5.0, EventKind.FINISH, 9, epoch=3)
        assert q.pop().epoch == 3

    def test_next_time_peeks_without_popping(self):
        q = EventQueue()
        assert q.next_time() is None
        q.push(7.0, EventKind.ARRIVAL, 1)
        q.push(3.0, EventKind.FINISH, 2)
        assert q.next_time() == 3.0
        assert len(q) == 2

    def test_pop_batch_keeps_stale_epoch_distinguishable(self):
        """A cancelled-then-resubmitted job id leaves two ARRIVAL events
        for one payload; the consumer tells them apart by epoch, so a
        same-instant batch must surface both."""
        q = EventQueue()
        q.push(10.0, EventKind.ARRIVAL, 7, epoch=0)  # cancelled life
        q.push(10.0, EventKind.ARRIVAL, 7, epoch=1)  # resubmission
        batch = q.pop_batch()
        assert [e.payload for e in batch] == [7, 7]
        assert [e.epoch for e in batch] == [0, 1]  # arrival order preserved

    def test_pop_batch_resubmission_at_later_time(self):
        q = EventQueue()
        q.push(10.0, EventKind.ARRIVAL, 7, epoch=0)
        q.push(20.0, EventKind.ARRIVAL, 7, epoch=1)
        first = q.pop_batch()
        second = q.pop_batch()
        assert [(e.time, e.epoch) for e in first] == [(10.0, 0)]
        assert [(e.time, e.epoch) for e in second] == [(20.0, 1)]

    @given(st.lists(st.tuples(st.floats(0, 100), st.sampled_from(list(EventKind))), max_size=40))
    @settings(max_examples=50)
    def test_global_ordering_property(self, items):
        q = EventQueue()
        for t, k in items:
            q.push(t, k, 0)
        popped = [q.pop() for _ in range(len(items))]
        keys = [(e.time, e.kind, e.seq) for e in popped]
        assert keys == sorted(keys)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_pop_batch_drains_everything(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, EventKind.ARRIVAL, 0)
        total = 0
        last = -1.0
        while q:
            batch = q.pop_batch()
            assert len({e.time for e in batch}) == 1
            assert batch[0].time > last or total == 0 or batch[0].time == last
            assert batch[0].time >= last
            last = batch[0].time
            total += len(batch)
        assert total == len(times)
