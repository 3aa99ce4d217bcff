"""Tests for the metrics registry: accessors, merge, serialisation."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import example, given, strategies as st

from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    METRICS_SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
)


def bucket_by_linear_walk(value: float) -> int:
    """The reference ``Histogram.observe`` replaced: the first bound that
    admits the value, else the overflow slot."""
    for i, bound in enumerate(HISTOGRAM_BOUNDS):
        if value <= bound:
            return i
    return len(HISTOGRAM_BOUNDS)


class TestAccessors:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(2.5)
        assert reg.counter("a").value == 3.5

    def test_gauge_last_write(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(4)
        reg.gauge("g").set(2)
        assert reg.gauge("g").value == 2.0

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for v in (1, 3, 100):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == 104.0
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.mean == pytest.approx(104.0 / 3)
        assert sum(hist.buckets) == 3

    def test_histogram_overflow_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        hist.observe(HISTOGRAM_BOUNDS[-1] + 1)
        assert hist.buckets[-1] == 1

    def test_bounds_are_the_powers_of_two_the_bucket_rule_assumes(self):
        assert HISTOGRAM_BOUNDS == tuple(float(2 ** k) for k in range(13))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-3.5)
    @example(1e300)
    def test_bucket_is_the_linear_walks(self, value):
        hist = Histogram()
        hist.observe(value)
        expected = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        expected[bucket_by_linear_walk(value)] = 1
        assert hist.buckets == expected

    def test_bucket_at_every_bound_and_its_neighbours(self):
        for bound in HISTOGRAM_BOUNDS:
            for value in (
                math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf),
                bound - 0.5, bound + 0.5,
            ):
                hist = Histogram()
                hist.observe(value)
                assert hist.buckets.index(1) == bucket_by_linear_walk(value), value

    def test_non_finite_values_land_where_the_walk_put_them(self):
        for value in (math.inf, -math.inf, math.nan):
            hist = Histogram()
            hist.observe(value)
            assert hist.buckets.index(1) == bucket_by_linear_walk(value)

    def test_empty_histogram_mean(self):
        assert MetricsRegistry().histogram("h").mean == 0.0

    def test_timer_accumulates(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        with reg.timer("t"):
            pass
        stat = reg.timers["t"]
        assert stat.count == 2
        assert stat.total_s >= 0.0
        assert stat.max_s <= stat.total_s

    def test_zero_duration_timer(self):
        # A scope that raises still records its (possibly ~0) duration.
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            with reg.timer("t"):
                raise ValueError("boom")
        assert reg.timers["t"].count == 1


class TestSerialisation:
    def test_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(12)
        with reg.timer("t"):
            pass
        # How a sweep cell's registry travels home over the fork pool.
        restored = pickle.loads(pickle.dumps(reg))
        assert restored.to_dict() == reg.to_dict()

    def test_empty_registry_round_trip(self):
        reg = MetricsRegistry()
        data = reg.to_dict()
        assert data["schema"] == METRICS_SCHEMA_VERSION
        assert data["counters"] == {}
        assert pickle.loads(pickle.dumps(reg)).to_dict() == data

    def test_exclude_timings(self):
        reg = MetricsRegistry()
        with reg.timer("t"):
            pass
        data = reg.to_dict(include_timings=False)
        assert "timers" not in data



class TestMerge:
    def test_merge_semantics(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(5)
        b.gauge("g").set(3)
        a.histogram("h").observe(1)
        b.histogram("h").observe(50)
        a.merge(b)
        assert a.counter("c").value == 3.0
        assert a.gauge("g").value == 5.0  # max wins
        hist = a.histogram("h")
        assert hist.count == 2 and hist.min == 1.0 and hist.max == 50.0

    def test_merge_is_order_independent(self):
        def build(values):
            reg = MetricsRegistry()
            for v in values:
                reg.counter("c").inc(v)
                reg.gauge("g").set(v)
                reg.histogram("h").observe(v)
            return reg

        parts = [build([1, 9]), build([4]), build([2, 2])]
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for p in parts:
            fwd.merge(p)
        for p in reversed(parts):
            rev.merge(p)
        assert fwd.to_dict() == rev.to_dict()


class TestSummary:
    def test_summary_lines_cover_all_types(self):
        reg = MetricsRegistry()
        reg.counter("sim.dispatches").inc(10)
        reg.gauge("g").set(1)
        reg.histogram("h").observe(2)
        with reg.timer("sim.run"):
            pass
        lines = reg.summary_lines()
        text = "\n".join(lines)
        assert "counter" in text and "gauge" in text
        assert "histogram" in text and "timer" in text

    def test_empty_summary(self):
        assert MetricsRegistry().summary_lines() == []
