"""Tests for distributional analysis of job records."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.analysis.distributions import (
    DistributionSummary,
    per_size_class_summary,
    slowdown_distribution,
    wait_distribution,
)
from repro.metrics.timing import JobRecord


def record(job_id=0, size=4, arrival=0.0, start=10.0, finish=110.0, runtime=100.0):
    return JobRecord(
        job_id=job_id, size=size, arrival=arrival, start=start, finish=finish,
        runtime=runtime, estimate=runtime, restarts=0, lost_work=0.0,
    )


class TestDistributionSummary:
    def test_empty(self):
        d = DistributionSummary.from_values("x", [])
        assert d.n == 0 and d.mean == 0.0

    def test_single_value(self):
        d = DistributionSummary.from_values("x", [5.0])
        assert d.n == 1
        assert d.mean == d.minimum == d.maximum == 5.0
        assert all(v == 5.0 for v in d.percentiles.values())

    def test_known_percentiles(self):
        d = DistributionSummary.from_values("x", list(range(101)))
        assert d.percentiles[50] == pytest.approx(50.0)
        assert d.percentiles[90] == pytest.approx(90.0)
        assert d.minimum == 0 and d.maximum == 100

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200))
    def test_percentiles_monotone(self, values):
        d = DistributionSummary.from_values("x", values)
        ordered = [d.percentiles[p] for p in sorted(d.percentiles)]
        assert ordered == sorted(ordered)
        assert d.minimum <= d.percentiles[50] <= d.maximum


class TestMetricDistributions:
    def test_wait_and_response(self):
        records = [
            record(0, start=10.0, finish=110.0),
            record(1, start=50.0, finish=150.0),
        ]
        assert wait_distribution(records).mean == pytest.approx(30.0)
        response = DistributionSummary.from_values("response_s", [r.response for r in records])
        assert response.mean == pytest.approx(130.0)

    def test_slowdown(self):
        records = [record(0, start=0.0, finish=100.0, runtime=100.0)]
        assert slowdown_distribution(records).mean == pytest.approx(1.0)


class TestSizeClasses:
    def test_bucketing(self):
        records = [
            record(0, size=1),
            record(1, size=3),
            record(2, size=16),
            record(3, size=64),
            record(4, size=128),
        ]
        buckets = per_size_class_summary(records)
        assert set(buckets) == {"1", "2-4", "5-16", "17-64", "65-128"}
        assert all(b.n == 1 for b in buckets.values())

    def test_empty_classes_omitted(self):
        buckets = per_size_class_summary([record(0, size=1)])
        assert set(buckets) == {"1"}
