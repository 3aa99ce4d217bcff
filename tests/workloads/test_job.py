"""Unit tests for Job and Workload records."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import WorkloadError
from repro.workloads.job import Job, Workload


def job(job_id=0, arrival=0.0, size=4, runtime=100.0, estimate=None) -> Job:
    if estimate is None:
        return Job(job_id, arrival, size, runtime)
    return Job(job_id, arrival, size, runtime, estimate)


class TestJob:
    def test_estimate_defaults_to_runtime(self):
        assert job(runtime=123.0).estimate == 123.0

    def test_explicit_estimate_kept(self):
        assert job(runtime=100.0, estimate=250.0).estimate == 250.0

    def test_work(self):
        assert job(size=8, runtime=50.0).work == 400.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(job_id=-1),
            dict(arrival=-1.0),
            dict(size=0),
            dict(runtime=0.0),
            dict(runtime=-5.0),
            dict(estimate=0.0),
            # ``x <= 0`` is False for NaN: the checks must be ones NaN fails.
            dict(arrival=math.nan),
            dict(runtime=math.nan),
            dict(estimate=math.nan),
            dict(arrival=math.inf),
            dict(runtime=math.inf),
            dict(estimate=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            job(**kwargs)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_runtime_scaling_rejects_non_finite(self, c):
        with pytest.raises(WorkloadError, match="load scale"):
            job().with_runtime_scaled(c)

    def test_runtime_scaling(self):
        j = job(runtime=100.0, estimate=200.0)
        scaled = j.with_runtime_scaled(1.2)
        assert scaled.runtime == pytest.approx(120.0)
        assert scaled.estimate == pytest.approx(240.0)
        assert scaled.size == j.size and scaled.arrival == j.arrival

    def test_runtime_scaling_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            job().with_runtime_scaled(0.0)

    def test_with_size(self):
        assert job(size=3).with_size(4).size == 4

    @given(st.floats(0.1, 10.0), st.floats(1.0, 1e6))
    def test_scaling_preserves_work_ratio(self, c, runtime):
        j = job(runtime=runtime)
        assert j.with_runtime_scaled(c).work == pytest.approx(j.work * c)


class TestWorkload:
    def test_sorted_by_arrival(self):
        w = Workload("t", 128, (job(1, 50.0), job(0, 10.0), job(2, 30.0)))
        assert [j.job_id for j in w] == [0, 2, 1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError):
            Workload("t", 128, (job(1), job(1, arrival=5.0)))

    def test_span_and_total_work(self):
        w = Workload("t", 128, (job(0, 0.0, 2, 10.0), job(1, 100.0, 4, 20.0)))
        assert w.span == 100.0
        assert w.total_work == 2 * 10.0 + 4 * 20.0
        assert w.max_size == 4

    def test_empty_workload(self):
        w = Workload("t", 128)
        assert len(w) == 0 and w.span == 0.0 and w.total_work == 0.0
        assert w.max_size == 0

    def test_head(self):
        w = Workload("t", 128, tuple(job(i, float(i)) for i in range(10)))
        assert [j.job_id for j in w.head(3)] == [0, 1, 2]

    def test_machine_nodes_validation(self):
        with pytest.raises(WorkloadError):
            Workload("t", 0)

    def test_indexing(self):
        w = Workload("t", 128, (job(0, 0.0), job(1, 5.0)))
        assert w[0].job_id == 0 and w[1].job_id == 1
