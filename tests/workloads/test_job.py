"""Unit tests for Job and Workload records."""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import WorkloadError
from repro.geometry.torus import MAX_JOB_ID
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

    def test_an_id_past_the_int64_grid_is_refused(self):
        """The occupancy grid is ``int64``: such a job used to be accepted
        and then crash ``Torus.allocate`` with ``OverflowError``."""
        assert job(job_id=2**63 - 1).job_id == 2**63 - 1
        with pytest.raises(WorkloadError, match="int64 occupancy grid"):
            job(job_id=2**63)

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


#: One bad value per field, in the order ``Job`` checks them, with the
#: exact message it gives for job 7 (or the bad id).
BAD_FIELDS = [
    ("job_id", -1, "job id must be non-negative, got -1"),
    (
        "job_id", MAX_JOB_ID + 1,
        f"job id {MAX_JOB_ID + 1} exceeds {MAX_JOB_ID}, the largest the int64 "
        f"occupancy grid holds",
    ),
    ("arrival", -1.0, "job 7: arrival must be finite and >= 0, got -1.0"),
    ("size", 0, "job 7: size must be >= 1, got 0"),
    ("runtime", 0.0, "job 7: runtime must be positive and finite, got 0.0"),
    ("estimate", -2.0, "job 7: estimate must be positive and finite, got -2.0"),
]  # fmt: skip
GOOD = dict(job_id=7, arrival=10.0, size=4, runtime=100.0, estimate=150.0)


def refused(**fields) -> str:
    with pytest.raises(WorkloadError) as info:
        Job(**{**GOOD, **fields})
    return str(info.value)


class TestJobContract:
    """The hand-written constructor: every check, its message and its
    order, and the dataclass behaviour a generated one would give."""

    @pytest.mark.parametrize("name, value, message", BAD_FIELDS)
    def test_each_invalid_field_has_its_message(self, name, value, message):
        assert refused(**{name: value}) == message

    @pytest.mark.parametrize("first", range(len(BAD_FIELDS)))
    def test_the_first_check_in_order_fires(self, first):
        """Every field from ``first`` on is bad: ``first``'s check wins."""
        bad = {name: value for name, value, _ in BAD_FIELDS[first:]}
        if first == 0:
            bad["job_id"] = -1
        assert refused(**bad) == BAD_FIELDS[first][2]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["arrival", "runtime", "estimate"])
    def test_non_finite_floats(self, name, value):
        kind = "finite and >= 0" if name == "arrival" else "positive and finite"
        assert refused(**{name: value}) == f"job 7: {name} must be {kind}, got {value}"

    def test_id_bounds_are_inclusive(self):
        assert Job(0, 0.0, 1, 1.0).job_id == 0
        assert Job(MAX_JOB_ID, 0.0, 1, 1.0).job_id == MAX_JOB_ID

    def test_minus_one_estimate_is_the_runtime(self):
        (field,) = [f for f in dataclasses.fields(Job) if f.name == "estimate"]
        assert field.default == -1.0
        assert Job(7, 0.0, 1, 5.0).estimate == 5.0
        assert Job(7, 0.0, 1, 5.0, -1.0).estimate == 5.0
        assert Job(7, 0.0, 1, 5.0, estimate=-1.0) == Job(7, 0.0, 1, 5.0, 5.0)

    def test_fields_and_keywords(self):
        names = [f.name for f in dataclasses.fields(Job)]
        assert names == ["job_id", "arrival", "size", "runtime", "estimate"]
        assert Job(**GOOD) == Job(*GOOD.values())

    def test_replace_rechecks(self):
        j = Job(**GOOD)
        assert dataclasses.replace(j, size=8) == Job(**{**GOOD, "size": 8})
        assert dataclasses.replace(j, runtime=3.0).estimate == 150.0
        with pytest.raises(WorkloadError, match="size must be >= 1"):
            dataclasses.replace(j, size=0)

    def test_eq_and_hash_follow_the_field_tuple(self):
        j = Job(**GOOD)
        assert dataclasses.astuple(j) == tuple(GOOD.values())
        assert hash(j) == hash(tuple(GOOD.values()))
        assert j == Job(**GOOD) and j != Job(**{**GOOD, "estimate": 151.0})
        assert j != tuple(GOOD.values())

    def test_repr(self):
        assert repr(Job(**GOOD)) == (
            "Job(job_id=7, arrival=10.0, size=4, runtime=100.0, estimate=150.0)"
        )

    def test_pickle_round_trip(self):
        j = Job(**GOOD)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(j, protocol))
            assert back == j and repr(back) == repr(j)

    @pytest.mark.parametrize("name", list(GOOD))
    def test_fields_are_frozen(self, name):
        j = Job(**GOOD)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(j, name, GOOD[name])
        assert not hasattr(j, "__dict__")


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

    def test_negative_head_is_refused(self):
        """``jobs[:-3]`` would keep all but the last three."""
        w = Workload("t", 128, tuple(job(i, float(i)) for i in range(10)))
        with pytest.raises(WorkloadError, match="head must be non-negative"):
            w.head(-3)

    def test_machine_nodes_validation(self):
        with pytest.raises(WorkloadError):
            Workload("t", 0)

    def test_indexing(self):
        w = Workload("t", 128, (job(0, 0.0), job(1, 5.0)))
        assert w[0].job_id == 0 and w[1].job_id == 1
