"""Fair-share admission: stride proportionality, caps, and withdrawal."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ServeError, WorkloadError
from repro.geometry.torus import MAX_JOB_ID
from repro.serve import admission as admission_module
from repro.serve.admission import STRIDE_SCALE, FairShareAdmission, TenantQueue
from repro.workloads.job import Job


def fill(admission: FairShareAdmission, tenant: str, n: int, *, start_id: int = 0):
    for i in range(n):
        assert admission.offer(tenant, start_id + i, 0.0, 2, 60.0, -1.0) is None


def depths(admission: FairShareAdmission) -> dict[str, int]:
    """Per-tenant queue depths, as the ``stats`` op's ``tenants`` shows them."""
    return {name: int(share["depth"]) for name, share in admission.shares().items()}


class TestTenantQueue:
    def test_stride_is_inverse_weight(self):
        assert TenantQueue("a", weight=2.0).stride == STRIDE_SCALE / 2.0

    def test_invalid_weight_and_cap_rejected(self):
        with pytest.raises(ServeError, match="weight"):
            TenantQueue("a", weight=0.0)
        with pytest.raises(ServeError, match="cap"):
            TenantQueue("a", cap=0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        """A NaN weight made every ``stats`` reply unencodable; an
        infinite one a zero stride that always wins the logical clock."""
        with pytest.raises(ServeError, match="weight"):
            TenantQueue("a", weight=weight)
        with pytest.raises(ServeError, match="weight"):
            FairShareAdmission({"a": weight})


class TestStrideFairness:
    def test_logical_releases_proportional_to_weight(self):
        """Weight 3:1 over 40 releases → 30/10 split."""
        adm = FairShareAdmission({"heavy": 3.0, "light": 1.0}, clock="logical")
        fill(adm, "heavy", 40, start_id=0)
        fill(adm, "light", 40, start_id=100)
        released = [adm.release_next().job_id for _ in range(40)]
        heavy = sum(1 for j in released if j < 100)
        assert heavy == 30

    def test_trace_clock_follows_global_arrival_order(self):
        """Trace replays must not let fairness reorder history."""
        adm = FairShareAdmission({"a": 100.0, "b": 1.0}, clock="trace")
        assert adm.offer("b", 1, 10.0, 2, 60.0, -1.0) is None
        assert adm.offer("a", 2, 20.0, 2, 60.0, -1.0) is None
        assert adm.offer("b", 3, 30.0, 2, 60.0, -1.0) is None
        order = [adm.release_next().job_id for _ in range(3)]
        assert order == [1, 2, 3]

    def test_newcomer_starts_at_max_pass(self):
        """A late-joining tenant must not monopolise releases."""
        adm = FairShareAdmission(clock="logical")
        fill(adm, "old", 20, start_id=0)
        for _ in range(10):
            adm.release_next()
        fill(adm, "new", 20, start_id=100)
        first_four = [adm.release_next().job_id for _ in range(4)]
        # Equal weights from here on: strict alternation, not a newcomer burst.
        assert sum(1 for j in first_four if j >= 100) == 2

    def test_release_next_empty_returns_none(self):
        assert FairShareAdmission().release_next() is None


class TestBoundedQueues:
    def test_cap_reject_with_retry_after(self):
        adm = FairShareAdmission(tenant_cap=4)
        fill(adm, "t", 4)
        retry = adm.offer("t", 99, 0.0, 2, 60.0, -1.0)
        assert retry is not None and retry > 0
        assert adm.total_rejected == 1
        assert adm.tenant("t").rejected == 1

    def test_a_refusal_builds_no_job(self, monkeypatch):
        adm = FairShareAdmission(tenant_cap=2)
        fill(adm, "t", 2)
        built = []
        monkeypatch.setattr(admission_module, "Job", lambda *fields: built.append(fields))
        assert adm.offer("t", 99, 0.0, 2, 60.0, -1.0) == 0.002
        assert built == []

    def test_an_id_past_max_job_id_is_refused_before_the_cap(self):
        """The ``Job`` constructor's error, as when the job was built
        before admission: no rejection counted, no tenant created."""
        adm = FairShareAdmission(tenant_cap=2)
        fill(adm, "t", 2)
        for tenant in ("t", "new"):
            with pytest.raises(WorkloadError, match="exceeds"):
                adm.offer(tenant, MAX_JOB_ID + 1, 0.0, 2, 60.0, -1.0)
        assert adm.total_rejected == 0 and depths(adm) == {"t": 2}
        assert adm.offer("t", MAX_JOB_ID, 0.0, 2, 60.0, -1.0) is not None

    def test_caps_are_per_tenant(self):
        adm = FairShareAdmission(tenant_cap=2)
        fill(adm, "a", 2, start_id=0)
        assert adm.offer("a", 50, 0.0, 2, 60.0, -1.0) is not None
        assert adm.offer("b", 51, 0.0, 2, 60.0, -1.0) is None

    def test_backlog_and_depths(self):
        adm = FairShareAdmission()
        fill(adm, "a", 3, start_id=0)
        fill(adm, "b", 1, start_id=10)
        assert adm.backlog == 4
        assert depths(adm) == {"a": 3, "b": 1}
        shares = adm.shares()
        assert shares["a"]["admitted"] == 3 and shares["a"]["depth"] == 3

    def test_withdraw_leaves_the_id_index(self):
        adm = FairShareAdmission()
        fill(adm, "a", 3)
        assert adm.queued[1][1].job_id == 1
        assert adm.withdraw(1) is True
        assert 1 not in adm.queued
        assert adm.withdraw(1) is False
        assert adm.backlog == 2

    def test_duplicate_queued_id_refused(self):
        adm = FairShareAdmission()
        fill(adm, "a", 1)
        with pytest.raises(ServeError, match="already queued"):
            adm.offer("b", 0, 0.0, 2, 60.0, -1.0)
        assert adm.backlog == 1 and depths(adm) == {"a": 1, "b": 0}

    def test_head_arrival_across_tenants(self):
        adm = FairShareAdmission()
        assert adm.head_arrival() is None
        adm.offer("a", 1, 50.0, 2, 60.0, -1.0)
        adm.offer("b", 2, 20.0, 2, 60.0, -1.0)
        assert adm.head_arrival() == 20.0

    def test_bad_clock_rejected(self):
        with pytest.raises(ServeError, match="clock"):
            FairShareAdmission(clock="wallclock")


class TestQueuedIndex:
    """``queued`` answers membership, ``withdraw`` and ``backlog``
    without walking the queues; the walk it replaced is the reference
    here."""

    @staticmethod
    def scan(adm: FairShareAdmission, job_id: int) -> Job | None:
        for tq in adm._tenants.values():
            for job in tq.queue:
                if job.job_id == job_id:
                    return job
        return None

    def check(self, adm: FairShareAdmission, ids_seen: range) -> None:
        in_queues = [job.job_id for tq in adm._tenants.values() for job in tq.queue]
        assert sorted(adm.queued) == sorted(in_queues)
        assert adm.backlog == sum(tq.depth for tq in adm._tenants.values())
        for job_id in ids_seen:
            entry = adm.queued.get(job_id)
            assert (entry and entry[1]) is self.scan(adm, job_id)
        for job_id, (tq, job) in adm.queued.items():
            assert job.job_id == job_id and job in tq.queue

    @pytest.mark.parametrize("clock", ["trace", "logical"])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_sequences_keep_index_equal_to_queues(self, clock, seed):
        rng = random.Random(seed)
        adm = FairShareAdmission({"a": 2.0, "b": 1.0}, tenant_cap=6, clock=clock)
        next_id = 0
        gone: list[int] = []
        for _ in range(400):
            action = rng.random()
            if action < 0.5:
                tenant = rng.choice(["a", "b", "c", "d"])
                full = adm.tenant(tenant).depth >= 6
                retry = adm.offer(tenant, next_id, float(next_id), 2, 60.0, -1.0)
                assert (retry is not None) == full
                if full:
                    gone.append(next_id)
                next_id += 1
            elif action < 0.75:
                backlog = adm.backlog
                job = adm.release_next()
                assert (job is None) == (backlog == 0)
                if job is not None:
                    gone.append(job.job_id)
            elif next_id:
                job_id = rng.randrange(next_id)
                was_queued = self.scan(adm, job_id) is not None
                assert adm.withdraw(job_id) is was_queued
                if was_queued:
                    gone.append(job_id)
            self.check(adm, range(next_id))
            for job_id in gone:
                assert job_id not in adm.queued
        assert gone and adm.backlog  # the run exercised both ends
