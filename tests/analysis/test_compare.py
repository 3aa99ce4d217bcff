"""Tests for paired policy comparison."""

from __future__ import annotations

import pytest

from repro.analysis.compare import (
    PairedComparison,
    compare_reports,
    seed_sign_counts,
)
from repro.api import SimulationSetup
from repro.errors import ExperimentError
from repro.metrics.capacity import CapacitySummary, CapacityTracker
from repro.metrics.report import Counters, SimulationReport
from repro.metrics.timing import JobRecord


def record(job_id, start, finish, size=4, runtime=None):
    runtime = runtime if runtime is not None else finish - start
    return JobRecord(
        job_id=job_id, size=size, arrival=0.0, start=start, finish=finish,
        runtime=runtime, estimate=runtime, restarts=0, lost_work=0.0,
    )


def report(policy, records, kills=0):
    tracker = CapacityTracker(128)
    tracker.record(0.0, 128, 0)
    tracker.close(1000.0)
    return SimulationReport.build(
        policy=policy, workload="w", n_failures=0, records=records,
        capacity=CapacitySummary.from_tracker(tracker, 0.0, 0.0, 1000.0),
        counters=Counters(job_kills=kills),
    )


class TestCompareReports:
    def test_deltas_and_win_counts(self):
        base = report("krevat", [record(0, 0, 200), record(1, 0, 300)], kills=4)
        cand = report("balancing", [record(0, 0, 100), record(1, 0, 350)], kills=2)
        cmp = compare_reports(base, cand)
        assert cmp.n_jobs == 2
        assert cmp.mean_response_delta == pytest.approx((-100 + 50) / 2)
        assert cmp.jobs_improved == 1
        assert cmp.jobs_regressed == 1
        assert cmp.kills_delta == -2

    def test_tolerance_ignores_tiny_deltas(self):
        base = report("a", [record(0, 0.0, 100.0)])
        cand = report("b", [record(0, 0.0, 100.5)])
        cmp = compare_reports(base, cand)
        assert cmp.jobs_improved == 0 and cmp.jobs_regressed == 0
        assert cmp.n_jobs == 1

    def test_mismatched_jobs_rejected(self):
        base = report("a", [record(0, 0, 100)])
        cand = report("b", [record(1, 0, 100)])
        with pytest.raises(ExperimentError, match="identical job sets"):
            compare_reports(base, cand)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            compare_reports(report("a", []), report("b", []))

    def test_summary_mentions_policies(self):
        base = report("krevat", [record(0, 0, 200)])
        cand = report("balancing", [record(0, 0, 100)])
        text = compare_reports(base, cand).summary()
        assert "balancing vs krevat" in text
        assert "improves" in text

    def test_identical_seed_pipeline_pairing(self):
        """End-to-end: same seed + scenario, two policies, valid pairing."""
        common = dict(site="nasa", n_jobs=40, n_failures=6, seed=2)
        base = SimulationSetup(policy="krevat", parameter=0.0, **common).run()
        cand = SimulationSetup(policy="balancing", parameter=0.9, **common).run()
        cmp = compare_reports(base, cand)
        assert cmp.n_jobs == 40
        assert cmp.kills_delta <= 0  # prediction never adds kills here


class TestSeedSignCounts:
    def _cmp(self, delta, pair=("a", "b"), kills=-1):
        return PairedComparison(
            baseline_policy=pair[0], candidate_policy=pair[1], n_jobs=10,
            mean_response_delta=delta, mean_slowdown_delta=delta / 10,
            jobs_improved=3, jobs_regressed=2, kills_delta=kills,
            lost_work_delta=-100.0, utilized_delta=0.0,
        )

    def test_counts_signs_per_field(self):
        counts = seed_sign_counts(
            [self._cmp(-10.0), self._cmp(-30.0, kills=0), self._cmp(5.0)]
        )
        response = counts["mean_response_delta"]
        assert (response.lower, response.higher, response.tied) == (2, 1, 0)
        kills = counts["kills_delta"]
        assert (kills.lower, kills.higher, kills.tied) == (2, 0, 1)
        assert counts["utilized_delta"].tied == 3
        assert str(kills) == "lower in 2 of 3 seeds, higher in 0, tied 1"

    def test_a_mean_cannot_hide_the_sign(self):
        """One huge win and five small losses average to a win; the sign
        count says the candidate was lower in one seed of six."""
        comparisons = [self._cmp(-1000.0)] + [self._cmp(10.0)] * 5
        response = seed_sign_counts(comparisons)["mean_response_delta"]
        assert (response.lower, response.higher) == (1, 5)
        assert response.verdict == "unresolved"

    def test_verdict_needs_enough_seeds(self):
        assert seed_sign_counts([self._cmp(-1.0)] * 6)["kills_delta"].verdict == "holds"
        assert seed_sign_counts([self._cmp(-1.0)] * 4)["kills_delta"].verdict == "unresolved"
        assert seed_sign_counts([self._cmp(1.0, kills=1)] * 6)["kills_delta"].verdict == "refuted"

    def test_mixed_pairs_rejected(self):
        with pytest.raises(ExperimentError):
            seed_sign_counts([self._cmp(-10.0), self._cmp(-10.0, pair=("a", "c"))])

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            seed_sign_counts([])
