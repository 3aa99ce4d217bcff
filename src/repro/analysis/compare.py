"""Paired policy comparison.

The statistically sound way to compare schedulers on noisy workloads is
*paired*: run both policies on the identical workload and failure trace
(same seed) and difference the per-job metrics; between-seed variance —
which dwarfs the policy effect at small scale — cancels out.  Across
seeds the reader is a sign count (in how many seeds is the candidate
lower?), never a mean of deltas, which one lucky seed can swing.  The
`compare` command, the figure claims and `examples/policy_comparison.py`
read it instead of eyeballing two independent averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ExperimentError
from repro.metrics.report import SimulationReport
from repro.metrics.timing import BoundedSlowdownRule, GAMMA_SECONDS


@dataclass(frozen=True)
class PairedComparison:
    """Per-job paired deltas between two runs of the same scenario.

    Deltas are ``candidate - baseline``: negative response/slowdown
    deltas mean the candidate policy served jobs faster.
    """

    baseline_policy: str
    candidate_policy: str
    n_jobs: int
    mean_response_delta: float
    mean_slowdown_delta: float
    jobs_improved: int       # candidate strictly faster (response)
    jobs_regressed: int      # candidate strictly slower
    kills_delta: int         # candidate kills - baseline kills
    lost_work_delta: float   # node-seconds
    utilized_delta: float

    def summary(self) -> str:
        if abs(self.mean_response_delta) < 0.5:
            sign = "matches"
        elif self.mean_response_delta < 0:
            sign = "improves"
        else:
            sign = "regresses"
        return (
            f"{self.candidate_policy} vs {self.baseline_policy}: "
            f"{sign} mean response by {abs(self.mean_response_delta):.0f}s "
            f"({self.jobs_improved} jobs faster / {self.jobs_regressed} slower "
            f"of {self.n_jobs}); kills {self.kills_delta:+d}, "
            f"slowdown delta {self.mean_slowdown_delta:+.2f}, "
            f"utilization {self.utilized_delta:+.3f}"
        )


def compare_reports(
    baseline: SimulationReport,
    candidate: SimulationReport,
    gamma: float = GAMMA_SECONDS,
    rule: BoundedSlowdownRule = BoundedSlowdownRule.STANDARD,
    response_tolerance_s: float = 1.0,
) -> PairedComparison:
    """Pair two reports job-by-job and aggregate the deltas.

    Both reports must cover the same job set (same workload); run them
    with identical seeds so the pairing actually cancels the shared
    randomness.
    """
    base = {r.job_id: r for r in baseline.records}
    cand = {r.job_id: r for r in candidate.records}
    if set(base) != set(cand):
        raise ExperimentError(
            "paired comparison needs identical job sets "
            f"({len(base)} vs {len(cand)} jobs, "
            f"{len(set(base) ^ set(cand))} mismatched ids)"
        )
    if not base:
        raise ExperimentError("cannot compare empty reports")
    response_deltas = []
    slowdown_deltas = []
    improved = regressed = 0
    for job_id, b in base.items():
        c = cand[job_id]
        d_resp = c.response - b.response
        response_deltas.append(d_resp)
        slowdown_deltas.append(c.slowdown(gamma, rule) - b.slowdown(gamma, rule))
        if d_resp < -response_tolerance_s:
            improved += 1
        elif d_resp > response_tolerance_s:
            regressed += 1
    n = len(base)
    return PairedComparison(
        baseline_policy=baseline.policy,
        candidate_policy=candidate.policy,
        n_jobs=n,
        mean_response_delta=math.fsum(response_deltas) / n,
        mean_slowdown_delta=math.fsum(slowdown_deltas) / n,
        jobs_improved=improved,
        jobs_regressed=regressed,
        kills_delta=candidate.counters.job_kills - baseline.counters.job_kills,
        lost_work_delta=(
            candidate.timing.total_lost_work - baseline.timing.total_lost_work
        ),
        utilized_delta=candidate.capacity.utilized - baseline.capacity.utilized,
    )


@dataclass(frozen=True)
class SignCount:
    """Signs of one paired statistic over seeds: seeds below zero (for
    ``candidate - baseline``, the candidate lower), above zero, and tied."""

    lower: int
    higher: int
    tied: int

    @property
    def verdict(self) -> str:
        """A one-sided sign test on the untied seeds at p <= 0.05:
        ``holds`` (lower), ``refuted`` (higher) or ``unresolved``.  At 6
        seeds that takes 6/6, or 5/5 and one tie."""
        n = self.lower + self.higher
        p = lambda k: math.fsum(math.comb(n, i) for i in range(k, n + 1)) / 2**n
        return ("holds" if p(self.lower) <= 0.05
                else "refuted" if p(self.higher) <= 0.05 else "unresolved")

    def __str__(self) -> str:
        return (f"lower in {self.lower} of {self.lower + self.higher + self.tied} "
                f"seeds, higher in {self.higher}, tied {self.tied}")


def sign_count(deltas: Sequence[float]) -> SignCount:
    """Count the signs of per-seed paired deltas."""
    return SignCount(sum(d < 0 for d in deltas), sum(d > 0 for d in deltas),
                     sum(d == 0 for d in deltas))


def seed_sign_counts(comparisons: Sequence[PairedComparison]) -> dict[str, SignCount]:
    """Per-field sign counts over one policy pair's per-seed comparisons."""
    if len({(c.baseline_policy, c.candidate_policy) for c in comparisons}) != 1:
        raise ExperimentError("need the comparisons of exactly one policy pair")
    return {field: sign_count([getattr(c, field) for c in comparisons]) for field in (
        "kills_delta", "lost_work_delta", "mean_response_delta", "mean_slowdown_delta",
        "utilized_delta")}
