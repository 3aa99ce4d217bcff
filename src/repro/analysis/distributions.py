"""Distributional views of per-job metrics.

Average bounded slowdown — the paper's headline metric — hides a very
heavy tail: a handful of short jobs stuck behind restarted giants can
dominate it.  These helpers expose the full distribution (percentiles,
tail mass) and per-size-class breakdowns so a policy comparison can say
*which* jobs a scheduler helped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.metrics.timing import (
    BoundedSlowdownRule,
    GAMMA_SECONDS,
    JobRecord,
)

#: Default percentiles reported by :class:`DistributionSummary`.
PERCENTILES = (10, 25, 50, 75, 90, 95, 99)


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics of one per-job metric."""

    metric: str
    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    percentiles: dict[int, float]

    @classmethod
    def from_values(cls, metric: str, values: Sequence[float]) -> "DistributionSummary":
        if len(values) == 0:
            return cls(metric, 0, 0.0, 0.0, 0.0, 0.0, {p: 0.0 for p in PERCENTILES})
        arr = np.asarray(values, dtype=np.float64)
        return cls(
            metric=metric,
            n=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            percentiles={p: float(np.percentile(arr, p)) for p in PERCENTILES},
        )

    def __str__(self) -> str:  # pragma: no cover - display sugar
        ps = " ".join(f"p{p}={v:.1f}" for p, v in self.percentiles.items())
        return f"{self.metric}: n={self.n} mean={self.mean:.2f} {ps}"


def _distribution(
    records: Sequence[JobRecord], metric: str, get: Callable[[JobRecord], float]
) -> DistributionSummary:
    return DistributionSummary.from_values(metric, [get(r) for r in records])


def slowdown_distribution(
    records: Sequence[JobRecord],
    gamma: float = GAMMA_SECONDS,
    rule: BoundedSlowdownRule = BoundedSlowdownRule.STANDARD,
) -> DistributionSummary:
    """Distribution of bounded slowdown over completed jobs."""
    return _distribution(
        records, "bounded_slowdown", lambda r: r.slowdown(gamma, rule)
    )


def wait_distribution(records: Sequence[JobRecord]) -> DistributionSummary:
    """Distribution of wait time (arrival → final start)."""
    return _distribution(records, "wait_s", lambda r: r.wait)


#: Size classes used by :func:`per_size_class_summary` (inclusive upper
#: bounds in supernodes, mirroring common workload-study buckets).
SIZE_CLASSES = ((1, "1"), (4, "2-4"), (16, "5-16"), (64, "17-64"), (128, "65-128"))


def per_size_class_summary(
    records: Sequence[JobRecord],
    gamma: float = GAMMA_SECONDS,
    rule: BoundedSlowdownRule = BoundedSlowdownRule.STANDARD,
) -> dict[str, DistributionSummary]:
    """Slowdown distributions bucketed by job size class.

    Small jobs feel queueing (and thus failures of *other* jobs) most;
    large jobs feel their own restarts.  This split shows both.
    """
    buckets: dict[str, list[float]] = {label: [] for _, label in SIZE_CLASSES}
    for r in records:
        for bound, label in SIZE_CLASSES:
            if r.size <= bound:
                buckets[label].append(r.slowdown(gamma, rule))
                break
        else:
            raise SimulationError(f"job size {r.size} exceeds the largest class")
    return {
        label: DistributionSummary.from_values(f"slowdown[{label}]", values)
        for label, values in buckets.items()
        if values
    }
