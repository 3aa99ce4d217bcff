"""Order statistics shared by the runner and the compare tool."""

from __future__ import annotations

import statistics
from typing import Sequence

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (nearest rank), refused when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond it - a p99 of 200
    samples is the second-largest value, not a tail estimate."""
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    n = len(samples)
    beyond = n * (100.0 - pct) / 100.0
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{pct:g} of {n} samples has {beyond:g} samples beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are required"
        )
    ordered = sorted(samples)
    rank = max(1, -(-n * pct // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values: Sequence[float]) -> dict[str, float]:
    """Median with the spread figures printed beside it."""
    q1, med, q3 = quartiles(values)
    return {
        "median": med,
        "min": min(values),
        "max": max(values),
        "iqr": q3 - q1,
        "n": len(values),
    }
