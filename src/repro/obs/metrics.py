"""Metrics registry: counters, gauges, histograms and timers.

One :class:`MetricsRegistry` holds every metric of one simulation (or
one merged sweep).  Counters, gauges and histograms record *simulation
quantities* — decision counts, candidate-set sizes, cache hits — which
are deterministic functions of the run, so merged registries from a
parallel sweep equal the serial ones.  Timers record *wall-clock*
profile data and are therefore segregated: :meth:`MetricsRegistry.to_dict`
can exclude them (``include_timings=False``) when comparing registries
for determinism.

There is no ambient registry: a counter is incremented on a registry
its owner was handed.  The simulator passes ``Simulator.metrics`` to the
collaborators it builds (the index cache, the shadow-time engine, the
policy, the compaction planner's scratch cache); each keeps it as a
``metrics`` attribute and skips all work when that is ``None`` — one
attribute load and branch on the disabled path — so a run collects the
same metrics whether it is driven by ``run()``, ``pump()``/``drain()``
or the service.  This module holds no mutable state.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Iterator

#: Serialisation version for registry snapshots; bump on breaking change.
METRICS_SCHEMA_VERSION = 1

#: Geometric bucket upper bounds for histograms (plus an overflow
#: bucket); fixed so merged histograms are deterministic.  Powers of
#: two from 1, which is what makes :meth:`Histogram.observe` O(1).
HISTOGRAM_BOUNDS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 2048.0, 4096.0,
)


class Counter:
    """Monotonic float counter."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Gauge:
    """Last-written value; merges take the max (deterministic)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with exact count/total/min/max."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        # One slot per bound plus overflow.
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # First bound >= value.  The bounds are 2**0 .. 2**12, so inside
        # them that is the bit length of ceil(value) - 1.
        if value <= 1.0:
            bucket = 0
        elif value <= HISTOGRAM_BOUNDS[-1]:
            bucket = (math.ceil(value) - 1).bit_length()
        else:  # overflow (and NaN, which no bound admits)
            bucket = len(HISTOGRAM_BOUNDS)
        self.buckets[bucket] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class TimerStat:
    """Accumulated wall-clock timings of one named scope."""

    __slots__ = ("count", "total_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds


class MetricsRegistry:
    """Named metrics for one run; get-or-create accessors."""

    __slots__ = ("counters", "gauges", "histograms", "timers")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.timers: dict[str, TimerStat] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram()
        return metric

    @contextmanager
    def timer(self, name: str) -> Iterator[TimerStat]:
        """Scoped wall-clock timer: ``with registry.timer("shadow"): ...``"""
        stat = self.timers.get(name)
        if stat is None:
            stat = self.timers[name] = TimerStat()
        start = time.perf_counter()
        try:
            yield stat
        finally:
            stat.observe(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # serialisation / aggregation
    # ------------------------------------------------------------------
    def to_dict(self, include_timings: bool = True) -> dict[str, Any]:
        """Snapshot as JSON-serialisable primitives.

        ``include_timings=False`` drops the wall-clock timers, leaving
        only the deterministic simulation metrics — the form used when
        asserting serial/parallel aggregation equality.
        """
        out: dict[str, Any] = {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {k: v.value for k, v in sorted(self.counters.items())},
            "gauges": {k: v.value for k, v in sorted(self.gauges.items())},
            "histograms": {
                k: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "buckets": list(h.buckets),
                }
                for k, h in sorted(self.histograms.items())
            },
        }
        if include_timings:
            out["timers"] = {
                k: {"count": t.count, "total_s": t.total_s, "max_s": t.max_s}
                for k, t in sorted(self.timers.items())
            }
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry in place.

        Counters, histogram contents and timers add; gauges keep the
        max, which is the only order-independent (hence deterministic)
        combination for a last-written value.
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            mine = self.gauge(name)
            if gauge.value > mine.value:
                mine.value = gauge.value
        for name, hist in other.histograms.items():
            mine_h = self.histogram(name)
            mine_h.count += hist.count
            mine_h.total += hist.total
            if hist.min is not None and (mine_h.min is None or hist.min < mine_h.min):
                mine_h.min = hist.min
            if hist.max is not None and (mine_h.max is None or hist.max > mine_h.max):
                mine_h.max = hist.max
            for i, n in enumerate(hist.buckets):
                mine_h.buckets[i] += n
        for name, stat in other.timers.items():
            mine_t = self.timers.setdefault(name, TimerStat())
            mine_t.count += stat.count
            mine_t.total_s += stat.total_s
            mine_t.max_s = max(mine_t.max_s, stat.max_s)

    # ------------------------------------------------------------------
    def summary_lines(self) -> list[str]:
        """Human-readable digest, derived rates included when possible."""
        lines: list[str] = []
        for name, counter in sorted(self.counters.items()):
            lines.append(f"counter   {name:<32} {counter.value:g}")
        for name, gauge in sorted(self.gauges.items()):
            lines.append(f"gauge     {name:<32} {gauge.value:g}")
        for name, hist in sorted(self.histograms.items()):
            lines.append(
                f"histogram {name:<32} n={hist.count} mean={hist.mean:.2f} "
                f"min={hist.min if hist.min is not None else '-'} "
                f"max={hist.max if hist.max is not None else '-'}"
            )
        for name, stat in sorted(self.timers.items()):
            per_call = stat.total_s / stat.count if stat.count else 0.0
            lines.append(
                f"timer     {name:<32} n={stat.count} total={stat.total_s:.4f}s "
                f"mean={per_call * 1e6:.1f}us max={stat.max_s * 1e6:.1f}us"
            )
        run = self.timers.get("sim.run")
        dispatches = self.counters.get("sim.dispatches")
        if run is not None and dispatches is not None and run.total_s > 0:
            lines.append(
                f"derived   {'sim.decisions_per_s':<32} "
                f"{dispatches.value / run.total_s:.1f}"
            )
        return lines
