"""Spans recorded from outside the program.

The benchmark owns its instrumentation: :class:`SpanRecorder` replaces
public functions and methods of ``repro`` (class attributes, and the
by-name imports inside the consuming module) with timing wrappers for
the length of one traced pass and puts every original back afterwards.
``src/`` is not edited; spans inside the program are a later change.

Accounting: a span's *self* time is its duration minus the time its
child spans cover, so over any interval bracketed by a root span the
self times of all spans sum to the root's duration exactly.  Nested
spans of one name (``failure_mask`` calling ``nodes_failing_in``,
``drain`` calling ``pump``) count one call and one inclusive duration -
the outermost - while self time is still taken frame by frame.

Every wrapper keeps ``calls / total_s / self_s`` per name in place: two
clock reads and a few adds.  Points that fire at most a few thousand
times per run also append a ``(name, start, end, parent)`` record;
points on the hot path (``choose_partition`` runs ~10^5-10^6 times per
workload) do not, and what the wrappers cost is what
``bench.trace_overhead_ratio`` reports.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: ``counter name -> amount to add for this return value``.
Counters = dict[str, Callable[[Any], int]]


def _is_some(result: Any) -> int:
    return result is not None


@dataclass(frozen=True)
class Point:
    """One layer boundary: a span name and the attributes that carry it."""

    name: str
    #: ``(module, attribute path)`` pairs, e.g.
    #: ``("repro.core.simulator", "Simulator.pump")`` or
    #: ``("repro.core.simulator", "plan_compaction")``.
    targets: tuple[tuple[str, str], ...]
    counters: Counters = field(default_factory=dict)
    #: Fires often enough that per-call records would swamp memory.
    hot: bool = False


#: The layer boundaries of the measured paths, by ``repro`` module.
POINTS: tuple[Point, ...] = (
    Point(
        "workloads.read_swf",
        (("repro.workloads.swf", "read_swf"),),
        counters={"jobs": len},
    ),
    Point(
        "workloads.fit_to_machine",
        (("repro.workloads.scaling", "fit_to_machine"),),
    ),
    Point("core.arrivals.bind", (("repro.core.arrivals", "TraceArrivalStream.bind"),)),
    Point("core.simulator.init", (("repro.core.simulator", "Simulator.__init__"),)),
    Point(
        "core.simulator.submit_job",
        (("repro.core.simulator", "Simulator.submit_job"),),
        hot=True,
    ),
    Point("core.simulator.pump", (("repro.core.simulator", "Simulator.pump"),)),
    Point(
        "core.events.pop_batch",
        (("repro.core.events", "EventQueue.pop_batch"),),
        hot=True,
    ),
    Point("core.events.push", (("repro.core.events", "EventQueue.push"),), hot=True),
    Point(
        "allocation.index_get",
        (("repro.allocation.mfp", "IndexCache.get"),),
        hot=True,
    ),
    Point(
        "allocation.batch_mfp_losses",
        (("repro.allocation.mfp", "PlacementIndex.batch_mfp_losses"),),
        hot=True,
    ),
    Point(
        "core.policies.choose",
        (
            ("repro.core.policies.krevat", "KrevatPolicy.choose_partition"),
            ("repro.core.policies.balancing", "BalancingPolicy.choose_partition"),
            ("repro.core.policies.tiebreak", "TieBreakPolicy.choose_partition"),
        ),
        counters={"placed": _is_some},
        hot=True,
    ),
    Point(
        "prediction.score",
        (
            (
                "repro.prediction.balancing",
                "BalancingPredictor.partition_failure_probabilities",
            ),
            ("repro.prediction.tiebreak", "TieBreakPredictor.predict_failures"),
            (
                "repro.prediction.tiebreak",
                "TieBreakPredictor.partition_failure_probabilities",
            ),
        ),
        hot=True,
    ),
    Point(
        "failures.window_query",
        (
            ("repro.failures.events", "FailureLog.nodes_failing_in"),
            ("repro.failures.events", "FailureLog.failure_mask"),
        ),
        hot=True,
    ),
    Point(
        "core.backfill.shadow_time",
        (("repro.core.backfill", "ShadowTimeEngine.shadow_time"),),
        hot=True,
    ),
    Point(
        "core.migration.plan",
        (("repro.core.simulator", "plan_compaction"),),
        counters={"found": _is_some},
    ),
    Point("core.migration.apply", (("repro.core.simulator", "apply_compaction"),)),
    Point("geometry.allocate", (("repro.geometry.torus", "Torus.allocate"),), hot=True),
    Point("geometry.release", (("repro.geometry.torus", "Torus.release"),), hot=True),
    Point(
        "metrics.capacity_record",
        (("repro.metrics.capacity", "CapacityTracker.record"),),
        hot=True,
    ),
    Point("metrics.report_build", (("repro.metrics.report", "SimulationReport.build"),)),
    Point(
        "metrics.report_to_dict",
        (
            ("repro.metrics.serialize", "report_to_dict"),
            ("repro.serve.engine", "report_to_dict"),
        ),
    ),
    Point("obs.emit", (("repro.obs.trace", "TraceRecorder.emit"),), hot=True),
    Point("serve.protocol.decode", (("repro.serve.service", "decode_line"),), hot=True),
    Point(
        "serve.protocol.validate",
        (("repro.serve.engine", "validate_request"),),
        hot=True,
    ),
    Point(
        "serve.protocol.encode",
        (("repro.serve.service", "encode"),),
        counters={"bytes": len},
        hot=True,
    ),
    Point(
        "serve.admission.offer",
        (("repro.serve.admission", "FairShareAdmission.offer"),),
        counters={"rejected": _is_some},
        hot=True,
    ),
    Point(
        "serve.admission.release_next",
        (("repro.serve.admission", "FairShareAdmission.release_next"),),
        hot=True,
    ),
    Point("serve.engine.handle", (("repro.serve.engine", "ServeEngine.handle"),), hot=True),
)


class SpanRecorder:
    """Installs, aggregates and removes the timing wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: name -> [calls, total_s, self_s]
        self.agg: dict[str, list] = {}
        #: "<name>.<counter>" -> count
        self.counts: dict[str, int] = {}
        #: (name, start, end, parent name) of every non-hot call
        self.records: list[tuple[str, float, float, str | None]] = []
        self.first_start: float | None = None
        self.last_end: float | None = None
        self._stack: list[list] = []  # frames: [child seconds, name]
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        counters: Counters | None = None,
        hot: bool = False,
    ) -> Callable:
        """``fn`` with a span of ``name`` around every call."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        self._depth.setdefault(name, 0)
        counted = tuple(
            (f"{name}.{key}", amount) for key, amount in (counters or {}).items()
        )
        for key, _ in counted:
            self.counts.setdefault(key, 0)
        stack, depth, counts, clock = self._stack, self._depth, self.counts, self._clock
        records = None if hot else self.records

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                for key, amount in counted:
                    counts[key] += amount(result)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                agg[2] += duration - frame[0]
                if depth[name] == 0:
                    agg[0] += 1
                    agg[1] += duration
                if stack:
                    stack[-1][0] += duration
                else:
                    if self.first_start is None:
                        self.first_start = start
                    self.last_end = end
                if records is not None:
                    records.append(
                        (name, start, end, stack[-1][1] if stack else None)
                    )

        return span

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a root span; whatever no other span covers
        ends up as the root's self time."""
        return self.wrap(name, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self, points: tuple[Point, ...] = POINTS) -> None:
        """Replace every target of every point with its wrapper."""
        for point in points:
            for module_name, path in point.targets:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                self.patch(owner, attr, point.name, point.counters, point.hot)

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        counters: Counters | None = None,
        hot: bool = False,
    ) -> None:
        """Put a span of ``name`` around ``owner.attr``."""
        self.patch_with(owner, attr, lambda fn: self.wrap(name, fn, counters, hot))

    def patch_with(
        self, owner: Any, attr: str, decorate: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``owner.attr`` (a module global, or an attribute
        defined on the class ``owner`` itself) by ``decorate(original)``
        and remember the original for :meth:`restore`."""
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            wrapped: Any = type(original)(decorate(original.__func__))
        else:
            wrapped = decorate(original)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put every original attribute back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def table(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, total_s, self_s}`` for every wrapped name."""
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in self.agg.items()
        }

    def to_dict(self) -> dict[str, Any]:
        """Everything a child process ships back to the runner."""
        return {
            "table": self.table(),
            "counts": dict(self.counts),
            "first_start": self.first_start,
            "last_end": self.last_end,
        }


def layer_rows(table: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer - the ``repro`` module a span belongs to
    (``core.policies.choose`` -> ``core.policies``); with the root
    span's ``bench`` row they sum to the root's duration."""
    rows: dict[str, float] = {}
    for name, row in table.items():
        layer = name.rsplit(".", 1)[0]
        rows[layer] = rows.get(layer, 0.0) + row["self_s"]
    return rows
