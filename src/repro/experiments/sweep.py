"""Sweep execution with multi-seed averaging.

A :class:`SweepPoint` pins every axis of one experiment cell; the runner
executes it across seeds and averages the metrics, because single-seed
failure placement is noisy at the modest failure counts a short synthetic
trace implies.

Within a sweep the *workload* is held fixed across the swept parameter
(the paper replays one log per figure) by seeding the workload draw from
the base seed only; failure logs for a failure-count axis are *nested* —
lower counts are thinned from the same master log — mirroring the
paper's "artificially varying the number of failures" on one trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.core.config import SimulationConfig
from repro.core.policies.base import SchedulingPolicy
from repro.core.policies.registry import make_policy
from repro.errors import ExperimentError
from repro.obs.aggregate import SweepObsCollector
from repro.obs.log import get_logger
from repro.failures.events import FailureLog
from repro.failures.scaling import rescale_failures
from repro.failures.synthetic import (
    BurstFailureModel,
    failure_horizon_s,
    generate_failures,
)
from repro.metrics.report import SimulationReport
from repro.prediction.base import PartitionFailureRule
from repro.workloads.job import Workload
from repro.workloads.models import site_model
from repro.workloads.scaling import fit_to_machine, scale_load
from repro.workloads.synthetic import generate_workload


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep grid."""

    site: str
    n_jobs: int
    load_scale: float
    n_failures: int
    policy: str
    parameter: float
    pf_rule: PartitionFailureRule = PartitionFailureRule.MAX
    config: SimulationConfig = field(default_factory=SimulationConfig)


@dataclass(frozen=True)
class SweepResult:
    """Seed-averaged metrics for one sweep point; ``per_seed`` holds the
    one-seed results (in seed order) that claims pair across series."""

    point: SweepPoint
    n_seeds: int
    avg_bounded_slowdown: float
    avg_response: float
    avg_wait: float
    utilized: float
    unused: float
    lost: float
    job_kills: float
    failures_hit_jobs: float
    per_seed: tuple["SweepResult", ...] = ()

    @classmethod
    def from_reports(cls, point: SweepPoint, reports: Sequence[SimulationReport]) -> "SweepResult":
        if not reports:
            raise ExperimentError("cannot aggregate zero reports")
        n = len(reports)
        rows = []
        for r in reports:
            _check_report_consistency(r)
            rows.append(
                (
                    r.timing.avg_bounded_slowdown,
                    r.timing.avg_response,
                    r.timing.avg_wait,
                    r.capacity.utilized,
                    r.capacity.unused,
                    r.capacity.lost,
                    r.counters.job_kills,
                    r.counters.failures_hit_jobs,
                )
            )
        # Row columns mirror the metric-field declaration order above.
        means = [math.fsum(col) / n for col in zip(*rows)]
        return cls(point, n, *means, per_seed=tuple(cls(point, 1, *row) for row in rows))


#: Float-error tolerance on capacity fractions (matches the
#: ``CapacitySummary.__post_init__`` bound).
_LOST_EPS = 1e-9


def _check_report_consistency(report: SimulationReport) -> None:
    """Reject reports whose counters contradict their capacity accounting.

    ``lost`` capacity also absorbs fragmentation and scheduling delay, so
    it may be positive without kills; the invertible direction is the
    counter one: a run that killed jobs must report the kills coherently
    (every kill is a failure that hit a job), and a run with zero
    failures hitting jobs cannot have recorded kills.
    """
    counters = report.counters
    if counters.job_kills != counters.failures_hit_jobs:
        raise ExperimentError(
            f"inconsistent report: job_kills={counters.job_kills} != "
            f"failures_hit_jobs={counters.failures_hit_jobs} "
            f"(transient failures kill exactly the job they hit)"
        )
    if report.capacity.lost < -_LOST_EPS:
        raise ExperimentError(
            f"inconsistent report: negative lost capacity "
            f"{report.capacity.lost}"
        )
    if (
        counters.job_kills > 0
        and report.n_failures == 0
    ):
        raise ExperimentError(
            f"inconsistent report: {counters.job_kills} job kills recorded "
            f"against an empty failure log"
        )


# ----------------------------------------------------------------------
# workload / failure-log caches: sweeps share these across cells
# ----------------------------------------------------------------------

_workload_cache: dict[tuple, Workload] = {}
_master_log_cache: dict[tuple, FailureLog] = {}

#: Entries an input cache holds before it is emptied: bounds memory in
#: the long-lived processes that fill them (the calling process, warm
#: pool workers, queue workers).
_MAX_CACHE_ENTRIES = 64

#: Master failure logs are generated at this count and thinned down, so a
#: failure-count axis is nested (monotone by construction).  Tests and
#: benches shrink it, so everything cached below is keyed by it.
MASTER_FAILURE_COUNT = 8192


def _cache_put(cache: dict, key: tuple, value) -> None:
    if len(cache) >= _MAX_CACHE_ENTRIES:
        cache.clear()
    cache[key] = value


def _workload_for(point: SweepPoint, seed: int) -> Workload:
    key = (point.site, point.n_jobs, point.load_scale, seed, point.config.dims.as_tuple())
    workload = _workload_cache.get(key)
    if workload is None:
        raw = generate_workload(site_model(point.site), point.n_jobs, seed=seed)
        workload = fit_to_machine(scale_load(raw, point.load_scale), point.config.dims)
        _cache_put(_workload_cache, key, workload)
    return workload


def _failures_for(
    point: SweepPoint, workload: Workload, seed: int, model: BurstFailureModel
) -> FailureLog:
    horizon = failure_horizon_s(workload.span)
    key = (
        point.config.dims.as_tuple(), round(horizon, 3), seed, model,
        MASTER_FAILURE_COUNT,
    )
    master = _master_log_cache.get(key)
    if master is None:
        master = generate_failures(
            point.config.dims, MASTER_FAILURE_COUNT, horizon, model=model, seed=seed + 1
        )
        _cache_put(_master_log_cache, key, master)
    if point.n_failures > MASTER_FAILURE_COUNT:
        raise ExperimentError(
            f"n_failures {point.n_failures} exceeds master log size "
            f"{MASTER_FAILURE_COUNT}"
        )
    return rescale_failures(master, point.n_failures, seed=seed + 2)


_result_cache: dict[tuple, SweepResult] = {}


def result_cache_key(
    point: SweepPoint, seeds: tuple[int, ...], model: BurstFailureModel
) -> tuple:
    """Key of one seed-averaged result in the in-memory memo."""
    return (point, seeds, model, MASTER_FAILURE_COUNT)


logger = get_logger(__name__)

#: One sweep cell: ``((point_index, seed_index), point, seed)``.
Cell = tuple[tuple[int, int], SweepPoint, int]


def enumerate_cells(
    points: Sequence[SweepPoint], indices: Iterable[int], seeds: Sequence[int]
) -> list[Cell]:
    """The cells of ``points[indices] x seeds``, seed-major.

    The expensive per-cell inputs (workload draw, master failure log)
    depend on the seed but not on the swept parameter, so neighbouring
    cells share a seed and hit the caches above.
    """
    indices = list(indices)
    return [
        ((i, si), points[i], seed)
        for si, seed in enumerate(seeds)
        for i in indices
    ]


def merge_reports(
    points: Sequence[SweepPoint],
    indices: Iterable[int],
    seeds: tuple[int, ...],
    model: BurstFailureModel,
    reports: dict[tuple[int, int], SimulationReport],
) -> list[SweepResult | None]:
    """Average ``(point_index, seed_index)``-keyed reports per point.

    One result per index, in order, aggregated in seed order whatever
    order the cells finished in.  A point missing some seeds (lost to
    quarantine) averages over the ones present; one missing all of them
    is ``None``.  Only complete points enter the in-memory memo: a
    partial average must never masquerade as the real one.
    """
    merged: list[SweepResult | None] = []
    for i in indices:
        present = [
            reports[(i, si)] for si in range(len(seeds)) if (i, si) in reports
        ]
        if not present:
            logger.warning(
                "sweep point %d lost every seed; its result is None", i
            )
            merged.append(None)
            continue
        result = SweepResult.from_reports(points[i], present)
        if len(present) == len(seeds):
            _result_cache[result_cache_key(points[i], seeds, model)] = result
        merged.append(result)
    return merged


def cell_inputs(
    point: SweepPoint, seed: int, model: BurstFailureModel, with_obs: bool
) -> tuple[Workload, FailureLog, SchedulingPolicy, SimulationConfig]:
    """The simulator arguments of one ``(point, seed)`` cell.

    :func:`repro.experiments.pool.run_cell` runs every cell on them; the
    module caches above memoise the inputs in each worker.  ``with_obs``
    forces metrics collection (``profile=True``) so sweep observability
    works even when the point's config only asks for traces — or for
    neither; tracing itself stays governed by ``point.config.trace``.
    Profiling is observational, so the report is identical either way.
    """
    workload = _workload_for(point, seed)
    failures = _failures_for(point, workload, seed, model)
    policy = make_policy(
        point.policy,
        failure_log=failures,
        parameter=point.parameter,
        pf_rule=point.pf_rule,
        seed=seed + 3,
    )
    config = replace(point.config, seed=seed + 4)
    if with_obs:
        config = replace(config, profile=True)
    return workload, failures, policy, config


def run_point(
    point: SweepPoint,
    seeds: Iterable[int] = (0, 1, 2),
    failure_model: BurstFailureModel | None = None,
    collector: SweepObsCollector | None = None,
) -> SweepResult:
    """Run one sweep cell across ``seeds`` and average: a one-point
    :func:`run_sweep`.

    Results are memoised on ``(point, seeds, model)`` — different paper
    figures share many cells (e.g. Figs. 4 and 5 plot different metrics
    of the same sweep), so a full benchmark session reuses them.  An
    observability ``collector`` bypasses the memo on read (a cached
    result has no metrics or trace to contribute), receives every cell's
    payload keyed by ``(0, seed index)`` and is finalized on return.
    """
    return run_sweep([point], seeds, failure_model, collector=collector)[0]


def run_sweep(
    points: Sequence[SweepPoint],
    seeds: Iterable[int] = (0, 1, 2),
    failure_model: BurstFailureModel | None = None,
    workers: int | None = None,
    collector: SweepObsCollector | None = None,
    **options,
) -> list[SweepResult]:
    """Run every cell of a sweep.

    ``workers`` > 1 fans the ``(point, seed)`` cells out over the warm
    process pool (see :mod:`repro.experiments.parallel`); results are
    collected in point order and are bitwise-identical to the serial
    path.  ``None`` or ``1`` runs in-process, as does any platform
    without ``fork`` or any sweep smaller than the executor's
    ``min_cells_per_worker`` cutover (override it here; 0 forces the
    pool).

    A :class:`~repro.obs.aggregate.SweepObsCollector` receives every
    cell's metrics registry (and trace, when ``point.config.trace`` is
    on) and merges them in deterministic cell order — parallel and
    serial sweeps aggregate to identical metrics.  The collector is
    finalized before this function returns.

    ``options`` are the fields of
    :class:`~repro.experiments.parallel.SweepExecutor`, forwarded by
    :func:`run_sweep_outcome`, which also returns the quarantine and
    resilience stats.  With resilience on, a result entry is ``None``
    only when every seed of that point was quarantined as poison.
    """
    return run_sweep_outcome(
        points, seeds, failure_model, workers, collector, **options
    ).results


def run_sweep_outcome(
    points: Sequence[SweepPoint],
    seeds: Iterable[int] = (0, 1, 2),
    failure_model: BurstFailureModel | None = None,
    workers: int | None = None,
    collector: SweepObsCollector | None = None,
    **options,
):
    """Run a sweep and return the full
    :class:`~repro.resilience.ResilientSweepOutcome`.

    Every sweep runs through the one dispatch loop of
    :class:`~repro.experiments.parallel.SweepExecutor`; ``options`` are
    that class's fields, declared and documented there and nowhere else.
    Here ``workers=None`` means 1.  The ``collector`` is finalized on the
    way out.
    """
    from repro.experiments.parallel import SweepExecutor

    executor = SweepExecutor(workers=1 if workers is None else workers, **options)
    try:
        return executor.run_outcome(
            points, seeds, failure_model, collector=collector
        )
    finally:
        if collector is not None:
            collector.finalize()
