"""Regenerators for every quantitative figure of the paper (Figs. 3-10).

Scale mapping
-------------
The paper replays multi-month job logs against a one-year failure trace
and quotes absolute failure *counts* (0..4000).  A synthetic run covers
days, not years, so counts are mapped rate-preservingly:

    ``n_sim = ceil(n_paper * horizon_days / 365)``

where the horizon is the failure-injection window of the simulated
trace.  The *rates* (failures per machine-day) therefore match the
paper's, which is what its phenomena depend on; see EXPERIMENTS.md.

Knobs
-----
Figure fidelity scales with ``REPRO_FIG_JOBS`` (jobs per run, default
500) and ``REPRO_FIG_SEEDS`` (seeds averaged per point, default 2) —
environment variables so the pytest-benchmark suite stays
argument-free.  ``REPRO_FIG_WORKERS`` (default: all cores but one)
parallelises the sweep cells; every ``figN`` function also takes an
explicit ``workers`` argument.  Parallel results are bitwise-identical
to serial ones (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ExperimentError
from repro.experiments.parallel import default_workers
from repro.experiments.sweep import (
    SweepPoint,
    SweepResult,
    _workload_for,
    run_sweep_outcome,
)
from repro.failures.synthetic import failure_horizon_s
from repro.resilience import RetryPolicy, incomplete_points

#: Paper failure-count axis for the failure-rate studies (Figs. 3-5).
PAPER_FAILURE_AXIS = tuple(range(0, 4001, 500))
#: Paper prediction-parameter axis (confidence / accuracy, Figs. 6-10).
PAPER_PARAMETER_AXIS = tuple(round(0.1 * i, 1) for i in range(11))
#: Paper per-site failure counts for the parameter sweeps (§6.2).
PAPER_SITE_FAILURES = {"nasa": 4000, "sdsc": 4000, "llnl": 1000}

_SECONDS_PER_YEAR = 365.0 * 86_400.0


def default_n_jobs() -> int:
    """Jobs per simulated run (env-tunable)."""
    return int(os.environ.get("REPRO_FIG_JOBS", "500"))


def default_seeds() -> tuple[int, ...]:
    """Seeds averaged per sweep point (env-tunable)."""
    return tuple(range(int(os.environ.get("REPRO_FIG_SEEDS", "2"))))


def _horizon_s(site: str, n_jobs: int, load_scale: float, seed: int = 0) -> float:
    """Failure-injection horizon of a run: that of the workload the
    sweep's own cells will replay (only a point's workload axes matter
    here)."""
    point = SweepPoint(site, n_jobs, load_scale, 0, "krevat", 0.0)
    return failure_horizon_s(_workload_for(point, seed).span)


def paper_failures_to_sim(paper_count: int, horizon_s: float) -> int:
    """Rate-preserving mapping from a paper failure count to this run."""
    if paper_count < 0:
        raise ExperimentError("paper failure count must be >= 0")
    return math.ceil(paper_count * horizon_s / _SECONDS_PER_YEAR)


@dataclass
class FigureResult:
    """Output of one figure regeneration.

    ``series`` maps a legend label to ``(x, result)`` pairs along the
    figure's x axis.
    """

    figure: str
    title: str
    x_label: str
    metric: str
    series: dict[str, list[tuple[float, SweepResult]]] = field(default_factory=dict)

    def metric_values(self, label: str) -> list[tuple[float, float]]:
        """(x, metric) pairs for one series."""
        getter = {
            "bounded_slowdown": lambda r: r.avg_bounded_slowdown,
            "response": lambda r: r.avg_response,
            "utilized": lambda r: r.utilized,
        }[self.metric]
        return [(x, getter(r)) for x, r in self.series[label]]


# ----------------------------------------------------------------------
# shared sweep shapes
# ----------------------------------------------------------------------

def _assemble_series(
    result: FigureResult,
    series_points: list[tuple[str, list[tuple[float, SweepPoint]]]],
    seeds: tuple[int, ...],
    workers: int | None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Run every series' points as one flat sweep and slice them back.

    Flattening across series before fanning out maximises parallelism —
    a figure's whole grid saturates the pool instead of one series at a
    time.  With ``checkpoint_dir`` the flat sweep checkpoints each cell
    (content-addressed, so a re-run resumes exactly); a figure whose
    sweep quarantined cells is an error — every point of a figure is
    required — but the completed cells are already durable, so the
    retry costs only the quarantined cells.
    """
    flat = [p for _, rows in series_points for _, p in rows]
    workers = workers if workers is not None else default_workers()
    outcome = run_sweep_outcome(
        flat,
        seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )
    short = incomplete_points(outcome, seeds)
    if short:
        raise ExperimentError(
            f"figure {result.figure} sweep quarantined cells of "
            f"{len(short)} points (indices {short[:8]}); completed cells "
            f"are checkpointed{' in ' + str(checkpoint_dir) if checkpoint_dir else ''} "
            f"— inspect quarantine.json and rerun"
        )
    sweep_results = outcome.results
    cursor = 0
    for label, rows in series_points:
        result.series[label] = [
            (x, sweep_results[cursor + k]) for k, (x, _) in enumerate(rows)
        ]
        cursor += len(rows)
    return result


def _failure_rate_sweep(
    figure: str,
    title: str,
    series_spec: Sequence[tuple[str, float, float]],  # (label, a, c)
    metric: str,
    site: str = "sdsc",
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    policy: str = "balancing",
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    n_jobs = n_jobs or default_n_jobs()
    seeds = tuple(seeds or default_seeds())
    result = FigureResult(figure, title, "paper failure count", metric)
    series_points: list[tuple[str, list[tuple[float, SweepPoint]]]] = []
    for label, a, c in series_spec:
        horizon = _horizon_s(site, n_jobs, c, seed=seeds[0])
        rows = [
            (
                float(paper_count),
                SweepPoint(
                    site=site,
                    n_jobs=n_jobs,
                    load_scale=c,
                    n_failures=paper_failures_to_sim(paper_count, horizon),
                    policy=policy,
                    parameter=a,
                ),
            )
            for paper_count in PAPER_FAILURE_AXIS
        ]
        series_points.append((label, rows))
    return _assemble_series(
        result, series_points, seeds, workers,
        checkpoint_dir=checkpoint_dir, retry=retry, resume=resume,
        queue_dir=queue_dir,
    )


def _parameter_sweep(
    figure: str,
    title: str,
    policy: str,
    metric: str,
    sites: Sequence[str],
    loads: Sequence[float],
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    n_jobs = n_jobs or default_n_jobs()
    seeds = tuple(seeds or default_seeds())
    x_label = "confidence" if policy == "balancing" else "accuracy"
    result = FigureResult(figure, title, x_label, metric)
    series_points: list[tuple[str, list[tuple[float, SweepPoint]]]] = []
    for site in sites:
        for c in loads:
            horizon = _horizon_s(site, n_jobs, c, seed=seeds[0])
            n_failures = paper_failures_to_sim(PAPER_SITE_FAILURES[site], horizon)
            rows = [
                (
                    a,
                    SweepPoint(
                        site=site,
                        n_jobs=n_jobs,
                        load_scale=c,
                        n_failures=n_failures,
                        policy=policy,
                        parameter=a,
                    ),
                )
                for a in PAPER_PARAMETER_AXIS
            ]
            series_points.append((f"{site} c={c}", rows))
    return _assemble_series(
        result, series_points, seeds, workers,
        checkpoint_dir=checkpoint_dir, retry=retry, resume=resume,
        queue_dir=queue_dir,
    )


# ----------------------------------------------------------------------
# Figures 3-10
# ----------------------------------------------------------------------

def fig3(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 3: avg bounded slowdown vs failure rate, SDSC, balancing,
    a in {0 (no prediction), 0.1, 0.9}."""
    return _failure_rate_sweep(
        "fig3",
        "Slowdown vs failure rate, with/without prediction (SDSC)",
        [("a=0.0", 0.0, 1.0), ("a=0.1", 0.1, 1.0), ("a=0.9", 0.9, 1.0)],
        "bounded_slowdown",
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


def fig4(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 4: avg bounded slowdown vs failure rate for loads c=1.0/1.2
    (SDSC, balancing; the paper does not state the confidence — we use
    a=0.1, its headline operating point)."""
    return _failure_rate_sweep(
        "fig4",
        "Slowdown vs failure rate under load scaling (SDSC)",
        [("c=1.0", 0.1, 1.0), ("c=1.2", 0.1, 1.2)],
        "bounded_slowdown",
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


def fig5(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 5: utilization vs failure rate, SDSC, balancing (a=0.1),
    panels c=1.0 and c=1.2."""
    return _failure_rate_sweep(
        "fig5",
        "Utilization vs failure rate (SDSC)",
        [("c=1.0", 0.1, 1.0), ("c=1.2", 0.1, 1.2)],
        "utilized",
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


def fig6(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 6: avg bounded slowdown vs confidence, balancing, panels
    SDSC/NASA/LLNL, loads c=1.0 and c=1.2."""
    return _parameter_sweep(
        "fig6",
        "Slowdown vs prediction confidence (balancing)",
        "balancing",
        "bounded_slowdown",
        sites=("sdsc", "nasa", "llnl"),
        loads=(1.0, 1.2),
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


def fig7(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 7: utilization vs confidence, SDSC, balancing, c=1.0/1.2."""
    return _parameter_sweep(
        "fig7",
        "Utilization vs confidence (SDSC, balancing)",
        "balancing",
        "utilized",
        sites=("sdsc",),
        loads=(1.0, 1.2),
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


def fig8(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 8: utilization vs confidence, NASA, balancing, c=1.0/1.2."""
    return _parameter_sweep(
        "fig8",
        "Utilization vs confidence (NASA, balancing)",
        "balancing",
        "utilized",
        sites=("nasa",),
        loads=(1.0, 1.2),
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


def fig9(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 9: avg bounded slowdown vs accuracy, tie-breaking, panels
    SDSC/NASA/LLNL, loads c=1.0 and c=1.2."""
    return _parameter_sweep(
        "fig9",
        "Slowdown vs prediction accuracy (tie-breaking)",
        "tiebreak",
        "bounded_slowdown",
        sites=("sdsc", "nasa", "llnl"),
        loads=(1.0, 1.2),
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


def fig10(
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Fig. 10: utilization vs accuracy, LLNL, tie-breaking, c=1.0/1.2."""
    return _parameter_sweep(
        "fig10",
        "Utilization vs accuracy (LLNL, tie-breaking)",
        "tiebreak",
        "utilized",
        sites=("llnl",),
        loads=(1.0, 1.2),
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )


_FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
}


def figure_registry() -> tuple[str, ...]:
    """Names of all regenerable figures."""
    return tuple(_FIGURES)


def run_figure(
    name: str,
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    retry: RetryPolicy | None = None,
    resume: bool = True,
    queue_dir: str | None = None,
) -> FigureResult:
    """Regenerate one figure by name (``fig3`` .. ``fig10``)."""
    try:
        fn = _FIGURES[name.lower()]
    except KeyError:
        raise ExperimentError(
            f"unknown figure {name!r}; available: {', '.join(_FIGURES)}"
        ) from None
    return fn(
        n_jobs=n_jobs,
        seeds=seeds,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        retry=retry,
        resume=resume,
        queue_dir=queue_dir,
    )
