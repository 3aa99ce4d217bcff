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
parallelises the sweep cells; ``run_figure`` and every ``figN``
(``run_figure`` with the name bound) also take an explicit ``workers``
argument, with every other sweep option.  Parallel results are
bitwise-identical to serial ones (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from repro.errors import ExperimentError
from repro.experiments.parallel import default_workers
from repro.experiments.sweep import (
    SweepPoint,
    SweepResult,
    _workload_for,
    run_sweep_outcome,
)
from repro.failures.synthetic import failure_horizon_s
from repro.resilience import incomplete_points

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
# Figures 3-10: one table, one runner
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _FigureSpec:
    """One row of the figure table.

    ``kind`` is the sweep shape: ``"failure_rate"`` plots ``metric``
    against the paper failure-count axis on ``sites[0]``, one series per
    ``(label, a, c)`` of ``series``; ``"parameter"`` plots it against the
    prediction parameter at the site's paper failure count, one series
    per ``sites x loads``.
    """

    kind: str
    title: str
    metric: str
    policy: str = "balancing"
    series: tuple[tuple[str, float, float], ...] = ()
    sites: tuple[str, ...] = ("sdsc",)
    loads: tuple[float, ...] = (1.0, 1.2)


_FIGURES: dict[str, _FigureSpec] = {
    # Fig. 3: a in {0 (no prediction), 0.1, 0.9}.
    "fig3": _FigureSpec(
        "failure_rate",
        "Slowdown vs failure rate, with/without prediction (SDSC)",
        "bounded_slowdown",
        series=(("a=0.0", 0.0, 1.0), ("a=0.1", 0.1, 1.0), ("a=0.9", 0.9, 1.0)),
    ),
    # Fig. 4: loads c=1.0/1.2 (the paper does not state the confidence —
    # we use a=0.1, its headline operating point).
    "fig4": _FigureSpec(
        "failure_rate",
        "Slowdown vs failure rate under load scaling (SDSC)",
        "bounded_slowdown",
        series=(("c=1.0", 0.1, 1.0), ("c=1.2", 0.1, 1.2)),
    ),
    # Fig. 5: a=0.1, panels c=1.0 and c=1.2.
    "fig5": _FigureSpec(
        "failure_rate",
        "Utilization vs failure rate (SDSC)",
        "utilized",
        series=(("c=1.0", 0.1, 1.0), ("c=1.2", 0.1, 1.2)),
    ),
    # Figs. 6-8: balancing, x = confidence.
    "fig6": _FigureSpec(
        "parameter",
        "Slowdown vs prediction confidence (balancing)",
        "bounded_slowdown",
        sites=("sdsc", "nasa", "llnl"),
    ),
    "fig7": _FigureSpec(
        "parameter", "Utilization vs confidence (SDSC, balancing)", "utilized"
    ),
    "fig8": _FigureSpec(
        "parameter",
        "Utilization vs confidence (NASA, balancing)",
        "utilized",
        sites=("nasa",),
    ),
    # Figs. 9-10: tie-breaking, x = accuracy.
    "fig9": _FigureSpec(
        "parameter",
        "Slowdown vs prediction accuracy (tie-breaking)",
        "bounded_slowdown",
        policy="tiebreak",
        sites=("sdsc", "nasa", "llnl"),
    ),
    "fig10": _FigureSpec(
        "parameter",
        "Utilization vs accuracy (LLNL, tie-breaking)",
        "utilized",
        policy="tiebreak",
        sites=("llnl",),
    ),
}


def _series_points(
    spec: _FigureSpec, n_jobs: int, seed: int
) -> list[tuple[str, list[tuple[float, SweepPoint]]]]:
    """``(label, [(x, point), ...])`` per series of the figure."""

    def rows(site: str, c: float, axis) -> list[tuple[float, SweepPoint]]:
        horizon = _horizon_s(site, n_jobs, c, seed=seed)
        return [
            (
                x,
                SweepPoint(
                    site=site,
                    n_jobs=n_jobs,
                    load_scale=c,
                    n_failures=paper_failures_to_sim(paper_count, horizon),
                    policy=spec.policy,
                    parameter=a,
                ),
            )
            for x, paper_count, a in axis
        ]

    if spec.kind == "failure_rate":
        return [
            (
                label,
                rows(spec.sites[0], c, [(float(n), n, a) for n in PAPER_FAILURE_AXIS]),
            )
            for label, a, c in spec.series
        ]
    return [
        (
            f"{site} c={c}",
            rows(
                site,
                c,
                [(a, PAPER_SITE_FAILURES[site], a) for a in PAPER_PARAMETER_AXIS],
            ),
        )
        for site in spec.sites
        for c in spec.loads
    ]


def figure_registry() -> tuple[str, ...]:
    """Names of all regenerable figures."""
    return tuple(_FIGURES)


def run_figure(
    name: str,
    n_jobs: int | None = None,
    seeds: Sequence[int] | None = None,
    **sweep_options,
) -> FigureResult:
    """Regenerate one figure by name (``fig3`` .. ``fig10``).

    ``sweep_options`` (``workers``, ``checkpoint_dir``, ``retry``,
    ``resume``, ``queue_dir``, ...) go to
    :func:`~repro.experiments.sweep.run_sweep_outcome`, the one place
    they are declared; ``workers`` defaults to all cores but one.

    Every series' points run as one flat sweep and are sliced back:
    flattening before fanning out lets a figure's whole grid saturate
    the pool instead of one series at a time.  With ``checkpoint_dir``
    the flat sweep checkpoints each cell (content-addressed, so a re-run
    resumes exactly); a figure whose sweep quarantined cells is an error
    — every point of a figure is required — but the completed cells are
    already durable, so the retry costs only the quarantined cells.
    """
    figure = name.lower()
    try:
        spec = _FIGURES[figure]
    except KeyError:
        raise ExperimentError(
            f"unknown figure {name!r}; available: {', '.join(_FIGURES)}"
        ) from None
    n_jobs = n_jobs or default_n_jobs()
    seeds = tuple(seeds or default_seeds())
    if spec.kind == "failure_rate":
        x_label = "paper failure count"
    else:
        x_label = "confidence" if spec.policy == "balancing" else "accuracy"
    result = FigureResult(figure, spec.title, x_label, spec.metric)
    series_points = _series_points(spec, n_jobs, seeds[0])
    if sweep_options.get("workers") is None:
        sweep_options["workers"] = default_workers()
    outcome = run_sweep_outcome(
        [p for _, rows in series_points for _, p in rows], seeds, **sweep_options
    )
    short = incomplete_points(outcome, seeds)
    if short:
        checkpoint_dir = sweep_options.get("checkpoint_dir")
        raise ExperimentError(
            f"figure {figure} sweep quarantined cells of "
            f"{len(short)} points (indices {short[:8]}); completed cells "
            f"are checkpointed{' in ' + str(checkpoint_dir) if checkpoint_dir else ''} "
            f"— inspect quarantine.json and rerun"
        )
    cursor = 0
    for label, rows in series_points:
        result.series[label] = [
            (x, outcome.results[cursor + k]) for k, (x, _) in enumerate(rows)
        ]
        cursor += len(rows)
    return result


fig3 = partial(run_figure, "fig3")
fig4 = partial(run_figure, "fig4")
fig5 = partial(run_figure, "fig5")
fig6 = partial(run_figure, "fig6")
fig7 = partial(run_figure, "fig7")
fig8 = partial(run_figure, "fig8")
fig9 = partial(run_figure, "fig9")
fig10 = partial(run_figure, "fig10")
