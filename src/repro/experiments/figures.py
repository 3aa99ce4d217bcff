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
400) and ``REPRO_FIG_SEEDS`` (seeds averaged per point, default 6, the
fewest at which a claim's sign test can resolve) —
environment variables so the pytest-benchmark suite stays
argument-free.  ``REPRO_FIG_WORKERS`` (default: all cores but one)
parallelises the sweep cells; ``run_figure`` also takes an explicit
``workers`` argument, with every other sweep option.  Parallel results are
bitwise-identical to serial ones (see :mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.analysis.compare import SignCount, sign_count
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
    return int(os.environ.get("REPRO_FIG_JOBS", "400"))


def default_seeds() -> tuple[int, ...]:
    """Seeds averaged per sweep point (env-tunable)."""
    return tuple(range(int(os.environ.get("REPRO_FIG_SEEDS", "6"))))


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
        return [(x, getattr(r, self.metric)) for x, r in self.series[label]]


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
        "avg_bounded_slowdown",
        series=(("a=0.0", 0.0, 1.0), ("a=0.1", 0.1, 1.0), ("a=0.9", 0.9, 1.0)),
    ),
    # Fig. 4: loads c=1.0/1.2 (the paper does not state the confidence —
    # we use a=0.1, its headline operating point).
    "fig4": _FigureSpec(
        "failure_rate",
        "Slowdown vs failure rate under load scaling (SDSC)",
        "avg_bounded_slowdown",
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
        "avg_bounded_slowdown",
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
        "avg_bounded_slowdown",
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


# ----------------------------------------------------------------------
# The paper's claims: one table, one evaluator
# ----------------------------------------------------------------------
# A row names the figures it reads, the SweepResult metric, its per-seed
# statistic, the verdict recorded at smoke scale (200 jobs x 6 seeds; the
# test suite asserts it) and ``delta(v, cells)``: the statistic in one
# seed, negative where the claim holds.  ``v(label, x, figure)`` reads
# the metric in that seed (``figure`` defaults to the row's first), and
# ``cells`` lists every cell at hand as ``(figure, label, x, one-seed
# result)``.  A claim's verdict is ``SignCount.verdict`` over the seeds.
# An invariant row's ``delta`` returns whether the seed satisfies it, and
# the row is ``violated`` unless every seed does; one that names no
# figures reads every figure at hand.

#: x values of Figs. 3-5 with failures on.
_FAILING = tuple(float(n) for n in PAPER_FAILURE_AXIS[1:])
_PANELS = tuple(f"{site} c={c}" for site in ("sdsc", "nasa", "llnl") for c in (1.0, 1.2))


class _Claim(NamedTuple):
    figures: tuple[str, ...]
    metric: str
    statistic: str
    smoke: str
    delta: Callable
    invariant: bool = False


_CLAIMS: dict[str, _Claim] = {
    "capacity-conserved": _Claim((), "utilized+unused+lost", "sum to 1 in each cell", "holds",
        lambda v, c: all(abs(r.utilized + r.unused + r.lost - 1) < 1e-6 for *_, r in c), True),
    "metrics-non-negative": _Claim((), "utilized, unused, kills", "none negative", "holds",
        lambda v, c: all(min(r.utilized, r.unused, r.job_kills) >= 0 for *_, r in c), True),
    "x-axis-sorted": _Claim((), "x", "strictly increasing along each series", "holds",
        lambda v, c: all(a[2] < b[2] for a, b in zip(c, c[1:]) if a[:2] == b[:2]), True),
    "no-failures-no-kills": _Claim((), "job_kills", "zero at x=0 of Figs. 3-5", "holds",
        lambda v, c: all(r.job_kills == 0 for f, _, x, r in c
                         if x == 0 and _FIGURES[f].kind == "failure_rate"), True),
    # Balancing at confidence 0 and tie-break at accuracy 0 are both
    # Krevat: one distinct a=0 result per panel across the two figures.
    "a0-is-krevat": _Claim(("fig6", "fig9"), "every metric", "fig6 equals fig9 at a=0", "holds",
        lambda v, c: len({(label, replace(r, point=None)) for f, label, x, r in c
                          if x == 0 and f in ("fig6", "fig9")}) == len(_PANELS), True),
    "failures-degrade-slowdown": _Claim(("fig3",), "avg_bounded_slowdown",
        "x=0 minus x=4000, largest over a", "holds",
        lambda v, _: max(v(a, 0.0) - v(a, 4000.0) for a in ("a=0.0", "a=0.1", "a=0.9"))),
    "slowdown-saturates": _Claim(("fig3",), "avg_bounded_slowdown",
        "a=0 rise over 2000..4000 minus rise over 0..2000", "unresolved",
        lambda v, _: v("a=0.0", 4000.0) - 2 * v("a=0.0", 2000.0) + v("a=0.0", 0.0)),
    **{
        f"a0.1-recovers-{name}": _Claim(("fig3",), metric,
            "a=0.1 minus a=0, summed over x>0", smoke,
            lambda v, _: sum(v("a=0.1", x) - v("a=0.0", x) for x in _FAILING))
        for name, metric, smoke in (("kills", "job_kills", "holds"), ("lost", "lost", "unresolved"),
                                    ("slowdown", "avg_bounded_slowdown", "unresolved"))
    },
    "a0.9-adds-little": _Claim(("fig3",), "job_kills",
        "gain a=0.1 -> a=0.9 minus gain a=0 -> a=0.1, summed over x>0", "holds",
        lambda v, _: sum(2 * v("a=0.1", x) - v("a=0.9", x) - v("a=0.0", x) for x in _FAILING)),
    "load-raises-slowdown": _Claim(("fig4",), "avg_bounded_slowdown",
        "c=1.0 minus c=1.2, summed over x", "unresolved",
        lambda v, _: sum(v("c=1.0", x) - v("c=1.2", x) for x in (0.0, *_FAILING))),
    "load-raises-slowdown-everywhere": _Claim(("fig4",), "avg_bounded_slowdown",
        "c=1.0 minus c=1.2, largest over x", "unresolved",
        lambda v, _: max(v("c=1.0", x) - v("c=1.2", x) for x in (0.0, *_FAILING))),
    "failures-lose-capacity": _Claim(("fig5",), "lost",
        "x=0 minus x=4000, largest over c", "holds",
        lambda v, _: max(v(c, 0.0) - v(c, 4000.0) for c in ("c=1.0", "c=1.2"))),
    "load-leaves-less-unused": _Claim(("fig5",), "unused",
        "c=1.2 minus c=1.0, summed over x", "holds",
        lambda v, _: sum(v("c=1.2", x) - v("c=1.0", x) for x in (0.0, *_FAILING))),
    **{
        f"balancing-lowers-{name}-{site}": _Claim((fig,), metric,
            "a=1.0 minus a=0, summed over c", smoke,
            lambda v, _, site=site: sum(v(p, 1.0) - v(p, 0.0) for p in _PANELS if site in p))
        for fig, name, metric, site, smoke in (
            ("fig6", "kills", "job_kills", "sdsc", "holds"),
            ("fig6", "kills", "job_kills", "nasa", "unresolved"),
            ("fig6", "kills", "job_kills", "llnl", "unresolved"),
            ("fig7", "lost", "lost", "sdsc", "holds"),
            ("fig8", "lost", "lost", "nasa", "unresolved"),
        )
    },
    "balancing-lowers-slowdown-sdsc": _Claim(("fig6",), "avg_bounded_slowdown",
        "a=0.1 minus a=0, summed over c", "unresolved",
        lambda v, _: sum(v(p, 0.1) - v(p, 0.0) for p in _PANELS[:2])),
    "load-raises-utilization-nasa": _Claim(("fig8",), "utilized",
        "c=1.0 minus c=1.2, summed over a", "unresolved",
        lambda v, _: sum(v("nasa c=1.0", a) - v("nasa c=1.2", a) for a in PAPER_PARAMETER_AXIS)),
    "tiebreak-lowers-kills": _Claim(("fig9",), "job_kills",
        "a=1.0 minus a=0, summed over the six panels", "holds",
        lambda v, _: sum(v(p, 1.0) - v(p, 0.0) for p in _PANELS)),
    "tiebreak-helps-less-than-balancing": _Claim(("fig6", "fig9"), "job_kills",
        "balancing minus tie-break, summed over a>0 and the six panels", "holds",
        lambda v, _: sum(v(p, a) - v(p, a, "fig9") for p in _PANELS
                         for a in PAPER_PARAMETER_AXIS[1:])),
    "tiebreak-load-leaves-less-unused": _Claim(("fig10",), "unused",
        "c=1.2 minus c=1.0, summed over a", "holds",
        lambda v, _: sum(v("llnl c=1.2", a) - v("llnl c=1.0", a) for a in PAPER_PARAMETER_AXIS)),
}


class ClaimVerdict(NamedTuple):
    """One row's per-seed sign count and the verdict it gives."""

    name: str
    claim: _Claim
    signs: SignCount
    verdict: str


def evaluate_claims(figures: Mapping[str, FigureResult]) -> list[ClaimVerdict]:
    """Verdict of every claim whose figures are all at hand, each cell
    paired with the same seed's cells through ``SweepResult.per_seed``."""
    seeds = {len(r.per_seed) for f in figures.values() for rows in f.series.values()
             for _, r in rows} | {0 for f in figures.values() if not f.series}
    if set(figures) - set(_FIGURES) or len(seeds) > 1 or 0 in seeds:
        raise ExperimentError(f"claims read registry figures with series over one seed "
                              f"set, not {sorted(figures)} over {sorted(seeds)} seeds")
    by_seed = [[(f, label, x, r.per_seed[s]) for f, result in figures.items()
                for label, rows in result.series.items() for x, r in rows]
               for s in range(max(seeds, default=0))]
    verdicts = []
    for name, claim in _CLAIMS.items():
        if figures and set(claim.figures) <= figures.keys():
            deltas = [claim.delta(_reader(claim, cells), cells) for cells in by_seed]
            signs = sign_count([1 - 2 * ok for ok in deltas] if claim.invariant else deltas)
            verdict = signs.verdict if not claim.invariant else (
                "violated" if signs.higher else "holds")
            verdicts.append(ClaimVerdict(name, claim, signs, verdict))
    return verdicts


def _reader(claim: _Claim, cells) -> Callable:
    index = {cell[:3]: cell[3] for cell in cells}
    return lambda label, x, figure=(*claim.figures, "")[0]: getattr(
        index[figure, label, x], claim.metric
    )


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
    n_jobs = default_n_jobs() if n_jobs is None else n_jobs
    seeds = default_seeds() if seeds is None else tuple(seeds)
    if n_jobs < 1:
        raise ExperimentError(f"figure {figure}: n_jobs must be >= 1, got {n_jobs}")
    if not seeds:
        raise ExperimentError(f"figure {figure}: needs at least one seed")
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
