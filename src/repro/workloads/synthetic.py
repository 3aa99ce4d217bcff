"""Synthetic trace generation from site models.

Arrivals follow a non-homogeneous Poisson process with a sinusoidal
day/night rate (thinning method); sizes mix a unit-job atom, power-of-two
spikes and a log-uniform body; runtimes are truncated lognormal; user
estimates are the actual runtime inflated by a lognormal factor (with an
atom of exact estimates).  Everything is driven by one
``numpy.random.default_rng`` seed, so identical parameters and seed give
identical traces.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.job import Job, Workload
from repro.workloads.models import DAY, SiteModel


#: Hour of day at which the diurnal arrival rate peaks (mid-afternoon,
#: matching the archive logs' submission profiles).
PEAK_HOUR = 14.0


def _draw_arrivals(model: SiteModel, n_jobs: int, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of ``n_jobs`` jobs via Poisson thinning.

    The instantaneous rate is
    ``lambda(t) = base * (1 + A * sin(2*pi*(t - shift)/DAY))`` phased so
    the peak lands at :data:`PEAK_HOUR`, with
    ``base = 1/mean_interarrival``; thinning against the peak rate keeps
    the process exact.
    """
    base = 1.0 / model.mean_interarrival_s
    amplitude = model.diurnal_amplitude
    peak = base * (1.0 + amplitude)
    phase_shift = (PEAK_HOUR - 6.0) * 3600.0  # sin peaks a quarter-day in
    times = np.empty(n_jobs)
    t = 0.0
    filled = 0
    while filled < n_jobs:
        # Candidate points from the homogeneous peak-rate process.
        chunk = max(64, n_jobs - filled)
        gaps = rng.exponential(1.0 / peak, size=2 * chunk)
        candidates = t + np.cumsum(gaps)
        rate = base * (
            1.0 + amplitude * np.sin(2.0 * math.pi * (candidates - phase_shift) / DAY)
        )
        keep = candidates[rng.random(candidates.size) < rate / peak]
        take = min(keep.size, n_jobs - filled)
        times[filled : filled + take] = keep[:take]
        filled += take
        t = candidates[-1]
    return times


def _draw_sizes(model: SiteModel, n_jobs: int, rng: np.random.Generator) -> np.ndarray:
    """Job sizes (before ``size_divisor``).

    A job reads one to three uniform doubles in a fixed branch order.
    All ``3 * n_jobs`` the walk could need come from one call; the
    generator is then rewound and advanced by exactly the doubles used,
    so later draws read the stream a per-job loop of scalar draws leaves
    (DESIGN §4).
    """
    lo, hi = model.min_size, model.max_size
    powers = 2 ** np.arange(int(math.log2(hi)) + 1)
    powers = powers[(powers >= lo) & (powers <= hi)]
    if model.p_unit_job > 0:
        # Unit jobs have their own probability atom; keep the
        # power-of-two pool disjoint so the shares stay interpretable.
        powers = powers[powers > 1]
    picks, cdf = powers.tolist(), []
    if picks:
        # Smaller powers are likelier: geometric-ish weighting matching
        # the archive logs' size histograms.  ``Generator.choice(p=...)``
        # searches this CDF with one double.
        weights = 1.0 / np.arange(1, powers.size + 1)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
    p_unit, p_power = model.p_unit_job, model.p_power_of_two
    # Log-uniform body over [lo, hi]: ``rng.uniform(a, b)`` is ``a + (b - a) * u``.
    log_lo, log_span = math.log(lo), math.log(hi + 1) - math.log(lo)
    state = rng.bit_generator.state
    doubles = iter(rng.random(3 * n_jobs).tolist())
    sizes = []
    for _ in range(n_jobs):
        if p_unit and next(doubles) < p_unit and lo <= 1:
            sizes.append(1)
        elif next(doubles) < p_power and picks:
            sizes.append(picks[bisect_right(cdf, next(doubles))])
        else:
            sizes.append(min(hi, max(lo, int(math.exp(log_lo + log_span * next(doubles))))))
    rng.bit_generator.state = state
    rng.random(3 * n_jobs - sum(1 for _ in doubles))
    sizes = np.array(sizes, dtype=np.int64)
    if model.size_divisor > 1:
        sizes = np.maximum(1, -(-sizes // model.size_divisor))  # ceil division
    return sizes


def _draw_runtimes(
    model: SiteModel, sizes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Actual runtimes: truncated lognormal with size correlation.

    Bigger jobs run longer in every archive log; the multiplicative
    ``size ** rho`` term reproduces that without touching the marginal
    shape for unit jobs.
    """
    raw = rng.lognormal(model.runtime_log_mean, model.runtime_log_sigma, size=sizes.size)
    if model.size_runtime_rho:
        raw = raw * np.power(sizes.astype(np.float64), model.size_runtime_rho)
    return np.clip(raw, 1.0, model.max_runtime_s)


def _draw_estimates(
    model: SiteModel, runtimes: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """User estimates: actual runtime inflated by a lognormal factor."""
    exact = rng.random(runtimes.size) < model.p_exact_estimate
    factors = rng.lognormal(0.0, model.estimate_factor_log_sigma, size=runtimes.size)
    factors = np.maximum(1.0, factors)  # users rarely under-estimate; the
    # scheduler kills at the estimate on real systems, so the archive's
    # effective estimates are >= runtimes.
    estimates = np.where(exact, runtimes, runtimes * factors)
    return np.minimum(estimates, model.max_runtime_s * 4)


def generate_workload(
    model: SiteModel,
    n_jobs: int,
    seed: int | None = 0,
    name: str | None = None,
) -> Workload:
    """Generate a synthetic workload of ``n_jobs`` jobs from ``model``.

    Parameters
    ----------
    model:
        Site model (one of the bundled presets or a custom instance).
    n_jobs:
        Number of jobs to emit.
    seed:
        Seed for ``numpy.random.default_rng``; identical inputs give
        identical workloads.
    name:
        Workload label; defaults to ``"<site>-synthetic"``.
    """
    arrivals, sizes, runtimes, estimates, machine = _draw_columns(model, n_jobs, seed)
    columns = (arrivals.tolist(), sizes.tolist(), runtimes.tolist(), estimates.tolist())
    jobs = tuple(map(Job, range(n_jobs), *columns))
    return Workload(
        name=name or f"{model.name}-synthetic",
        machine_nodes=machine,
        jobs=jobs,
    )


def _draw_columns(model: SiteModel, n_jobs: int, seed: int | None) -> tuple:
    """The arrival, size, runtime and estimate columns of ``n_jobs`` jobs
    drawn from ``seed``, and the machine size they are drawn for."""
    if n_jobs < 0:
        raise WorkloadError(f"n_jobs must be non-negative, got {n_jobs}")
    rng = np.random.default_rng(seed)
    arrivals = _draw_arrivals(model, n_jobs, rng) if n_jobs else np.empty(0)
    sizes = _draw_sizes(model, n_jobs, rng)
    runtimes = _draw_runtimes(model, sizes, rng)
    estimates = _draw_estimates(model, runtimes, rng)
    machine = max(1, model.machine_nodes // model.size_divisor)
    if model.target_offered_load > 0 and n_jobs > 1:
        # Pin the trace's offered load: heavy-tailed runtime draws would
        # otherwise swing the load by 2x across seeds, and the paper's
        # sweeps hold the workload fixed.  Rescaling must respect the
        # runtime cap (a factor > 1 would otherwise mint day-long jobs
        # the site's queue limits forbid), so rescale-and-clip iterates;
        # it converges in a few rounds because clipping only ever
        # removes work.
        span = float(arrivals[-1] - arrivals[0])
        if span > 0:
            target_work = model.target_offered_load * span * machine
            for _ in range(4):
                work = float(np.dot(sizes.astype(np.float64), runtimes))
                if work <= 0 or abs(work - target_work) < 1e-6 * target_work:
                    break
                factor = target_work / work
                runtimes = np.clip(runtimes * factor, 1.0, model.max_runtime_s)
                estimates = np.clip(estimates * factor, 1.0, model.max_runtime_s * 4)
            estimates = np.maximum(estimates, runtimes)
    return arrivals, sizes, runtimes, estimates, machine
