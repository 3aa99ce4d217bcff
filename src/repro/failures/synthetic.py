"""Synthetic bursty, spatially-correlated failure traces.

The cluster trace the paper replays has two structural properties its
results depend on (§7.1):

* **temporal clustering** — "many instances of multiple failure events,
  simultaneously reported from different nodes"; this is why slowdown
  saturates as the failure count grows (extra failures pile onto
  already-doomed partitions);
* **spatial locality** — burst members concentrate near each other
  (shared racks, power, network), so a burst tends to hit one region of
  the torus.

:class:`BurstFailureModel` generates exactly that: burst *epochs* arrive
as a Poisson process, each burst draws a heavy-tailed member count, a
random epicentre and a Manhattan-ball neighbourhood, and member event
times jitter within a short window around the epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import FailureModelError
from repro.failures.events import FailureLog
from repro.geometry.coords import TorusDims


@dataclass(frozen=True)
class BurstFailureModel:
    """Parameters of the burst failure generator.

    Parameters
    ----------
    mean_burst_interarrival_s:
        Mean time between burst epochs (exponential).
    burst_size_p:
        Geometric parameter for the number of events per burst; mean
        burst size is ``1/p``.  ``p=1`` gives isolated failures.
    locality_radius:
        Manhattan-ball radius around the burst epicentre from which
        member nodes are drawn (0 = same node only).
    burst_window_s:
        Member event times are uniform within this window after the
        epoch ("simultaneously reported" in the trace means within
        seconds to minutes).
    """

    mean_burst_interarrival_s: float = 6 * 3600.0
    burst_size_p: float = 0.45
    locality_radius: int = 2
    burst_window_s: float = 300.0

    def __post_init__(self) -> None:
        if self.mean_burst_interarrival_s <= 0:
            raise FailureModelError("mean_burst_interarrival_s must be positive")
        if not 0 < self.burst_size_p <= 1:
            raise FailureModelError("burst_size_p must be in (0, 1]")
        if self.locality_radius < 0:
            raise FailureModelError("locality_radius must be >= 0")
        if self.burst_window_s < 0:
            raise FailureModelError("burst_window_s must be >= 0")


def failure_horizon_s(workload_span_s: float) -> float:
    """Failure-injection horizon of a run over a workload of that span:
    tail slack for jobs still running after the last arrival, and at
    least an hour."""
    return max(workload_span_s * 1.5, 3600.0)


# A master log draws thousands of bursts but one torus has only
# ``dims.volume`` distinct balls per radius (128 on BG/L), so they are
# memoised; the bound is generous for every machine the tests build.
@lru_cache(maxsize=4096)
def _neighbourhood(dims: TorusDims, centre_id: int, radius: int) -> np.ndarray:
    """Linear ids of all nodes within Manhattan torus distance ``radius``.

    The array is shared by every burst with that epicentre, hence
    read-only.
    """
    # Per axis, the wrapped distance of every position to the centre's;
    # their broadcast sum is the Manhattan distance of every node, in
    # row-major (linear id) order.
    axes = []
    for c, extent in zip(dims.coord(centre_id), dims.as_tuple()):
        d = np.abs(np.arange(extent) - c)
        axes.append(np.minimum(d, extent - d))
    x, y, z = axes
    ids = np.flatnonzero(x[:, None, None] + y[None, :, None] + z[None, None, :] <= radius)
    ids.flags.writeable = False
    return ids


def generate_failures(
    dims: TorusDims,
    n_events: int,
    horizon_s: float,
    model: BurstFailureModel | None = None,
    seed: int | None = 0,
) -> FailureLog:
    """Generate a failure log with exactly ``n_events`` events in
    ``[0, horizon_s)``.

    Bursts are generated until ``n_events`` events exist; event times are
    then rescaled into the horizon (preserving burst structure), matching
    the paper's procedure of rescaling a fixed trace to a target count
    over the workload span.
    """
    if n_events < 0:
        raise FailureModelError(f"n_events must be >= 0, got {n_events}")
    if horizon_s <= 0:
        raise FailureModelError(f"horizon_s must be positive, got {horizon_s}")
    model = model or BurstFailureModel()
    rng = np.random.default_rng(seed)
    if n_events == 0:
        return FailureLog(dims.volume)

    # Every epicentre's ball, by epicentre id: one table per log, so a
    # burst pays one index instead of a cache lookup keyed on ``dims``.
    volume = dims.volume
    balls = [_neighbourhood(dims, centre, model.locality_radius) for centre in range(volume)]
    times: list[float] = []
    nodes: list[int] = []
    t = 0.0
    while len(times) < n_events:
        t += rng.exponential(model.mean_burst_interarrival_s)
        burst_size = rng.geometric(model.burst_size_p)
        pool = balls[rng.integers(volume)]
        if burst_size == 1:
            # ``size=None`` draws what ``size=1`` draws, as scalars.
            nodes.append(int(rng.choice(pool, None, replace=False)))
            times.append(t + rng.uniform(0.0, model.burst_window_s))
            continue
        members = rng.choice(pool, size=min(burst_size, pool.size), replace=False)
        # One draw per member, as many doubles in the same order as one
        # scalar draw each.
        times += (t + rng.uniform(0.0, model.burst_window_s, size=members.size)).tolist()
        nodes += members.tolist()
    times_arr = np.array(times[:n_events])
    nodes_arr = np.array(nodes[:n_events])
    # Rescale into [0, horizon): affine map keeps the burst structure.
    t_max = float(times_arr.max())
    if t_max > 0:
        times_arr = times_arr * ((horizon_s * (1.0 - 1e-9)) / t_max)
    return FailureLog.from_arrays(dims.volume, times_arr, nodes_arr)
