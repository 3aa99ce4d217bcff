"""EASY-backfilling shadow-time computation.

When the queue head cannot start, EASY backfilling grants it a
*reservation*: the earliest time a partition of its size becomes free
assuming running jobs finish at their estimated times.  Later jobs may
start out of order only if their estimated finish does not exceed that
shadow time, so they can never delay the head (under truthful
estimates).

On a torus, "enough nodes free" is not "a partition free" — the shadow
time must honour the rectangular-partition constraint.  We therefore
replay hypothetical releases in estimated-finish order and ask the real
partition machinery after each release.

:class:`ShadowTimeEngine` is the production path: it asks the scheduler
pass's own placement index (through the shared
:class:`~repro.allocation.mfp.IndexCache`) for the first release after
which the head fits — on the placement index a node-count bound and
then running sums of the overlap patches of the jobs that stay, no
scratch grid — and memoises the answer per ``(torus.version,
head_size)`` so scheduler passes that did not mutate the machine —
arrival batches, repeated same-size heads — skip the replay entirely.
The answer is a pure function of machine state and running estimates,
both of which only change together with a ``torus.version`` bump, so
the cache is semantics-preserving.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.allocation.mfp import IndexCache
from repro.core.jobstate import JobState
from repro.geometry.torus import Torus
from repro.obs.metrics import MetricsRegistry


class ShadowTimeEngine:
    """Cached shadow-time queries against one torus.

    The engine never mutates the torus it watches: the hypothetical
    releases are replayed by the placement index of the current machine
    state (:meth:`PlacementIndex.first_fit_release`), shared with the
    scheduler pass through ``index_cache``.  Cache entries are keyed on
    ``(torus.version, head_size)`` and store the *release time* at which
    the head first fits (``-inf`` when it already fits, ``+inf`` when
    even a drained machine has no box), so one entry serves queries at
    any ``now``.

    The cache contract requires that the running set and its estimated
    finishes change only in lockstep with torus mutations — true in the
    simulator, where every dispatch/finish/kill/migration both edits
    ``est_finish`` and bumps ``torus.version`` before the next query.
    """

    __slots__ = ("torus", "metrics", "_fit_times", "_cache_version", "_index_cache")

    def __init__(
        self,
        torus: Torus,
        index_cache: IndexCache,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.torus = torus
        self.metrics = metrics
        self._fit_times: dict[int, float] = {}
        self._cache_version = -1
        # The scheduler pass's own cache: the replay reads the index the
        # pass already repaired.
        self._index_cache = index_cache

    def shadow_time(
        self, running: Iterable[JobState], head_size: int, now: float
    ) -> float:
        """Earliest estimated time a free partition of ``head_size`` exists.

        ``now`` when one already exists, ``math.inf`` when even a fully
        drained machine has none (an unschedulable size, which the
        simulator treats as a hard error).
        """
        version = self.torus.version
        if version != self._cache_version:
            self._fit_times.clear()
            self._cache_version = version
        t_fit = self._fit_times.get(head_size)
        registry = self.metrics
        if registry is not None:
            registry.counter("shadow.queries").inc()
            if t_fit is not None:
                registry.counter("shadow.cache_hits").inc()
        if t_fit is None:
            if registry is None:
                t_fit = self._first_fit_time(running, head_size)
            else:
                with registry.timer("shadow.first_fit"):
                    t_fit = self._first_fit_time(running, head_size)
            self._fit_times[head_size] = t_fit
        return max(now, t_fit)

    # ------------------------------------------------------------------
    def _first_fit_time(self, running: Iterable[JobState], head_size: int) -> float:
        """Release-replay: the est-finish at which ``head_size`` first fits.

        ``-inf`` when a free box already exists, ``+inf`` when no shape of
        ``head_size`` fits even a drained machine.
        """
        index = self._index_cache.get()
        if index.has_candidate(head_size):
            return -math.inf
        # (est_finish, job_id) pairs: the job id is unique, so the tuple
        # order is the replay order without a key function.
        ordered = sorted((js.est_finish, js.job_id) for js in running if js.running)
        allocation_of = self.torus.allocation_of
        k = index.first_fit_release(
            head_size, [allocation_of(job_id) for _, job_id in ordered]
        )
        return math.inf if k is None else ordered[k][0]

