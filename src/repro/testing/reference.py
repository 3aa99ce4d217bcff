"""The reference engine: the production simulator on from-scratch rebuilds.

Production runs one engine — the incrementally patched placement index
with its bit-mask scoring kernel, one scheduler pass per same-timestamp
event batch — and offers no option to run another.  The alternative the
differential suites compare it with is built here, by tests:

* :class:`RebuildIndexCache` hands out a fresh plain
  :class:`~repro.allocation.mfp.PlacementIndex` (lazy grids, scalar
  early-exit scoring walk, integral-rebuild release replay) whenever the
  torus changed — no journal, no patching, none of the production
  kernels;
* :func:`oracle_simulator` is :class:`~repro.core.simulator.Simulator`
  with that cache behind its one seam (``_make_index_cache``), shared by
  the scheduler pass, the backfill gate and the shadow-time engine
  exactly as in production.  (The compaction planner builds its own
  cache over a scratch torus; its reference twin is the rebuild planner
  of ``tests/core/test_backfill_migration.py``.)

Reports and decision traces of the two must be byte-identical.
"""

from __future__ import annotations

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.core.simulator import Simulator


class RebuildIndexCache(IndexCache):
    """An :class:`IndexCache` that rebuilds the plain reference index
    from scratch on every ``torus.version`` change."""

    __slots__ = ()

    def get(self) -> PlacementIndex:
        index = self._index
        if index is None or index.torus_version != self.torus.version:
            index = self._index = PlacementIndex(self.torus)
        return index


class _RebuildSimulator(Simulator):
    def _make_index_cache(self) -> IndexCache:
        return RebuildIndexCache(self.torus)


def oracle_simulator(*args, **kwargs) -> Simulator:
    """A :class:`Simulator` (same arguments) whose every index query is
    answered by a from-scratch :class:`PlacementIndex`."""
    return _RebuildSimulator(*args, **kwargs)
