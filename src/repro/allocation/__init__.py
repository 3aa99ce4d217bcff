"""Free-partition finders and maximal-free-partition (MFP) machinery.

Three interchangeable finders locate every free, contiguous, rectangular
partition of a requested size on the torus:

* :class:`NaiveFinder` — the exhaustive reference search the paper cites
  as ``O(M^9)``-class; pure Python, used to cross-validate the others.
* :class:`POPFinder` — a run-length dynamic program in the spirit of
  Krevat's Projection-of-Partitions algorithm (``O(M^5)``-class).
* :class:`FastFinder` — the paper's Appendix-9 divisor-driven finder
  (``O(M^3 · s^3 · f(s)^3)``), vectorised with circular window sums.

:class:`PlacementIndex` holds, for one occupancy state, the free-placement
grid of *every* shape, patched across allocations and releases; it
answers MFP queries and scores every candidate of one size by its
``L_MFP`` (:meth:`PlacementIndex.batch_mfp_losses`) in a handful of
NumPy ops, which is what makes the balancing policy tractable.  A
:class:`CandidateBatch` is one form only: the free rows of its size's
table, built once per dims.  The index uses no integral image; the
circular window sums of :mod:`repro.geometry.torus` serve the finders.
:class:`IndexCache` keeps one index in step with the torus across
scheduler loop iterations.
"""

from __future__ import annotations

from repro.allocation.base import PartitionFinder
from repro.allocation.naive import NaiveFinder
from repro.allocation.pop import POPFinder
from repro.allocation.fast import FastFinder
from repro.allocation.mfp import (
    CandidateBatch,
    IndexCache,
    PlacementIndex,
    mfp_size,
    mfp_partition,
)

__all__ = [
    "PartitionFinder",
    "NaiveFinder",
    "POPFinder",
    "FastFinder",
    "CandidateBatch",
    "IndexCache",
    "PlacementIndex",
    "mfp_size",
    "mfp_partition",
]
