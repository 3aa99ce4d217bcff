"""The reference engine: the production simulator on from-scratch rebuilds.

Production runs one engine — the patched placement index with its
bit-mask scoring kernel, one scheduler pass per same-timestamp event
batch — and offers no option to run another.  The alternative the
differential suites compare it with is built here, by tests:

* :class:`ReferencePlacementIndex` is the plain, from-scratch index of
  one machine state: a busy integral read from ``torus.grid``, lazy
  per-shape placement grids, a scalar early-exit scoring walk and a
  rebuild-form release replay.  It subclasses nothing and shares no
  code with the production :class:`~repro.allocation.mfp.PlacementIndex`:
  its candidates are a :class:`ReferenceBatch`, its text columns
  ``canonical_json`` of their ``tolist()`` and its scalar box sums
  :func:`box_sum_at`'s.  Since it reads the
  grid, it also sees a state written into ``torus.grid`` directly,
  which the production index (synced to the allocation map) does not;
* :class:`RebuildIndexCache` hands out a fresh reference index whenever
  the torus changed — no patching, none of the production kernels;
* :func:`oracle_simulator` builds a :class:`RebuildSimulator`: the
  :class:`~repro.core.simulator.Simulator` with that cache behind its
  index seam (``_make_index_cache``), shared by
  the scheduler pass, the backfill gate and the shadow-time engine
  exactly as in production.  (The compaction planner builds its own
  cache over a scratch torus; its reference twin is the rebuild planner
  of ``tests/core/test_backfill_migration.py``.)

Reports and decision traces of the two must be byte-identical.

The per-question references live here too, out of the production
package: :func:`choose_partition_scalar` (each policy's rule as a
per-candidate walk, the oracle of its batch ``choose_partition``) and
:func:`shadow_time_naive` (the oracle of
:class:`~repro.core.backfill.ShadowTimeEngine`).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.allocation.mfp import IndexCache
from repro.core.jobstate import JobState
from repro.core.policies.base import SchedulingPolicy
from repro.core.simulator import Simulator
from repro.geometry.coords import Coord, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import all_shapes, shapes_for_size
from repro.geometry.torus import (
    FREE,
    Torus,
    window_sums_from_integral,
    wrap_pad_integral,
)
from repro.records import canonical_json


def box_sum_at(integral: np.ndarray, base: Coord, extents: Coord) -> int:
    """One wrap-around box sum as a scalar lookup on a
    :func:`~repro.geometry.torus.wrap_pad_integral` result."""
    x, y, z = base
    a, b, c = extents
    i = integral
    return int(
        i[x + a, y + b, z + c]
        - i[x, y + b, z + c]
        - i[x + a, y, z + c]
        - i[x + a, y + b, z]
        + i[x, y, z + c]
        + i[x, y + b, z]
        + i[x + a, y, z]
        - i[x, y, z]
    )


def intersect_window(
    dims: TorusDims, p_base: Coord, p_shape: Coord, t_shape: Coord
) -> tuple[Coord, Coord]:
    """Modular box of ``t_shape``-placement bases intersecting a partition.

    A placement of shape ``T`` based at ``q`` intersects the partition
    ``(p_base, p_shape)`` iff, on every axis, ``q`` lies in the modular
    interval ``[p - T + 1, p + P - 1]`` of length ``min(extent,
    P + T - 1)``.  Returns that box as ``(base, extents)``, ready for
    one :func:`box_sum_at` lookup.
    """
    return (
        (
            (p_base[0] - t_shape[0] + 1) % dims.x,
            (p_base[1] - t_shape[1] + 1) % dims.y,
            (p_base[2] - t_shape[2] + 1) % dims.z,
        ),
        (
            min(dims.x, p_shape[0] + t_shape[0] - 1),
            min(dims.y, p_shape[1] + t_shape[1] - 1),
            min(dims.z, p_shape[2] + t_shape[2] - 1),
        ),
    )


class ReferenceBatch:
    """The reference index's candidates of one size, held eagerly: an
    ``(n, 3)`` array of canonical bases and one of their shapes.

    It answers what a policy and a trace ask of a production
    :class:`~repro.allocation.mfp.CandidateBatch` — ``len``, ``bases``,
    :meth:`shape_rows`, :meth:`partition`, :meth:`column_text` — from
    those two arrays alone.
    """

    __slots__ = ("bases", "_shape_rows")

    def __init__(self, bases: np.ndarray, shape_rows: np.ndarray) -> None:
        self.bases = bases
        self._shape_rows = shape_rows

    def __len__(self) -> int:
        return len(self.bases)

    def shape_rows(self) -> np.ndarray:
        return self._shape_rows

    def partition(self, i: int) -> Partition:
        (x, y, z), (a, b, c) = self.bases[i].tolist(), self._shape_rows[i].tolist()
        return Partition((x, y, z), (a, b, c))

    def partitions(self) -> list[Partition]:
        return [self.partition(i) for i in range(len(self))]

    def column_text(self, rows: slice | np.ndarray) -> tuple[str, str]:
        return (
            canonical_json(self.bases[rows].tolist()),
            canonical_json(self._shape_rows[rows].tolist()),
        )


class ReferencePlacementIndex:
    """Free-placement grids for every shape, for one occupancy state,
    derived from scratch.

    One wrap-padded integral image of ``torus.grid`` is taken at
    construction; the free-placement grid of a shape is derived from it
    lazily (8 array slices), and "MFP after hypothetically placing
    ``P``" (:meth:`mfp_excluding`) is a scalar early-exit walk over the
    non-empty shapes in decreasing-volume order — one box-sum lookup per
    shape on its placement integral: a placement of shape ``T`` survives
    ``P`` iff its base lies outside the modular box of bases whose
    window would intersect ``P``.  Every answer is per state and cached;
    the index never changes after construction.
    """

    __slots__ = (
        "dims",
        "torus_version",
        "_busy_integral",
        "_grids",
        "_totals",
        "_nonempty_rows",
        "_scan_pos",
        "_batches",
        "_candidates",
        "_scored",
    )

    def __init__(self, torus: Torus) -> None:
        self.dims: TorusDims = torus.dims
        self.torus_version = torus.version
        self._busy_integral = wrap_pad_integral((torus.grid != FREE).astype(np.int64))
        self._grids: dict[Coord, np.ndarray] = {}
        self._totals: dict[Coord, int] = {}
        self._nonempty_rows: list[tuple[int, Coord, int, np.ndarray]] = []
        self._scan_pos = 0
        self._batches: dict[int, ReferenceBatch] = {}
        self._candidates: dict[int, list[Partition]] = {}
        self._scored: dict[int, list[tuple[Partition, int]]] = {}

    def _placements(self, shape: Coord) -> np.ndarray:
        """Boolean grid: True where a free placement of ``shape`` is based."""
        grid = self._grids.get(shape)
        if grid is None:
            grid = (
                window_sums_from_integral(
                    self._busy_integral, self.dims.as_tuple(), shape
                )
                == 0
            )
            self._grids[shape] = grid
            self._totals[shape] = int(np.count_nonzero(grid))
        return grid

    def count_placements(self, shape: Coord) -> int:
        """Number of free placements of ``shape`` (bases, not node sets)."""
        self._placements(shape)
        return self._totals[shape]

    def candidate_batch(self, size: int) -> ReferenceBatch:
        """All free partitions of exactly ``size`` nodes as arrays: per
        shape of ``shapes_for_size``, the row-major free bases, with
        fully-spanned axes pinned to 0 and each node set's first
        occurrence kept."""
        batch = self._batches.get(size)
        if batch is not None:
            return batch
        dims = self.dims
        dims_shape = dims.as_tuple()
        groups: list[np.ndarray] = [np.empty((0, 3), dtype=np.int64)]
        extents: list[np.ndarray] = [np.empty((0, 3), dtype=np.int64)]
        for shape in shapes_for_size(size, dims):
            if self.count_placements(shape) == 0:
                continue
            grid = self._placements(shape)
            bases = np.stack(
                np.unravel_index(np.flatnonzero(grid), dims_shape), axis=1
            ).astype(np.int64, copy=False)
            if shape[0] == dims.x or shape[1] == dims.y or shape[2] == dims.z:
                # Only full-span shapes can alias node sets across bases.
                for axis in range(3):
                    if shape[axis] == dims_shape[axis]:
                        bases[:, axis] = 0
                keys = (bases[:, 0] * dims.y + bases[:, 1]) * dims.z + bases[:, 2]
                _, first = np.unique(keys, return_index=True)
                bases = bases[np.sort(first)]
            groups.append(bases)
            extents.append(np.tile(np.array(shape, dtype=np.int64), (len(bases), 1)))
        batch = ReferenceBatch(np.concatenate(groups), np.concatenate(extents))
        self._batches[size] = batch
        return batch

    def candidates(self, size: int) -> list[Partition]:
        """:meth:`candidate_batch` materialised as partitions (cached)."""
        cached = self._candidates.get(size)
        if cached is None:
            cached = self._candidates[size] = self.candidate_batch(size).partitions()
        return cached

    def scored_candidates(self, size: int) -> list[tuple[Partition, int]]:
        """Candidates paired with their ``L_MFP``, each from its own
        :meth:`mfp_loss` walk (cached per size)."""
        cached = self._scored.get(size)
        if cached is None:
            cached = [(p, self.mfp_loss(p)) for p in self.candidates(size)]
            self._scored[size] = cached
        return cached

    def batch_mfp_losses(self, size: int) -> tuple[ReferenceBatch, np.ndarray]:
        """The production call shape over :meth:`scored_candidates`:
        ``(batch, losses)``, the losses as an ``int64`` array."""
        losses = [loss for _, loss in self.scored_candidates(size)]
        return self.candidate_batch(size), np.array(losses, dtype=np.int64)

    def has_candidate(self, size: int) -> bool:
        """True when at least one free partition of ``size`` exists (never
        for a size outside ``1..volume``: no partition has it)."""
        if not 0 < size <= self.dims.volume:
            return False
        return any(
            self.count_placements(shape) for shape in shapes_for_size(size, self.dims)
        )

    def first_fit_release(
        self, size: int, releases: Sequence[Partition]
    ) -> int | None:
        """Index of the first of ``releases`` after which ``size`` fits.

        ``releases`` are allocated partitions freed hypothetically, in
        order, on top of this index's state (the EASY shadow-time replay);
        ``None`` when no free partition of ``size`` exists even after the
        last one.  This rebuild form re-derives the busy integral and the
        windows of the size's shapes after each release.
        """
        dims = self.dims
        shapes = shapes_for_size(size, dims)
        if not shapes:
            return None
        dims_shape = dims.as_tuple()
        busy = window_sums_from_integral(self._busy_integral, dims_shape, (1, 1, 1))
        free_now = dims.volume - int(busy.sum())
        for k, partition in enumerate(releases):
            busy[np.ix_(*partition.axis_ranges(dims))] = 0
            free_now += partition.size
            # No box of ``size`` nodes can exist with fewer free nodes;
            # skip the window rebuild until releases reach that mass.
            if free_now < size:
                continue
            integral = wrap_pad_integral(busy)
            for shape in shapes:
                if not window_sums_from_integral(integral, dims_shape, shape).all():
                    return k
        return None

    def mfp_size(self) -> int:
        """Size of the maximal free partition (0 on a full machine)."""
        return next(self._iter_nonempty_shapes(), (0,))[0]

    def mfp_partition(self) -> Partition | None:
        """One witness maximal free partition, or None on a full machine:
        the first free base, row-major, of the largest free shape."""
        for _, shape, _, _ in self._iter_nonempty_shapes():
            grid = self._placements(shape)
            base = np.unravel_index(int(grid.argmax()), grid.shape)
            return Partition((int(base[0]), int(base[1]), int(base[2])), shape)
        return None

    def _iter_nonempty_shapes(self) -> Iterator[tuple[int, Coord, int, np.ndarray]]:
        """Yield ``(volume, shape, total, placement_integral)`` probe rows
        in decreasing-volume order.

        ``placement_integral`` is the wrap-padded integral image of the
        shape's free-placement grid (intersect counting).  Rows memoise
        as the all-shapes scan first reaches them and the scan resumes
        where earlier walks stopped: every :meth:`mfp_excluding` walks
        this list from the top, and most resolve within the first few
        non-empty shapes.
        """
        rows = self._nonempty_rows
        order = all_shapes(self.dims)
        i = 0
        while True:
            while i >= len(rows) and self._scan_pos < len(order):
                shape = order[self._scan_pos]
                self._scan_pos += 1
                total = self.count_placements(shape)
                if total > 0:
                    rows.append(
                        (
                            shape[0] * shape[1] * shape[2],
                            shape,
                            total,
                            wrap_pad_integral(
                                self._placements(shape).astype(np.int64)
                            ),
                        )
                    )
            if i >= len(rows):
                return
            yield rows[i]
            i += 1

    def mfp_excluding(self, partition: Partition) -> int:
        """MFP size after hypothetically allocating ``partition``: the
        volume of the first non-empty shape with a free placement that
        does not intersect it."""
        for volume, shape, total, integral in self._iter_nonempty_shapes():
            base, extents = intersect_window(
                self.dims, partition.base, partition.shape, shape
            )
            if total > box_sum_at(integral, base, extents):
                return volume
        return 0

    def mfp_loss(self, partition: Partition) -> int:
        """``L_MFP``: MFP shrinkage caused by allocating ``partition``."""
        return self.mfp_size() - self.mfp_excluding(partition)


class RebuildIndexCache(IndexCache):
    """An :class:`IndexCache` that builds a fresh
    :class:`ReferencePlacementIndex` on every ``torus.version`` change."""

    __slots__ = ()

    def get(self) -> ReferencePlacementIndex:
        index = self._index
        if index is None or index.torus_version != self.torus.version:
            index = self._index = ReferencePlacementIndex(self.torus)
            if self.metrics is not None:
                self.metrics.counter("index.builds").inc()
        return index


class RebuildSimulator(Simulator):
    """The reference engine: a :class:`Simulator` whose every index
    query is answered by a from-scratch :class:`ReferencePlacementIndex`."""

    def _make_index_cache(self) -> IndexCache:
        return RebuildIndexCache(self.torus, self.metrics)


def oracle_simulator(*args, **kwargs) -> Simulator:
    """A :class:`RebuildSimulator`: same arguments as :class:`Simulator`."""
    return RebuildSimulator(*args, **kwargs)


def choose_partition_scalar(
    policy: SchedulingPolicy,
    index: ReferencePlacementIndex,
    state: JobState,
    now: float,
) -> Partition | None:
    """``policy``'s placement rule as a per-candidate scalar walk over
    ``index.scored_candidates`` — the cross-validation oracle of its
    batch ``choose_partition`` (same winner, tie order included).

    Takes the policy first, so a test can bind it as the
    ``choose_partition`` of a policy subclass and run whole simulations
    down the scalar path.
    """
    scored = index.scored_candidates(state.size)
    if not scored:
        return None
    window_end = now + max(state.remaining_estimate, 1.0)
    if policy.name == "balancing":
        best: Partition | None = None
        best_key: tuple[float, float] | None = None
        for partition, mfp_loss in scored:
            p_f = policy.predictor.partition_failure_probability(
                partition, index.dims, now, window_end
            )
            key = (mfp_loss + p_f * state.size, p_f)
            if best_key is None or key < best_key:
                best, best_key = partition, key
        return best
    min_loss = min(loss for _, loss in scored)
    tied = [partition for partition, loss in scored if loss == min_loss]
    if policy.name == "tiebreak":
        for partition in tied:
            if not policy.predictor.predicts_failure(
                partition, index.dims, now, window_end
            ):
                return partition
    return tied[0]  # krevat, or every tied candidate predicted to fail


def shadow_time_naive(
    torus: Torus,
    running: Iterable[JobState],
    head_size: int,
    now: float,
) -> float:
    """Reference shadow-time: full grid copy + fresh reference index per
    release.

    The independently-simple oracle
    :class:`~repro.core.backfill.ShadowTimeEngine` is cross-validated
    against.
    """
    scratch = Torus(torus.dims)
    scratch.grid[...] = torus.grid
    if ReferencePlacementIndex(scratch).has_candidate(head_size):
        return now
    ordered = sorted(
        (js for js in running if js.running),
        key=lambda js: (js.est_finish, js.job_id),
    )
    for js in ordered:
        partition = torus.allocation_of(js.job_id)
        scratch.grid[np.ix_(*partition.axis_ranges(torus.dims))] = FREE
        if ReferencePlacementIndex(scratch).has_candidate(head_size):
            return max(now, js.est_finish)
    return math.inf
