"""Maximal Free Partition (MFP) queries.

The MFP heuristic drives all three schedulers: a placement is judged by
how much it shrinks the size of the largest free contiguous rectangular
partition (``L_MFP``), because the next job in the FCFS queue may need a
partition that large.

:class:`PlacementIndex` is the **plain reference**: it precomputes one
wrap-padded integral image of the occupancy grid, derives the
free-placement grid of any shape lazily (8 array slices), and answers
the scheduler's "MFP after hypothetically placing job J here" query
(:meth:`mfp_excluding`) with a scalar early-exit walk over the
non-empty shapes in decreasing-volume order — one box-sum lookup per
shape on its placement integral: a placement of shape ``T`` survives
partition ``P`` iff its base lies outside the modular box of bases
whose window would intersect ``P``.

Production never scores on it.  The engine runs on
:class:`~repro.allocation.incremental.IncrementalPlacementIndex`, which
inherits the query surface, patches its state across torus mutations
and overrides the one scoring kernel (``_candidates_excluding``, the
hook :meth:`PlacementIndex.batch_mfp_losses` calls) with a bit-mask
resolve; :class:`IndexCache` hands the scheduler that index.
The reference stays because the tests build it — a fresh
``PlacementIndex`` per machine state, and
:class:`repro.testing.RebuildIndexCache` to run a whole simulation on
from-scratch rebuilds — and compare the production index with it field
for field and loss for loss.

Candidates of one size are held as a struct-of-arrays
(:class:`CandidateBatch`); :meth:`PlacementIndex.batch_mfp_losses`
scores them all (what the policies call),
:meth:`PlacementIndex.scored_candidates` pairs each materialised
:class:`Partition` with an independent per-candidate :meth:`mfp_loss`
walk (what the ``repro.testing.choose_partition_scalar`` reference calls).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.coords import Coord, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import all_shapes, shapes_for_size
from repro.geometry.torus import (
    FREE,
    Torus,
    box_sum_at,
    window_sums_from_integral,
    wrap_pad_integral,
)
from repro.obs.metrics import MetricsRegistry


def intersect_window(
    dims: TorusDims, p_base: Coord, p_shape: Coord, t_shape: Coord
) -> tuple[Coord, Coord]:
    """Modular box of ``t_shape``-placement bases intersecting a partition.

    A placement of shape ``T`` based at ``q`` intersects the partition
    ``(p_base, p_shape)`` iff, on every axis, ``q`` lies in the modular
    interval ``[p - T + 1, p + P - 1]`` of length ``min(extent,
    P + T - 1)``.  Returns that box as ``(base, extents)``, ready for
    one :func:`~repro.geometry.torus.box_sum_at` lookup.
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


class CandidateBatch:
    """All free partitions of one size, held as struct-of-arrays.

    Candidates are grouped by shape in enumeration order (shape order of
    :func:`~repro.geometry.shapes.shapes_for_size`, then base order —
    row-major over ``(x, y, z)``), exactly the order of
    :meth:`PlacementIndex.candidates`.  Bases along fully-spanned axes
    are canonicalised to 0 and deduplicated (first occurrence wins), so
    each node set appears once.  :class:`~repro.geometry.partition.Partition`
    objects are materialised lazily — only for the winning candidate and
    for trace records — via :meth:`partition`.
    """

    __slots__ = ("dims", "shapes", "starts", "bases", "_shape_rows")

    def __init__(
        self, dims: TorusDims, shapes: tuple[Coord, ...], groups: list[np.ndarray]
    ) -> None:
        self.dims = dims
        self.shapes = shapes
        starts = [0]
        for group in groups:
            starts.append(starts[-1] + group.shape[0])
        #: Row offsets: group ``g`` occupies rows ``starts[g]:starts[g+1]``.
        self.starts: tuple[int, ...] = tuple(starts)
        #: ``(n, 3)`` canonical bases, all groups concatenated.
        self.bases: np.ndarray = (
            np.concatenate(groups, axis=0)
            if groups
            else np.empty((0, 3), dtype=np.int64)
        )
        self._shape_rows: np.ndarray | None = None

    @classmethod
    def packed(
        cls,
        dims: TorusDims,
        shapes: tuple[Coord, ...],
        starts: tuple[int, ...],
        bases: np.ndarray,
    ) -> "CandidateBatch":
        """A batch whose groups arrive already concatenated: group ``g``
        is ``bases[starts[g]:starts[g+1]]``."""
        batch = cls.__new__(cls)
        batch.dims = dims
        batch.shapes = shapes
        batch.starts = starts
        batch.bases = bases
        batch._shape_rows = None
        return batch

    def __len__(self) -> int:
        return self.starts[-1]

    def groups(self) -> Iterator[tuple[Coord, slice, np.ndarray]]:
        """Yield ``(shape, row_slice, bases_view)`` per candidate shape."""
        for g, shape in enumerate(self.shapes):
            sl = slice(self.starts[g], self.starts[g + 1])
            yield shape, sl, self.bases[sl]

    def shape_of(self, i: int) -> Coord:
        """Shape of candidate row ``i``."""
        return self.shapes[bisect_right(self.starts, i) - 1]

    def shape_rows(self) -> np.ndarray:
        """``(n, 3)`` array: the shape of every candidate row (cached)."""
        rows = self._shape_rows
        if rows is None:
            rows = np.empty((len(self), 3), dtype=np.int64)
            for g, shape in enumerate(self.shapes):
                rows[self.starts[g] : self.starts[g + 1]] = shape
            self._shape_rows = rows
        return rows

    def partition(self, i: int) -> Partition:
        """Materialise candidate row ``i`` as a :class:`Partition`."""
        base = self.bases[i]
        return Partition(
            (int(base[0]), int(base[1]), int(base[2])), self.shape_of(i)
        )

    def partitions(self) -> list[Partition]:
        """Materialise every candidate (enumeration order)."""
        out: list[Partition] = []
        for shape, _, bases in self.groups():
            out.extend(
                Partition((int(bx), int(by), int(bz)), shape)
                for bx, by, bz in bases.tolist()
            )
        return out


class PlacementIndex:
    """Free-placement grids for every shape, for one occupancy state."""

    __slots__ = (
        "dims",
        "torus_version",
        "_shape_order",
        "_busy_integral",
        "_grids",
        "_totals",
        "_mfp_size",
        "_nonempty_rows",
        "_scan_pos",
        "_candidate_cache",
        "_scored_cache",
        "_batch_cache",
        "_batch_scored_cache",
    )

    def __init__(self, torus: Torus) -> None:
        self.dims: TorusDims = torus.dims
        self._shape_order = all_shapes(torus.dims)  # decreasing volume
        self._busy_integral = wrap_pad_integral((torus.grid != FREE).astype(np.int64))
        self._reset(torus)

    def _reset(self, torus: Torus) -> None:
        """Drop every per-state answer: the index now stands for
        ``torus``'s current state.  The constructor calls it, and so does
        every :meth:`~repro.allocation.incremental.IncrementalPlacementIndex.sync`.
        """
        self.torus_version = torus.version
        # Lazy per-shape placement grids: a typical index build touches
        # only the handful of shapes the current queue asks about, so an
        # eager all-shapes batch (tried; ~4x slower end-to-end) loses to
        # 15 us-per-shape laziness.
        self._grids: dict[Coord, np.ndarray] = {}
        self._totals: dict[Coord, int] = {}
        self._mfp_size: int | None = None
        self._nonempty_rows: list[tuple[int, Coord, int, np.ndarray]] = []
        self._scan_pos = 0
        self._candidate_cache: dict[int, list[Partition]] = {}
        self._scored_cache: dict[int, list[tuple[Partition, int]]] = {}
        self._batch_cache: dict[int, CandidateBatch] = {}
        self._batch_scored_cache: dict[int, tuple[CandidateBatch, np.ndarray]] = {}

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def candidate_batch(self, size: int) -> CandidateBatch:
        """All free partitions of exactly ``size`` nodes as arrays.

        Same enumeration order and canonical dedup as :meth:`candidates`
        (which materialises its list from this batch), but the bases stay
        struct-of-arrays so the batch scoring kernels can gather them
        without touching Python objects.
        """
        batch = self._batch_cache.get(size)
        if batch is not None:
            return batch
        dims = self.dims
        dims_shape = dims.as_tuple()
        shapes: list[Coord] = []
        groups: list[np.ndarray] = []
        for shape in shapes_for_size(size, dims):
            if self.count_placements(shape) == 0:
                continue
            grid = self._placements(shape)
            bases = np.stack(
                np.unravel_index(np.flatnonzero(grid), dims_shape), axis=1
            ).astype(np.int64, copy=False)
            if shape[0] == dims.x or shape[1] == dims.y or shape[2] == dims.z:
                # Only full-span shapes can alias node sets across bases:
                # pin spanned axes to 0 and keep each node set's first
                # occurrence (flatnonzero order is row-major, matching
                # the scalar scan).
                for axis in range(3):
                    if shape[axis] == dims_shape[axis]:
                        bases[:, axis] = 0
                keys = (bases[:, 0] * dims.y + bases[:, 1]) * dims.z + bases[:, 2]
                _, first = np.unique(keys, return_index=True)
                bases = bases[np.sort(first)]
            shapes.append(shape)
            groups.append(bases)
        batch = CandidateBatch(dims, tuple(shapes), groups)
        self._batch_cache[size] = batch
        return batch

    def candidates(self, size: int) -> list[Partition]:
        """All free partitions of exactly ``size`` nodes, deduplicated.

        Bases along fully-spanned axes are canonicalised to 0 so each node
        set appears once.  Materialised from :meth:`candidate_batch`, so
        list and batch enumeration can never drift apart.
        """
        cached = self._candidate_cache.get(size)
        if cached is None:
            cached = self.candidate_batch(size).partitions()
            self._candidate_cache[size] = cached
        return cached

    def scored_candidates(self, size: int) -> list[tuple[Partition, int]]:
        """Candidates paired with their ``L_MFP`` via the scalar walk.

        The reference :meth:`batch_mfp_losses` is compared against:
        every loss comes from an independent per-candidate
        :meth:`mfp_loss` walk.  Cached per size.
        """
        cached = self._scored_cache.get(size)
        if cached is None:
            cached = [(p, self.mfp_loss(p)) for p in self.candidates(size)]
            self._scored_cache[size] = cached
        return cached

    def batch_mfp_losses(self, size: int) -> tuple[CandidateBatch, np.ndarray]:
        """Every candidate of ``size`` with its ``L_MFP``, as arrays.

        Returns ``(batch, losses)`` where ``losses[i]`` is the MFP
        shrinkage caused by allocating ``batch.partition(i)`` — aligned
        with, and bitwise equal to, ``scored_candidates(size)``.  One
        :meth:`_candidates_excluding` resolve for the whole size,
        candidates of every shape together; cached per size, like the
        scalar form.
        """
        cached = self._batch_scored_cache.get(size)
        if cached is None:
            batch, excluding = self._candidates_excluding(size)
            cached = (batch, self.mfp_size() - excluding)
            self._batch_scored_cache[size] = cached
        return cached

    def _candidates_excluding(
        self, size: int
    ) -> tuple[CandidateBatch, np.ndarray]:
        """``candidate_batch(size)`` with every candidate's
        ``mfp_excluding``: the kernel behind :meth:`batch_mfp_losses`.
        The production index overrides this hook (one enumerate-and-score
        pass), never ``batch_mfp_losses`` itself."""
        batch = self.candidate_batch(size)
        return batch, self._batch_excluding(batch.bases, batch.shape_rows())

    def has_candidate(self, size: int) -> bool:
        """True when at least one free partition of ``size`` exists."""
        for shape in shapes_for_size(size, self.dims):
            if self.count_placements(shape) > 0:
                return True
        return False

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

    # ------------------------------------------------------------------
    def mfp_size(self) -> int:
        """Size of the maximal free partition (0 on a full machine)."""
        if self._mfp_size is None:
            self._mfp_size = 0
            for shape in self._shape_order:
                if self.count_placements(shape) > 0:
                    self._mfp_size = shape[0] * shape[1] * shape[2]
                    break
        return self._mfp_size

    def mfp_partition(self) -> Partition | None:
        """One witness maximal free partition, or None on a full machine."""
        for shape in self._shape_order:
            if self.count_placements(shape) > 0:
                grid = self._placements(shape)
                # First-hit lookup: argmax short-circuits at the first
                # True base — no (n, 3) argwhere materialisation.
                base = np.unravel_index(int(grid.argmax()), grid.shape)
                return Partition(
                    (int(base[0]), int(base[1]), int(base[2])), shape
                )
        return None

    # ------------------------------------------------------------------
    def _iter_nonempty_shapes(self) -> Iterator[tuple[int, Coord, int, np.ndarray]]:
        """Yield ``(volume, shape, total, placement_integral)`` probe rows
        in decreasing-volume order.

        ``placement_integral`` is the wrap-padded integral image of the
        shape's free-placement grid (intersect counting).  Rows memoise
        as the all-shapes scan first reaches them and the scan resumes
        where earlier walks stopped: every ``mfp_excluding`` query walks
        this list from the top, and most resolve within the first few
        non-empty shapes.
        """
        rows = self._nonempty_rows
        order = self._shape_order
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
        """MFP size after hypothetically allocating ``partition``.

        Equivalent to allocating, rebuilding the index and asking
        :meth:`mfp_size`, but costs scalar lookups instead of a rebuild.
        """
        return self._mfp_excluding_at(partition.base, partition.shape)

    def _mfp_excluding_at(self, p_base: Coord, p_shape: Coord) -> int:
        """Scalar :meth:`mfp_excluding` walk on raw base/shape tuples."""
        dims = self.dims
        for volume, shape, total, integral in self._iter_nonempty_shapes():
            base, extents = intersect_window(dims, p_base, p_shape, shape)
            if total > box_sum_at(integral, base, extents):
                return volume
        return 0

    def _batch_excluding(
        self, bases: np.ndarray, cand_shapes: np.ndarray
    ) -> np.ndarray:
        """``mfp_excluding`` for ``n`` candidates, each with its own shape.

        ``bases`` is an ``(n, 3)`` integer array (any integers; wrapped
        into the primary cell here), ``cand_shapes`` the matching
        ``(n, 3)`` shapes.  The scalar walk, one candidate at a time;
        the production index scores through its own
        :meth:`_candidates_excluding` instead.
        """
        wrapped = (bases % np.array(self.dims.as_tuple(), dtype=np.int64)).tolist()
        return np.array(
            [
                self._mfp_excluding_at(tuple(base), tuple(shape))
                for base, shape in zip(wrapped, cand_shapes.tolist())
            ],
            dtype=np.int64,
        )

    def mfp_loss(self, partition: Partition) -> int:
        """``L_MFP``: MFP shrinkage caused by allocating ``partition``."""
        return self.mfp_size() - self.mfp_excluding(partition)


class IndexCache:
    """The placement index for one torus's *current* state.

    The scheduler's inner loops repeatedly need "the index for the
    current machine state": the dispatch scan, the backfill walk's
    feasible-size gate and the shadow-time release replay share the
    simulator's cache, and the compaction planner keeps one over its
    scratch torus.  The cache holds one
    :class:`~repro.allocation.incremental.IncrementalPlacementIndex`,
    built on the first lookup; an unchanged ``torus.version`` returns it
    as is, and when the version moved it is *synced* to the torus's
    allocation map (one O(box) patch per job that left or arrived), however
    many mutations lie in between.  On the ``metrics`` registry the cache
    was handed (none: nothing is counted) ``index.incremental.hit`` /
    ``repair`` record which path each lookup took and ``index.builds``
    the one build.

    :class:`repro.testing.RebuildIndexCache` is the reference twin the
    tests substitute: a from-scratch :class:`PlacementIndex` per state.
    """

    __slots__ = ("torus", "metrics", "_index")

    def __init__(self, torus: Torus, metrics: MetricsRegistry | None = None) -> None:
        self.torus = torus
        self.metrics = metrics
        self._index: PlacementIndex | None = None

    def get(self) -> PlacementIndex:
        """The index for the torus's current state."""
        index = self._index
        torus = self.torus
        registry = self.metrics
        if index is None:
            from repro.allocation.incremental import IncrementalPlacementIndex

            index = self._index = IncrementalPlacementIndex(torus)
            counter = "index.builds"
        elif index.torus_version == torus.version:
            counter = "index.incremental.hit"
        else:
            index.sync(torus)  # type: ignore[attr-defined]
            counter = "index.incremental.repair"
        if registry is not None:
            registry.counter(counter).inc()
        return index


# ----------------------------------------------------------------------
# convenience functions
# ----------------------------------------------------------------------

def mfp_size(torus: Torus) -> int:
    """Size of the maximal free partition of ``torus``."""
    return PlacementIndex(torus).mfp_size()


def mfp_partition(torus: Torus) -> Partition | None:
    """One witness maximal free partition of ``torus``."""
    return PlacementIndex(torus).mfp_partition()
