"""Maximal Free Partition (MFP) queries: the production placement index.

The MFP heuristic drives all three schedulers: a placement is judged by
how much it shrinks the size of the largest free contiguous rectangular
partition (``L_MFP``), because the next job in the FCFS queue may need a
partition that large.

:class:`PlacementIndex` answers every question the engine asks of one
machine state.  Its core state is the all-shapes busy-window-sum tensor
``sums[x, y, z, s]`` — the number of busy nodes inside the window of
shape ``s`` based at ``(x, y, z)`` — patched in O(1) numpy ops per box
mutation.  At BG/L scheduler scale (a 4x4x8 supernode torus, 128 shapes)
the cost of a rebuild is not the arithmetic but the *number of numpy
dispatches*, so the layout is **shape-minor**: the shape axis (128 long,
against 4, 4 and 8 for the base axes) is innermost and contiguous, and
every ufunc of the hot path runs its inner loop over a full row of
shapes:

* allocating or freeing a box ``B`` changes ``sums`` by
  ``±overlap(B, window)``, and the overlap volume of two wrapped boxes
  is *separable* — the product of three per-axis modular interval
  overlaps.  Those per-axis overlap rows depend only on the torus
  dimensions, so they are precomputed once per dims (:func:`_tables`)
  and a mutation costs two table lookups, one broadcast multiply and
  one accumulate;
* the free-placement grids of every shape are then just ``sums == 0``
  and the per-shape totals one add-reduce over the base axis
  (:meth:`PlacementIndex._refresh`);
* candidate scoring (:meth:`PlacementIndex.batch_mfp_losses`) reads
  bit-packed per-axis projections of those grids — no placement
  integrals at all.

Each state pays only for what it is asked:

* **Narrow tensor.**  ``sums`` and the overlap tables it is patched
  from are stored in ``np.min_scalar_type(volume)`` — ``uint8`` on the
  4x4x8 torus.  A window sum or an overlap never exceeds the volume,
  and a release subtracts exactly the patch its allocation added, so
  the arithmetic stays exact with no wrap-around.
* **Lazy projections.**  The projections are built on the first scoring
  of a state (:meth:`PlacementIndex._projections`), not by every sync:
  the simulator syncs the index once per event batch but scores only
  when a job fits.
* **Candidates selected from a table built once per size.**  Which
  ``(shape, canonical base)`` pairs a size has, in what order and at
  which fused scoring-table row depends on the dims alone
  (:class:`_SizeTable`), so a state's candidates are one ``take`` of the
  free grid and one ``nonzero``, and scoring gathers their rows
  with one 1-D gather.  Both are kept until the next sync that patches.
* **A state come back to is not re-derived.**  A sync whose diff is
  empty — a job allocated and released between two lookups — patches
  nothing and skips the refresh: every per-state field, projection,
  enumeration and loss is a pure function of ``sums``, so what the
  index holds is still bitwise a fresh rebuild's answer.  A sync that
  patches its way back to a set of held boxes the index held earlier
  — a job finished and one of the same shape placed where it was —
  takes back that state's record from the index's own memo instead:
  each distinct :class:`Partition` value gets a small integer id the
  first time the index patches it, the state key is the bitset of the
  held ids (XORed in the loop that patches), and equal keys are equal
  sets of boxes, so equal answers.  The record is everything
  :meth:`PlacementIndex._refresh` derives plus what later questions
  filled in (projections, feasible sizes, enumerations and losses),
  saved when the index leaves the state.  The free grid stays out of
  it: a recalled state rebuilds ``sums == 0`` only when asked
  (:meth:`PlacementIndex._free_grid`).  The memo is cleared at
  :data:`STATE_MEMO_MAX` records.

There is no busy integral and the index never reads ``torus.grid``: it
remembers which allocations its tensor holds, and
:meth:`PlacementIndex.sync` diffs that map against the torus's.  A build
is a zero tensor plus one sync; :class:`IndexCache` hands the scheduler
one index and syncs it whenever ``torus.version`` moved.

All patches are exact integer arithmetic, so every answer is **bitwise
equal** to a from-scratch rebuild.  That rebuild is
the test suite's ``ReferencePlacementIndex`` — lazy per-shape grids
from a busy integral of ``torus.grid`` and a scalar early-exit scoring
walk — which the differential suites under ``tests/allocation`` compare
with this index field for field and loss for loss.  The two share only
:class:`CandidateBatch`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.geometry.coords import Coord, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import all_shapes, shapes_for_size
from repro.geometry.torus import Torus
from repro.obs.metrics import MetricsRegistry

#: Records a :class:`PlacementIndex` keeps of the states it has left; the
#: memo is cleared when it holds this many.
STATE_MEMO_MAX = 96


class CandidateBatch:
    """All free partitions of one size, held as struct-of-arrays.

    Candidates are grouped by shape in enumeration order (shape order of
    :func:`~repro.geometry.shapes.shapes_for_size`, then base order —
    row-major over ``(x, y, z)``).  Bases along fully-spanned axes are
    canonicalised to 0 and deduplicated (first occurrence wins), so each
    node set appears once.  :class:`~repro.geometry.partition.Partition`
    objects are materialised lazily — only for the winning candidate and
    for trace records — via :meth:`partition` (a selection's: one per
    table entry).

    The production index hands out a *selection* (:meth:`selected`): the
    ascending rows ``sel`` of its size's :class:`_SizeTable`.  ``len``,
    :meth:`partition` and :meth:`shape_rows` read the table; ``bases``
    is derived on first read (balancing, tie-break, tracing — never
    Krevat).  The reference index packs its own enumeration eagerly
    (:meth:`packed`), sharing no table with production; only a packed
    batch holds the group layout ``shapes`` / ``starts``.
    """

    __slots__ = ("dims", "shapes", "starts", "bases", "_n", "_table", "_sel", "_shape_rows")

    @classmethod
    def packed(
        cls,
        dims: TorusDims,
        shapes: tuple[Coord, ...],
        starts: tuple[int, ...],
        bases: np.ndarray,
    ) -> "CandidateBatch":
        """The batch whose group ``g`` (shape ``shapes[g]``) is
        ``bases[starts[g]:starts[g+1]]``, ``bases`` an ``(n, 3)`` array
        of canonical bases."""
        batch = cls.__new__(cls)
        batch.dims, batch._n, batch._table, batch._sel = dims, starts[-1], None, None
        batch.shapes, batch.starts, batch.bases = shapes, starts, bases
        batch._shape_rows = None
        return batch

    @classmethod
    def selected(cls, dims: TorusDims, table: _SizeTable, sel: np.ndarray) -> CandidateBatch:
        """The batch of the entries ``sel`` (ascending) of ``table``."""
        batch = cls.__new__(cls)
        batch.dims, batch._n, batch._table, batch._sel = dims, sel.size, table, sel
        batch._shape_rows = None
        return batch

    def __getattr__(self, name: str):
        # Only an unset slot gets here: a selection's derived ``bases``.
        if name != "bases" or self._table is None:
            raise AttributeError(name)
        self.bases = self._table.bases[self._sel]
        return self.bases

    def __len__(self) -> int:
        return self._n

    def shape_rows(self) -> np.ndarray:
        """``(n, 3)`` array: the shape of every candidate row (cached).

        A selection gathers its rows of the size table's ``ext`` column;
        a packed batch fills them group by group.
        """
        rows = self._shape_rows
        if rows is None:
            if self._table is not None:
                rows = self._table.ext[self._sel]
            else:
                rows = np.empty((len(self), 3), dtype=np.int64)
                for g, shape in enumerate(self.shapes):
                    rows[self.starts[g] : self.starts[g + 1]] = shape
            self._shape_rows = rows
        return rows

    def partition(self, i: int) -> Partition:
        """Candidate row ``i`` as a :class:`Partition`; a selection's
        is its (frozen) table entry's, built on first use."""
        table = self._table
        if table is None:
            x, y, z = self.bases[i].tolist()
            return Partition((x, y, z), self.shapes[bisect_right(self.starts, i) - 1])
        j = self._sel[i]
        part = table.parts[j]
        if part is None:
            x, y, z = table.bases[j].tolist()
            part = table.parts[j] = Partition((x, y, z), table.all_shapes[table.rows[j]])
        return part

    def column_text(self, rows: slice | np.ndarray) -> tuple[str, str]:
        """The ``base`` and ``shape`` columns of candidate ``rows`` as
        JSON array text (decision tracing): the bytes ``canonical_json``
        gives their ``tolist()``, gathered from the size table's ``text``
        (a selection) or from :meth:`_DimsTables.text` by free-grid base
        and shape row (a packed batch)."""
        table = self._table
        if table is None:
            t = _tables(self.dims.as_tuple())
            _, Y, Z = t.dims_tuple
            bases = self.bases[rows].astype(np.intp)
            flat = (bases[:, 0] * Y + bases[:, 1]) * Z + bases[:, 2]
            group_rows = [t.row_of[shape] for shape in self.shapes]
            base_text, shape_text = t.text()
            base = base_text[flat]
            shape = shape_text[np.repeat(group_rows, np.diff(self.starts))[rows]]
        else:
            if table.text is None:
                base_text, shape_text = _tables(self.dims.as_tuple()).text()
                table.text = (base_text[table.idx // len(table.all_shapes)], shape_text[table.rows])
            sel = self._sel[rows]
            base, shape = table.text[0][sel], table.text[1][sel]
        return "[" + ",".join(base.tolist()) + "]", "[" + ",".join(shape.tolist()) + "]"

    def partitions(self) -> list[Partition]:
        """Materialise every candidate (enumeration order)."""
        return [
            Partition((x, y, z), (a, b, c))
            for (x, y, z), (a, b, c) in zip(self.bases.tolist(), self.shape_rows().tolist())
        ]


class _SizeTable:
    """Every ``(shape, canonical base)`` of one size in enumeration order
    (:func:`~repro.geometry.shapes.shapes_for_size` order, then
    row-major bases): a function of the dims, built once per size by
    :meth:`_DimsTables.size_table`.  Per entry: ``idx``, its flat index
    into the shape-minor free grid; ``keys``, its fused scoring-table row
    (``None`` without ``zall``); ``rows``, its shape row; ``ext``, its
    shape's ``(3,)`` extents (what a predictor query takes per
    candidate, and the per-axis resolve's); ``bases``, its base;
    ``parts``, its :class:`Partition` once a placement asked for it
    (``None`` until then); ``text``, its base and shape text columns
    once a traced decision asked (``None`` until then).
    """

    __slots__ = ("idx", "keys", "rows", "ext", "bases", "all_shapes", "parts", "text")

    def __init__(self, t: _DimsTables, rows: np.ndarray, flat: np.ndarray) -> None:
        self.rows = rows.astype(np.int32)
        self.idx = flat.astype(np.int32) * len(t.shapes) + self.rows
        self.ext = t.ext[rows]
        base = t.coords[flat]
        if t.zall is None:
            self.keys = None
        else:
            # The ``zall`` row: kx * Y²Z² + ky * Z² + kz with k_axis =
            # (extent-1) * P + base.
            _, Y, Z = t.dims_tuple
            k = (self.ext - 1) * np.array(t.dims_tuple) + base
            self.keys = ((k[:, 0] * (Y * Y) + k[:, 1]) * (Z * Z) + k[:, 2]).astype(np.int32)
        self.bases = base.astype(np.min_scalar_type(-max(t.dims_tuple)))
        self.all_shapes = t.shapes
        self.parts: list[Partition | None] = [None] * len(self.rows)
        self.text: tuple[np.ndarray, np.ndarray] | None = None


class _DimsTables:
    """Static per-dims lookup tables shared by every placement index.

    Everything here depends only on the torus dimensions (and the fixed
    decreasing-volume shape order of
    :func:`~repro.geometry.shapes.all_shapes`), never on occupancy.
    Every table that meets the window-sum tensor is **shape-minor** like
    it: the shape axis comes last, so a gathered row is a stack of
    contiguous ``(S,)`` vectors.  The scoring masks carry one column
    more, ``S``: the *empty shape*, of volume 0, which survives every
    candidate — so the first surviving column always exists and its
    volume is the answer.
    """

    __slots__ = (
        "dims_tuple",
        "shapes",
        "row_of",
        "ext",
        "vol",
        "sum_dtype",
        "overlap",
        "zmask",
        "zall",
        "bitoff",
        "basebits",
        "oxy",
        "coords",
        "_size_rows",
        "_size_tables",
        "_text",
    )

    def __init__(self, dims_tuple: Coord) -> None:
        self.dims_tuple = dims_tuple
        X, Y, Z = dims_tuple
        if X + Y + Z > 64:
            raise ValueError(
                f"torus {dims_tuple} needs {X + Y + Z} projection bits; "
                "the placement index packs them into one 64-bit word"
            )
        dims = TorusDims(*dims_tuple)
        shapes = all_shapes(dims)
        n_shapes = len(shapes)
        self.shapes = shapes
        self.row_of = {shape: row for row, shape in enumerate(shapes)}
        self.ext = np.array(shapes, dtype=np.int64)            # (S, 3)
        # Shape volumes, then 0 for the empty shape.
        self.vol = np.append(self.ext.prod(axis=1), 0)          # (S+1,)
        # Window sums, overlaps and per-shape placement counts are all
        # bounded by the machine volume: one unsigned dtype that holds
        # it is exact for every table that meets ``sums``.
        self.sum_dtype = np.min_scalar_type(X * Y * Z)
        # Per-axis modular interval overlaps: overlap[axis][a-1, b] is
        # the (P, S) table of |[q, q+t_s) ∩ [b, b+a)| on the circle of
        # period P, for every window base q and shape row s.  A box
        # mutation's effect on ``sums`` is the outer product (over the
        # base axes, shape by shape) of its three axis rows.
        self.overlap = tuple(
            self._axis_overlap(dims_tuple[axis], self.ext[:, axis], self.sum_dtype)
            for axis in range(3)
        )
        # Bit-packed zero-overlap masks: bit ``q`` of ``zmask[axis][a-1,
        # b, s]`` is set iff ``overlap[axis][a-1, b, q, s] == 0``.  Axis
        # reductions over a tiny dimension are pathologically slow in
        # numpy relative to 2-D integer ops, so the disjointness test in
        # ``_excluded`` is phrased as bitmask ANDs.  The empty shape's
        # column holds z bit 0, which its projection also sets.
        self.zmask = tuple(
            np.concatenate(
                [
                    (
                        (ov == 0)
                        * (1 << np.arange(p, dtype=np.int64))[None, None, :, None]
                    ).sum(axis=2),
                    np.full((p, p, 1), int(axis == 2), dtype=np.int64),
                ],
                axis=2,
            )
            for axis, (ov, p) in enumerate(zip(self.overlap, dims_tuple))
        )
        # The three per-axis masks of one shape packed into disjoint bit
        # ranges of one word (z low, then y, then x).
        self.bitoff = (Z + Y, Z, 0)                              # x, y, z
        word = np.min_scalar_type((1 << (X + Y + Z)) - 1)
        # Row-major base coordinates: coords[flat_index] == unravel.
        x, y, z = np.unravel_index(np.arange(X * Y * Z), dims_tuple)
        self.coords = np.stack([x, y, z], axis=1).astype(np.int64)
        # One fused table for the three axes: row ``key`` holds, per
        # probe shape, all three zero-overlap masks of one candidate
        # (shape extents and base) in that packing, so a resolve costs
        # one gather instead of three; a size table holds each of its
        # candidates' row.  Only built when the table stays small; the
        # per-axis ``zmask`` path remains as fallback.
        n_keys = (X * X) * (Y * Y) * (Z * Z)
        if X + Y + Z <= 16 and n_keys * n_shapes <= 1 << 22:
            # Assembled in the word dtype: an int64 intermediate would
            # be four times the table.
            zx = self.zmask[0].astype(word).reshape(X * X, 1, 1, n_shapes + 1)
            zy = self.zmask[1].astype(word).reshape(1, Y * Y, 1, n_shapes + 1)
            zz = self.zmask[2].astype(word).reshape(1, 1, Z * Z, n_shapes + 1)
            self.zall = (
                (zx << self.bitoff[0]) | (zy << self.bitoff[1]) | zz
            ).reshape(n_keys, n_shapes + 1)
        else:
            self.zall = None
        # The word of one base: its own ``x``, ``y`` and ``z`` bit in
        # the packing above.  ``_projections`` multiplies the free grids
        # by this column and OR-reduces over the bases, which projects
        # every grid onto all three axes at once.
        self.basebits = (
            (1 << (x + self.bitoff[0])) | (1 << (y + self.bitoff[1])) | (1 << z)
        ).astype(word)[:, None]                                 # (XYZ, 1)
        # Pairwise x*y product tables, one (X, Y, S) block per (kx, ky)
        # key: a box patch then costs one multiply+accumulate
        # instead of two multiplies (the z factor is applied on the fly).
        if (X * X) * (Y * Y) * n_shapes * X * Y <= 1 << 23:
            self.oxy = (
                self.overlap[0].reshape(X * X, 1, X, 1, n_shapes)
                * self.overlap[1].reshape(1, Y * Y, 1, Y, n_shapes)
            ).reshape((X * X) * (Y * Y), X, Y, n_shapes)
        else:
            self.oxy = None
        self._size_rows: dict[int, np.ndarray] = {}
        self._size_tables: dict[int, _SizeTable] = {}
        self._text: tuple[np.ndarray, np.ndarray] | None = None

    @staticmethod
    def _axis_overlap(
        period: int, extents: np.ndarray, dtype: np.dtype
    ) -> np.ndarray:
        """``(P, P, P, S)`` table: ``[a-1, b, q, s]`` is the modular
        interval overlap ``|[q, q+extents[s]) ∩ [b, b+a)| (mod P)``."""
        p = np.arange(period)
        # member[pos, q, t-1]: is position ``pos`` inside [q, q+t)?
        member = (
            ((p[:, None] - p[None, :]) % period)[:, :, None]
            < np.arange(1, period + 1)[None, None, :]
        ).astype(np.int32)
        t_idx = extents - 1                                      # (S,)
        out = np.empty((period, period, period, extents.shape[0]), dtype=dtype)
        for a in range(1, period + 1):
            for b in range(period):
                pos = (b + np.arange(a)) % period
                out[a - 1, b] = member[pos].sum(axis=0)[:, t_idx]  # (q, S)
        return out

    def text(self) -> tuple[np.ndarray, np.ndarray]:
        """JSON text of every base coordinate (by flat index) and of
        every shape (by shape row), ``"[x,y,z]"`` each, as object
        arrays: what a traced ``considered`` column is gathered from.
        Built on first use."""
        if self._text is None:
            self._text = tuple(
                np.array(["[%d,%d,%d]" % (x, y, z) for x, y, z in triples.tolist()], dtype=object)
                for triples in (self.coords, self.ext)
            )
        return self._text

    def size_rows(self, size: int) -> np.ndarray:
        """Shape rows of every shape with volume ``size`` that fits,
        in :func:`~repro.geometry.shapes.shapes_for_size` order."""
        rows = self._size_rows.get(size)
        if rows is None:
            rows = np.array(
                [
                    self.row_of[s]
                    for s in shapes_for_size(size, TorusDims(*self.dims_tuple))
                ],
                dtype=np.intp,
            )
            self._size_rows[size] = rows
        return rows

    def size_table(self, size: int) -> _SizeTable:
        """The :class:`_SizeTable` of ``size``, built on first use."""
        table = self._size_tables.get(size)
        if table is None:
            rows = self.size_rows(size)
            # A canonical base is 0 on every axis the shape spans fully:
            # the free grid is constant along such an axis, so this is
            # the reference's first-occurrence dedup, in the same order.
            spanned = self.ext[rows] == np.array(self.dims_tuple)
            r, flat = np.nonzero(~(spanned[:, None, :] & (self.coords != 0)).any(axis=2))
            table = self._size_tables[size] = _SizeTable(self, rows[r], flat)
        return table


@lru_cache(maxsize=8)
def _tables(dims_tuple: Coord) -> _DimsTables:
    return _DimsTables(dims_tuple)


class PlacementIndex:
    """Every shape's free placements for one torus state, patched across
    mutations and scored by bit masks.

    ``_applied`` (job id → partition) names the allocations ``_sums``
    holds.  :meth:`sync` diffs it against the torus's allocation map and
    patches one box per job that left or arrived — O(1) numpy dispatches
    per box — then takes back the per-state fields of a state it held
    before (``_memo``, keyed by ``_key``) or has :meth:`_refresh`
    re-derive them; a sync with nothing to patch keeps them.
    Construction is a zero tensor plus one :meth:`sync`, so a build and
    a repair run the same patches.
    """

    __slots__ = (
        "dims",
        "torus_version",
        "_tables",
        "_sums",
        "_applied",
        "_free",
        "_tot",
        "_ne_idx",
        "_fall",
        "_feasible",
        "_sizes",
        "_key",
        "_ids",
        "_memo",
    )

    def __init__(self, torus: Torus) -> None:
        t = _tables(torus.dims.as_tuple())
        self._tables = t
        self.dims: TorusDims = torus.dims
        self._sums = np.zeros(t.dims_tuple + (len(t.shapes),), t.sum_dtype)
        self._applied: dict[int, Partition] = {}
        #: The held boxes as a bitset of ``_ids`` (partition value → bit).
        self._key = 0
        self._ids: dict[Partition, int] = {}
        #: key → (_tot, _ne_idx, _feasible, _fall, _sizes) of a state left.
        self._memo: dict[int, tuple] = {}
        self._tot = None  # nothing derived yet: the first sync saves no record
        if not self.sync(torus):
            self._refresh()  # an empty machine: nothing patched or derived yet

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def sync(self, torus: Torus) -> int:
        """Bring the index to ``torus``'s current state; returns the
        number of boxes patched.

        The allocations ``_sums`` holds are diffed against
        ``torus.allocations()`` by identity: a partition no longer held
        by its job (released, or moved by a migration) is patched out,
        one newly held is patched in.  One patch is the box's ``(X, Y,
        S)`` x·y overlap block times its ``(Z, S)`` z overlap rows.  The
        frees go first, so every intermediate tensor is a real occupancy
        and the unsigned sums never wrap.  Only a patch is followed by
        :meth:`_refresh`: every per-state field is a pure function of
        ``_sums``, so when the diff is empty (a job came and went since
        the last sync) the cached fields, enumerations and losses are
        still bitwise a fresh rebuild's and are kept.  A patch saves the
        state it leaves in ``_memo`` under its key and, when the new key
        is there, takes that record back instead of refreshing: equal
        keys are equal sets of held boxes, so equal ``_sums``.  Either
        way the index afterwards answers exactly as a fresh build would.
        """
        t = self._tables
        sums = self._sums
        X, Y, _ = t.dims_tuple
        applied = self._applied
        held = dict(torus.allocations())
        changes = [
            (np.subtract, p) for j, p in applied.items() if held.get(j) is not p
        ]
        changes += [(np.add, p) for j, p in held.items() if applied.get(j) is not p]
        self.torus_version = torus.version
        if not changes:
            return 0
        ids = self._ids
        key = self._key
        for op, partition in changes:
            bx, by, bz = partition.base
            ax, ay, az = partition.shape
            if t.oxy is not None:
                oxy = t.oxy[((ax - 1) * X + bx) * (Y * Y) + (ay - 1) * Y + by]
            else:
                oxy = (
                    t.overlap[0][ax - 1, bx][:, None, :]
                    * t.overlap[1][ay - 1, by][None, :, :]
                )                                                # (X, Y, S)
            op(sums, oxy[:, :, None, :] * t.overlap[2][az - 1, bz], out=sums)
            bit = ids.get(partition)
            if bit is None:
                bit = ids[partition] = len(ids)
            key ^= 1 << bit
        self._applied = held
        memo = self._memo
        if self._tot is not None:
            if len(memo) >= STATE_MEMO_MAX:
                memo.clear()
            memo[self._key] = (
                self._tot, self._ne_idx, self._feasible, self._fall, self._sizes,
            )
        self._key = key
        record = memo.get(key)
        if record is None:
            self._refresh()
        else:
            self._tot, self._ne_idx, self._feasible, self._fall, self._sizes = record
            self._free = None  # rebuilt from ``_sums`` when asked
        return len(changes)

    def _refresh(self) -> None:
        """Re-derive every per-state field from ``_sums``.

        ``sums == 0`` and one add-reduce over the leading (base) axis —
        a whole-row accumulate, never a reduction along a short trailing
        axis.  What only scoring and the backfill walk read (projections,
        feasible sizes, per-size enumerations and losses) is dropped here
        and rebuilt on demand.
        """
        t = self._tables
        free = self._sums == 0
        self._free: np.ndarray | None = free                       # (X,Y,Z,S)
        fr = free.view(np.uint8).reshape(-1, len(t.shapes))        # (XYZ, S)
        self._tot = np.add.reduce(fr, axis=0, dtype=t.sum_dtype)  # (S,)
        self._ne_idx = self._tot.nonzero()[0]
        self._feasible: bytes | None = None
        self._fall: np.ndarray | None = None
        #: size → [batch, size table, selected rows, losses or None].
        self._sizes: dict[int, list] = {}

    def _free_grid(self) -> np.ndarray:
        """The free-placement grids ``sums == 0`` (X, Y, Z, S) of this
        state: :meth:`_refresh`'s, or rebuilt on the first read after
        :meth:`sync` took back a recalled state's record."""
        free = self._free
        if free is None:
            free = self._free = self._sums == 0
        return free

    def _projections(self) -> np.ndarray:
        """Bit-packed per-axis projections of the free grids, built on
        the first scoring of a state.

        In the ``zall`` layout: bit ``bitoff[axis] + v`` of ``fall[s]``
        is set iff some free placement of shape ``s`` has coordinate
        ``v`` on that axis — the whole state :meth:`_excluded` needs.
        A free base contributes its own three bits, so one multiply by
        a per-base word and one OR-reduce project every grid at once.
        ``fall[S]``, the empty shape, is z bit 0.
        """
        fall = self._fall
        if fall is None:
            t = self._tables
            n_shapes = len(t.shapes)
            proj = self._free_grid().view(np.uint8).reshape(-1, n_shapes)
            proj = proj.astype(t.basebits.dtype)
            proj *= t.basebits
            fall = np.empty(n_shapes + 1, dtype=t.basebits.dtype)
            np.bitwise_or.reduce(proj, axis=0, out=fall[:n_shapes])
            fall[n_shapes] = 1
            self._fall = fall
        return fall

    # ------------------------------------------------------------------
    # candidates and scoring
    # ------------------------------------------------------------------
    def _excluded(self, table: _SizeTable, sel: np.ndarray) -> np.ndarray:
        """MFP size after hypothetically allocating each candidate
        ``table`` entry of ``sel``.

        A free placement of probe shape ``s`` at ``q`` survives
        candidate ``c`` iff the wrapped boxes are disjoint, i.e. the
        per-axis overlap is zero on *some* axis.  ``any(free & (zx |
        zy | zz))`` distributes over the OR into three per-axis tests
        against the bit-packed projections, so the whole resolve is a
        handful of 2-D integer dispatches on ``(n, S+1)`` arrays — no
        probe integrals, no scalar walk.  The answer per candidate is
        the volume of the first surviving column in the decreasing-volume
        shape order, exactly the reference walk's early exit; the empty
        shape's column always survives, so a candidate that leaves
        nothing free answers 0 with no special case.
        """
        t = self._tables
        fall = self._projections()
        if table.keys is not None:
            survive = (t.zall.take(table.keys.take(sel), axis=0) & fall) != 0  # (n, S+1)
        else:
            # No fused table for these dims: test axis by axis.  A
            # per-axis mask has no bit at or above its period, so
            # shifting the projections down to an axis's range is all
            # the unpacking the AND needs.
            a = table.ext.take(sel, axis=0) - 1
            b = table.bases.take(sel, axis=0)
            ox, oy, _ = t.bitoff
            fall = fall.astype(np.int64)
            survive = (
                (t.zmask[0][a[:, 0], b[:, 0]] & (fall >> ox))
                | (t.zmask[1][a[:, 1], b[:, 1]] & (fall >> oy))
                | (t.zmask[2][a[:, 2], b[:, 2]] & fall)
            ) != 0                                               # (n, S+1)
        return t.vol[survive.argmax(axis=1)]

    def _enumerate(self, size: int) -> list:
        """Every free partition of ``size``, the per-size entry ``[batch,
        table, sel, None]``: ``sel`` the rows of the size's
        :class:`_SizeTable` that are free (one ``take``, one
        ``nonzero``).  Kept with the state, so ``candidate_batch`` and
        the scoring after it share it, and so does a later visit that
        recalls the state.
        """
        table = self._tables.size_table(size)
        sel = self._free_grid().take(table.idx).nonzero()[0]
        entry = self._sizes[size] = [
            CandidateBatch.selected(self.dims, table, sel), table, sel, None,
        ]
        return entry

    def candidate_batch(self, size: int) -> CandidateBatch:
        """All free partitions of exactly ``size`` nodes as arrays."""
        return (self._sizes.get(size) or self._enumerate(size))[0]

    def batch_mfp_losses(self, size: int) -> tuple[CandidateBatch, np.ndarray]:
        """Every candidate of ``size`` with its ``L_MFP``, as arrays.

        Returns ``(batch, losses)`` where ``losses[i]`` is the MFP
        shrinkage caused by allocating ``batch.partition(i)`` — bitwise
        equal to the reference's per-candidate scalar walk.  One resolve
        for the whole size, candidates of every shape together, kept
        with the size's enumeration in the state's record.
        """
        entry = self._sizes.get(size) or self._enumerate(size)
        if entry[3] is None:
            entry[3] = self.mfp_size() - self._excluded(entry[1], entry[2])
        return entry[0], entry[3]

    def has_candidate(self, size: int) -> bool:
        """True when at least one free partition of ``size`` exists."""
        # A byte per size 0..volume, set for the volumes of the non-empty
        # shape rows, once per state: the backfill walk asks this for
        # every distinct waiting size.
        feasible = self._feasible
        if feasible is None:
            table = np.zeros(self.dims.volume + 1, np.uint8)
            table[self._tables.vol[self._ne_idx]] = 1
            feasible = self._feasible = table.tobytes()
        return 0 <= size < len(feasible) and feasible[size] == 1

    def mfp_size(self) -> int:
        """Size of the maximal free partition (0 on a full machine)."""
        idx = self._ne_idx
        return int(self._tables.vol[idx[0]]) if idx.size else 0

    def mfp_partition(self) -> Partition | None:
        """One witness maximal free partition, or None on a full machine:
        the first free base, row-major, of the largest free shape."""
        idx = self._ne_idx
        if idx.size == 0:
            return None
        row = int(idx[0])
        base = self._tables.coords[int(self._free_grid()[..., row].argmax())]
        return Partition(
            (int(base[0]), int(base[1]), int(base[2])), self._tables.shapes[row]
        )

    # ------------------------------------------------------------------
    # EASY reservation
    # ------------------------------------------------------------------
    def first_fit_release(
        self, size: int, releases: Sequence[Partition]
    ) -> int | None:
        """Index of the first of ``releases`` after which ``size`` fits.

        ``releases`` are allocated partitions freed hypothetically, in
        order, on top of this state (the EASY shadow-time replay);
        ``None`` when no free partition of ``size`` exists even after
        the last one.  Replayed from the jobs that stay (DESIGN §5.15):
        after release ``k`` a window is free exactly when no allocation
        still held — in ``releases[k+1:]`` or not listed at all — overlaps
        it.  The sums stay in the narrow dtype: they count busy nodes of
        one window.  The replay runs ``(n, R, bases)``, gathered in that
        order straight from the shape-minor tables.
        """
        t = self._tables
        rows = t.size_rows(size)
        if not rows.size:
            return None
        # Node-count bound: no box of ``size`` nodes exists before the
        # free nodes (the 1x1x1 row of ``_tot``) plus the nodes released
        # reach ``size``, so the answer is at least ``k0``.
        free = int(self._tot[t.row_of[(1, 1, 1)]])
        for k0, partition in enumerate(releases):
            free += partition.size
            if free >= size:
                break
        else:
            return None
        # Patch only what is still held at ``k0``.  The shadow replay
        # lists every running job, so it never searches for unlisted
        # ones; when nothing stays (a full-machine head) ``k0`` is the
        # answer with no numpy call.
        n_tail = len(releases) - 1 - k0
        stay = list(releases[k0 + 1:])
        if len(releases) < len(self._applied):
            listed = set(releases)
            stay += [p for p in self._applied.values() if p not in listed]
        if not stay:
            return k0
        wrap = self.dims.wrap
        box = np.array([wrap(p.base) + p.shape for p in stay])       # (n, 6)
        r = rows[None, :]
        ox = t.overlap[0][box[:, 3, None] - 1, box[:, 0, None], :, r]  # (n, R, X)
        oy = t.overlap[1][box[:, 4, None] - 1, box[:, 1, None], :, r]
        oz = t.overlap[2][box[:, 5, None] - 1, box[:, 2, None], :, r]
        busy = (ox[:, :, :, None] * oy[:, :, None, :])[..., None] \
            * oz[:, :, None, None, :]                                # (n,R,X,Y,Z)
        # Running sums from the end, so ``busy[i]`` is the busy count
        # after release ``k0 + i``; one whole-block add each, since an
        # accumulate along the leading axis runs a strided loop per cell.
        total = busy[-1]
        for patch in busy[-2::-1]:
            patch += total
            total = patch
        # Release-major, so the first hit in flat order names the first
        # release that empties a window (bool argmax stops there).  With
        # no unlisted job the last release drains the machine.
        hit = (busy[: n_tail + 1] == 0).ravel()
        first = int(hit.argmax())
        if hit[first]:
            return k0 + first // busy[0].size
        return None if len(stay) > n_tail else k0 + n_tail


class IndexCache:
    """The placement index for one torus's *current* state.

    The scheduler's inner loops repeatedly need "the index for the
    current machine state": the dispatch scan, the backfill walk's
    feasible-size gate and the shadow-time release replay share the
    simulator's cache, and the compaction planner keeps one over its
    scratch torus.  The cache holds one :class:`PlacementIndex`, built on
    the first lookup; an unchanged ``torus.version`` returns it as is,
    and when the version moved it is *synced* to the torus's allocation
    map (one O(box) patch per job that left or arrived), however many
    mutations lie in between; mutations that cancel out patch nothing
    and keep the index's caches.  On the ``metrics`` registry the cache
    was handed (none: nothing is counted) one counter per lookup
    records the path it took: ``index.builds`` the one build,
    ``index.incremental.hit`` an unchanged version,
    ``index.incremental.repair`` a sync that patched and
    ``index.incremental.kept`` one that patched nothing.

    The test suite's ``RebuildIndexCache`` is the reference twin the
    tests substitute: a from-scratch ``ReferencePlacementIndex`` per
    state.
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
            index = self._index = PlacementIndex(torus)
            counter = "index.builds"
        elif index.torus_version == torus.version:
            counter = "index.incremental.hit"
        elif index.sync(torus):
            counter = "index.incremental.repair"
        else:
            counter = "index.incremental.kept"
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
