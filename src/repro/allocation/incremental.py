"""The production placement index: patched across mutations, scored by
bit masks.

The base :class:`~repro.allocation.mfp.PlacementIndex` derives
everything lazily from one wrap-padded busy integral and answers for the
one state it was built on.  At BG/L scheduler scale (a 4x4x8 supernode
torus, 128 shapes) the cost of a rebuild per mutation is not the
arithmetic — it is the *number of numpy dispatches* the lazy per-shape
scan issues while re-deriving placement grids the previous state had
already materialised.

:class:`IncrementalPlacementIndex` instead keeps the all-shapes
busy-window-sum tensor ``sums[x, y, z, s]`` — the number of busy nodes
inside the window of shape ``s`` based at ``(x, y, z)`` — as its core
state and patches it in O(1) numpy ops per box mutation.  The layout is
**shape-minor**: the shape axis (128 long on the BG/L torus, against 4,
4 and 8 for the base axes) is innermost and contiguous, so every ufunc
the hot path issues runs its inner loop over a full row of shapes
instead of over eight ``z`` positions:

* allocating or freeing a box ``B`` changes ``sums`` by
  ``±overlap(B, window)``, and the overlap volume of two wrapped boxes
  is *separable* — the product of three per-axis modular interval
  overlaps.  Those per-axis overlap rows depend only on the torus
  dimensions, so they are precomputed once per dims
  (:func:`_tables`) and a mutation costs two table lookups, one
  broadcast multiply and one accumulate;
* the free-placement grids of every shape are then just
  ``sums == 0``, per-shape totals one add-reduce over the base axis,
  and the per-axis projections of every grid one multiply by a
  per-base bit word plus one OR-reduce (:meth:`_refresh`) — no lazy
  per-shape scan ever runs;
* candidate scoring (``_batch_excluding``) reads those bit-packed
  projections — no placement integrals at all.

The busy integral the base class builds is read once, by the
constructor's full build of ``sums``, and dropped: every query the base
class answers from it is overridden here to answer from ``sums``.

This is the only index the engine runs on
(:class:`~repro.allocation.mfp.IndexCache` builds nothing else).  All
patches are exact integer arithmetic, so every derived field is
**bitwise equal** to a from-scratch rebuild: the differential suite
under ``tests/allocation`` builds a fresh ``PlacementIndex`` after every
mutation and asserts field-for-field equality, and scores every
candidate with both the bit-mask kernel and the reference's scalar walk.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.allocation.mfp import CandidateBatch, PlacementIndex
from repro.geometry.coords import Coord
from repro.geometry.partition import Partition
from repro.geometry.shapes import all_shapes, shapes_for_size
from repro.geometry.torus import Torus


class _DimsTables:
    """Static per-dims lookup tables shared by every incremental index.

    Everything here depends only on the torus dimensions (and the fixed
    decreasing-volume shape order of
    :func:`~repro.geometry.shapes.all_shapes`), never on occupancy.
    Every table that meets the window-sum tensor is **shape-minor** like
    it: the shape axis comes last, so a gathered row is a stack of
    contiguous ``(S,)`` vectors.
    """

    __slots__ = (
        "dims_tuple",
        "shapes",
        "row_of",
        "ext",
        "vol",
        "fullspan",
        "overlap",
        "zmask",
        "zall",
        "keyw",
        "bitoff",
        "basebits",
        "cnt_dtype",
        "oxy",
        "coords",
        "flat8",
        "signs",
        "_size_rows",
        "_canon",
    )

    def __init__(self, dims_tuple: Coord) -> None:
        self.dims_tuple = dims_tuple
        from repro.geometry.coords import TorusDims

        X, Y, Z = dims_tuple
        if X + Y + Z > 64:
            raise ValueError(
                f"torus {dims_tuple} needs {X + Y + Z} projection bits; "
                "the incremental index packs them into one 64-bit word"
            )
        dims = TorusDims(*dims_tuple)
        shapes = all_shapes(dims)
        n_shapes = len(shapes)
        self.shapes = shapes
        self.row_of = {shape: row for row, shape in enumerate(shapes)}
        self.ext = np.array(shapes, dtype=np.int64)            # (S, 3)
        self.vol = self.ext.prod(axis=1)                        # (S,)
        self.fullspan = (
            self.ext == np.array(dims_tuple, dtype=np.int64)[None, :]
        ).any(axis=1)                                           # (S,)
        # Per-axis modular interval overlaps: overlap[axis][a-1, b] is
        # the (P, S) table of |[q, q+t_s) ∩ [b, b+a)| on the circle of
        # period P, for every window base q and shape row s.  A box
        # mutation's effect on ``sums`` is the outer product (over the
        # base axes, shape by shape) of its three axis rows.
        self.overlap = tuple(
            self._axis_overlap(dims_tuple[axis], self.ext[:, axis])
            for axis in range(3)
        )
        # Bit-packed zero-overlap masks: bit ``q`` of ``zmask[axis][a-1,
        # b, s]`` is set iff ``overlap[axis][a-1, b, q, s] == 0``.  Axis
        # reductions over a tiny dimension are pathologically slow in
        # numpy relative to 2-D integer ops, so the disjointness test in
        # ``_batch_excluding`` is phrased as bitmask ANDs.
        self.zmask = tuple(
            (
                (ov == 0)
                * (1 << np.arange(p, dtype=np.int64))[None, None, :, None]
            ).sum(axis=2)
            for ov, p in zip(self.overlap, dims_tuple)
        )
        # The three per-axis masks of one shape packed into disjoint bit
        # ranges of one word (z low, then y, then x).
        self.bitoff = (Z + Y, Z, 0)                              # x, y, z
        word = np.min_scalar_type((1 << (X + Y + Z)) - 1)
        # One fused table for the three axes: row ``key(c)`` holds, per
        # probe shape, all three zero-overlap masks of candidate ``c``
        # in that packing, so a resolve costs one gather instead of
        # three.  Only built when the table stays small; the per-axis
        # ``zmask`` path remains as fallback.
        n_keys = (X * X) * (Y * Y) * (Z * Z)
        if X + Y + Z <= 16 and n_keys * n_shapes <= 1 << 22:
            zx = self.zmask[0].reshape(X * X, 1, 1, n_shapes)
            zy = self.zmask[1].reshape(1, Y * Y, 1, n_shapes)
            zz = self.zmask[2].reshape(1, 1, Z * Z, n_shapes)
            self.zall = (
                (zx << self.bitoff[0]) | (zy << self.bitoff[1]) | zz
            ).reshape(n_keys, n_shapes).astype(word)
            # key(c) = kx * Y²Z² + ky * Z² + kz with k_axis = a*P + b:
            # two (n, 3) @ (3,) products against these stride vectors.
            self.keyw = (
                np.array(
                    [X * Y * Y * Z * Z, Y * Z * Z, Z], dtype=np.int64
                ),
                np.array([Y * Y * Z * Z, Z * Z, 1], dtype=np.int64),
            )
        else:
            self.zall = None
            self.keyw = None
        # Row-major base coordinates: coords[flat_index] == unravel.
        x, y, z = np.unravel_index(
            np.arange(int(np.prod(dims_tuple))), dims_tuple
        )
        self.coords = np.stack([x, y, z], axis=1).astype(np.int64)
        # The word of one base: its own ``x``, ``y`` and ``z`` bit in
        # the packing above.  ``_refresh`` multiplies the free grids by
        # this column and OR-reduces over the bases, which projects
        # every grid onto all three axes at once.
        self.basebits = (
            (1 << (x + self.bitoff[0])) | (1 << (y + self.bitoff[1])) | (1 << z)
        ).astype(word)[:, None]                                 # (XYZ, 1)
        # Per-shape placement counts are bounded by the number of bases,
        # so a byte accumulator is exact whenever the volume fits one;
        # bigger machines count in int64.
        self.cnt_dtype = np.uint8 if int(self.vol[0]) <= 255 else np.int64
        # Pairwise x*y product tables, one (X, Y, S) block per (kx, ky)
        # key: an `apply` patch then costs one multiply+accumulate
        # instead of two multiplies (the z factor is applied on the fly).
        if (X * X) * (Y * Y) * n_shapes * X * Y <= 1 << 23:
            self.oxy = (
                self.overlap[0].reshape(X * X, 1, X, 1, n_shapes)
                * self.overlap[1].reshape(1, Y * Y, 1, Y, n_shapes)
            ).reshape((X * X) * (Y * Y), X, Y, n_shapes)
        else:
            self.oxy = None
        # Eight-corner gather for a full sums build from the busy
        # integral: flat8[t, x, y, z, s] indexes the raveled padded
        # integral; signs[t] is +1 when the corner offsets an odd number
        # of axes by the shape extent.
        ix0 = np.arange(X, dtype=np.int64)[:, None, None, None]
        iy0 = np.arange(Y, dtype=np.int64)[None, :, None, None]
        iz0 = np.arange(Z, dtype=np.int64)[None, None, :, None]
        ex, ey, ez = self.ext.T                                  # (S,) each
        terms, signs = [], []
        for bx in (0, 1):
            for by in (0, 1):
                for bz in (0, 1):
                    terms.append(
                        ((ix0 + bx * ex) * (2 * Y) + (iy0 + by * ey)) * (2 * Z)
                        + (iz0 + bz * ez)
                    )
                    signs.append(1 if (bx + by + bz) % 2 == 1 else -1)
        self.flat8 = np.stack(terms)                             # (8,X,Y,Z,S)
        self.signs = tuple(signs)
        self._size_rows: dict[int, np.ndarray] = {}
        self._canon: dict[int, tuple[tuple, np.ndarray]] = {}

    @staticmethod
    def _axis_overlap(period: int, extents: np.ndarray) -> np.ndarray:
        """``(P, P, P, S)`` table: ``[a-1, b, q, s]`` is the modular
        interval overlap ``|[q, q+extents[s]) ∩ [b, b+a)| (mod P)``."""
        p = np.arange(period)
        # member[pos, q, t-1]: is position ``pos`` inside [q, q+t)?
        member = (
            ((p[:, None] - p[None, :]) % period)[:, :, None]
            < np.arange(1, period + 1)[None, None, :]
        ).astype(np.int32)
        t_idx = extents - 1                                      # (S,)
        # int32 throughout: window sums are bounded by the machine
        # volume, and the narrower dtype halves patch bandwidth.
        out = np.empty(
            (period, period, period, extents.shape[0]), dtype=np.int32
        )
        for a in range(1, period + 1):
            for b in range(period):
                pos = (b + np.arange(a)) % period
                out[a - 1, b] = member[pos].sum(axis=0)[:, t_idx]  # (q, S)
        return out

    def canon(self, row: int) -> tuple[tuple, np.ndarray]:
        """Full-span canonicalisation helpers for shape ``row``.

        Returns ``(slicer, coords)``: indexing a free grid with
        ``slicer`` pins every fully-spanned axis at 0 (the free grid is
        constant along such axes — the window covers the whole axis, so
        every base sees the same occupancy), and ``coords[i]`` is the
        canonical base of the ``i``-th surviving cell in row-major
        order.  Equivalent to, and much cheaper than, zeroing the
        spanned axes and first-occurrence dedup.
        """
        out = self._canon.get(row)
        if out is None:
            shape = self.shapes[row]
            full = [shape[a] == self.dims_tuple[a] for a in range(3)]
            slicer = tuple(0 if f else slice(None) for f in full)
            axes = [
                np.arange(p) if not f else np.zeros(1, dtype=np.int64)
                for f, p in zip(full, self.dims_tuple)
            ]
            gx, gy, gz = np.meshgrid(*axes, indexing="ij")
            coords = np.stack(
                [gx.ravel(), gy.ravel(), gz.ravel()], axis=1
            ).astype(np.int64)
            out = (slicer, coords)
            self._canon[row] = out
        return out

    def size_rows(self, size: int) -> np.ndarray:
        """Shape rows of every shape with volume ``size`` that fits,
        in :func:`~repro.geometry.shapes.shapes_for_size` order."""
        rows = self._size_rows.get(size)
        if rows is None:
            from repro.geometry.coords import TorusDims

            dims = TorusDims(*self.dims_tuple)
            rows = np.array(
                [self.row_of[s] for s in shapes_for_size(size, dims)],
                dtype=np.intp,
            )
            self._size_rows[size] = rows
        return rows


@lru_cache(maxsize=8)
def _tables(dims_tuple: Coord) -> _DimsTables:
    return _DimsTables(dims_tuple)


class IncrementalPlacementIndex(PlacementIndex):
    """A :class:`PlacementIndex` that can patch itself across mutations.

    Construction is a full (exact) build; :meth:`apply` replays a torus
    journal slice — O(1) numpy dispatches per box — and invalidates the
    per-state caches.  Every query override returns values bitwise equal
    to the inherited lazy path; the inherited scalar walk
    (``mfp_excluding`` / ``scored_candidates``, which production never
    calls) consumes the patched state through the ``_placements`` /
    ``count_placements`` overrides.
    """

    __slots__ = (
        "_tables",
        "_sums",
        "_free",
        "_tot",
        "_ne_idx",
        "_fall",
        "_feasible",
    )

    def __init__(self, torus: Torus) -> None:
        super().__init__(torus)
        t = _tables(self.dims.as_tuple())
        self._tables = t
        raveled = self._busy_integral.ravel()
        sums: np.ndarray | None = None
        for sign, idx in zip(t.signs, t.flat8):
            term = raveled.take(idx)
            if sums is None:
                sums = term if sign > 0 else -term
            elif sign > 0:
                sums += term
            else:
                sums -= term
        assert sums is not None
        self._sums = sums.astype(np.int32)                       # (X,Y,Z,S)
        # Only ``_sums`` is patched from here on, and every query that
        # the base class answers from the integral is overridden below:
        # an inherited reader must fail, not read a stale integral.
        self._busy_integral = None  # type: ignore[assignment]
        self._refresh()

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Re-derive the per-state fields from ``_sums``.

        Each step is one ufunc over ``(bases, S)`` rows — the add- and
        OR-reduce run over the leading (base) axis, i.e. as whole-row
        accumulates, never as reductions along a short trailing axis.
        """
        t = self._tables
        free = self._sums == 0
        self._free = free                                          # (X,Y,Z,S)
        fr = free.view(np.uint8).reshape(-1, len(t.shapes))        # (XYZ, S)
        self._tot = np.add.reduce(fr, axis=0, dtype=t.cnt_dtype).astype(
            np.int64, copy=False
        )                                                          # (S,)
        self._ne_idx = np.flatnonzero(self._tot)
        self._feasible: frozenset[int] | None = None
        # Bit-packed per-axis projections of the free grids, fused in
        # the ``zall`` layout: bit ``bitoff[axis] + v`` of ``_fall[s]``
        # is set iff some free placement of shape ``s`` has coordinate
        # ``v`` on that axis — the whole state :meth:`_batch_excluding`
        # needs.  A free base contributes its own three bits (widened
        # first: a mixed-width multiply costs twice the two steps).
        proj = fr.astype(t.basebits.dtype)
        proj *= t.basebits
        self._fall = np.bitwise_or.reduce(proj, axis=0)            # (S,)

    def apply(
        self, entries: list[tuple[str, Coord, Coord]], target_version: int
    ) -> None:
        """Replay journal entries, then invalidate per-state caches.

        ``entries`` come from :meth:`Torus.journal_since`; after the
        call the index answers for ``target_version`` exactly as a fresh
        build would.  One entry is one patch of ``_sums``: the box's
        ``(X, Y, S)`` x·y overlap block times its ``(Z, S)`` z overlap
        rows, added for an allocation and subtracted for a release.
        """
        t = self._tables
        sums = self._sums
        X, Y, _ = t.dims_tuple
        for op, base, shape in entries:
            bx, by, bz = base
            ax, ay, az = shape
            if t.oxy is not None:
                oxy = t.oxy[((ax - 1) * X + bx) * (Y * Y) + (ay - 1) * Y + by]
            else:
                oxy = (
                    t.overlap[0][ax - 1, bx][:, None, :]
                    * t.overlap[1][ay - 1, by][None, :, :]
                )                                                # (X, Y, S)
            patch = oxy[:, :, None, :] * t.overlap[2][az - 1, bz]
            if op == "alloc":
                np.add(sums, patch, out=sums)
            else:
                np.subtract(sums, patch, out=sums)
        self._refresh()
        self._mfp_size = None
        self._nonempty_rows = []
        self._scan_pos = 0
        self._candidate_cache.clear()
        self._scored_cache.clear()
        self._batch_cache.clear()
        self._batch_scored_cache.clear()
        self.torus_version = target_version

    # ------------------------------------------------------------------
    # query overrides (bitwise equal to the inherited lazy path)
    # ------------------------------------------------------------------
    def _placements(self, shape: Coord) -> np.ndarray:
        return self._free[..., self._tables.row_of[shape]]

    def count_placements(self, shape: Coord) -> int:
        return int(self._tot[self._tables.row_of[shape]])

    def _batch_excluding(
        self, bases: np.ndarray, cand_shapes: np.ndarray
    ) -> np.ndarray:
        """``mfp_excluding`` for ``n`` candidates via the overlap tables.

        A free placement of probe shape ``s`` at ``q`` survives
        candidate ``c`` iff the wrapped boxes are disjoint, i.e. the
        per-axis overlap is zero on *some* axis.  ``any(free & (zx |
        zy | zz))`` distributes over the OR into three per-axis tests
        against the cached bit-packed ``_fall`` projections, so the
        whole resolve is a handful of 2-D integer dispatches on
        ``(n, S)`` arrays — no probe integrals, no scalar walk.  The
        answer per candidate is the first surviving row in the
        decreasing-volume shape order, exactly the reference walk's
        early exit (the differential suite asserts equality on every
        candidate).
        """
        n = bases.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        t = self._tables
        X, Y, Z = t.dims_tuple
        dims_arr = np.array((X, Y, Z), dtype=np.int64)
        b = bases % dims_arr
        a = cand_shapes - 1
        if t.zall is not None:
            key = a @ t.keyw[0] + b @ t.keyw[1]                  # (n,)
            survive = (t.zall[key] & self._fall[None, :]) != 0   # (n, S)
        else:
            # No fused table for these dims: test axis by axis.  A
            # per-axis mask has no bit at or above its period, so
            # shifting ``_fall`` down to an axis's range is all the
            # unpacking the AND needs.
            ox, oy, _ = t.bitoff
            fall = self._fall.astype(np.int64)[None, :]
            survive = (
                (t.zmask[0][a[:, 0], b[:, 0]] & (fall >> ox))
                | (t.zmask[1][a[:, 1], b[:, 1]] & (fall >> oy))
                | (t.zmask[2][a[:, 2], b[:, 2]] & fall)
            ) != 0                                               # (n, S)
        first = np.argmax(survive, axis=1)
        return np.where(survive.any(axis=1), t.vol[first], 0)

    def mfp_size(self) -> int:
        if self._mfp_size is None:
            idx = self._ne_idx
            self._mfp_size = int(self._tables.vol[idx[0]]) if idx.size else 0
        return self._mfp_size

    def mfp_partition(self) -> Partition | None:
        idx = self._ne_idx
        if idx.size == 0:
            return None
        row = int(idx[0])
        # First free base in row-major order, as the base class's argmax.
        base = self._tables.coords[int(self._free[..., row].argmax())]
        return Partition(
            (int(base[0]), int(base[1]), int(base[2])), self._tables.shapes[row]
        )

    def has_candidate(self, size: int) -> bool:
        # The volumes of the non-empty shape rows, once per state: the
        # backfill walk asks this for every distinct waiting size.
        feasible = self._feasible
        if feasible is None:
            feasible = self._feasible = frozenset(
                self._tables.vol[self._ne_idx].tolist()
            )
        return size in feasible

    def first_fit_release(
        self, size: int, releases: Sequence[Partition]
    ) -> int | None:
        # Freeing a box lowers ``sums`` by its separable overlap patch
        # (exactly what :meth:`apply` subtracts), so the replay is the
        # size's rows of ``_sums`` minus a running sum of patches — every
        # release at once, no integral and no window rebuild.  A size
        # has a handful of shape rows, so here the shape axis is the
        # short one: the replay runs ``(K, R, bases)``, gathered in that
        # order straight from the shape-minor tables.
        t = self._tables
        rows = t.size_rows(size)
        if not rows.size or not releases:
            return None
        n_rel = len(releases)
        wrap = self.dims.wrap
        box = np.array([wrap(p.base) + p.shape for p in releases])   # (K, 6)
        r = rows[None, :]
        ox = t.overlap[0][box[:, 3, None] - 1, box[:, 0, None], :, r]  # (K, R, X)
        oy = t.overlap[1][box[:, 4, None] - 1, box[:, 1, None], :, r]
        oz = t.overlap[2][box[:, 5, None] - 1, box[:, 2, None], :, r]
        freed = (ox[:, :, :, None] * oy[:, :, None, :])[..., None] \
            * oz[:, :, None, None, :]                                # (K,R,X,Y,Z)
        # Running sum over the releases as one whole-block add each: an
        # accumulate along the leading axis would run a K-long strided
        # inner loop per cell.
        total = freed[0]
        for patch in freed[1:]:
            patch += total
            total = patch
        busy = self._sums.reshape(-1, len(t.shapes)).T[rows]         # (R, XYZ)
        # Release-major, so the first hit in flat order names the first
        # release that empties a window (bool argmax stops there).
        hit = (freed.reshape(n_rel, rows.size, -1) == busy).ravel()
        first = int(hit.argmax())
        return first // (hit.size // n_rel) if hit[first] else None

    def candidate_batch(self, size: int) -> CandidateBatch:
        # Same enumeration contract as the base implementation (shape
        # order of shapes_for_size, row-major bases, full-span axes
        # canonicalised to 0 with first-occurrence dedup) — but the
        # bases of every shape of the size come from one stacked
        # nonzero over the free grids instead of one scan per shape.
        batch = self._batch_cache.get(size)
        if batch is not None:
            return batch
        dims = self.dims
        t = self._tables
        rows = t.size_rows(size)
        rows = rows[self._tot[rows] > 0] if rows.size else rows
        plain = rows[~t.fullspan[rows]] if rows.size else rows
        if plain.size:
            # (bases, S) transposed and gathered: one row of bases per
            # plain shape, so nonzero walks shape-major, base-minor.
            flat = self._free.reshape(-1, len(t.shapes)).T[plain]
            bases_all = t.coords[np.nonzero(flat)[1]]
            bounds = np.cumsum(self._tot[plain]).tolist()
        else:
            bases_all, bounds = None, []
        shapes: list[Coord] = []
        groups: list[np.ndarray] = []
        k = lo = 0
        for row in rows.tolist():
            if t.fullspan[row]:
                # The free grid is constant along fully-spanned axes, so
                # first-occurrence dedup of canonicalised bases reduces
                # to slicing those axes at 0 (see _DimsTables.canon).
                slicer, coords = t.canon(row)
                groups.append(
                    coords[np.flatnonzero(self._free[..., row][slicer])]
                )
            else:
                hi = bounds[k]
                groups.append(bases_all[lo:hi])
                lo, k = hi, k + 1
            shapes.append(t.shapes[row])
        batch = CandidateBatch(dims, tuple(shapes), groups)
        self._batch_cache[size] = batch
        return batch
