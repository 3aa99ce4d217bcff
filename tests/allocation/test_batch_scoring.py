"""Property-based cross-validation of the production scoring kernel.

What the policies run — ``batch_mfp_losses`` on the production
:class:`PlacementIndex`, i.e. its one enumerate-and-score pass and the
bit-mask ``_excluded`` kernel — must be *bitwise* interchangeable with
the scalar reference on a fresh :class:`ReferencePlacementIndex`
(``scored_candidates`` / ``mfp_excluding``): same candidates, same
enumeration order, same losses.  The headline sweep
pins ``max_examples=100`` regardless of the active hypothesis profile,
so every run (including CI) cross-validates at least 100 generated
machine states.

Enumeration is additionally checked against an independent
``argwhere``-based reference that rebuilds the candidate list straight
from the busy integral image — the reference's ``candidates``
materialises from its own ``candidate_batch``, so only an outside
reference can catch both drifting together.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.allocation.mfp import PlacementIndex, _SizeTable
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import schedulable_sizes, shapes_for_size
from repro.geometry.torus import (
    FREE,
    Torus,
    window_sums_from_integral,
    wrap_pad_integral,
)
from tests.oracles import RebuildIndexCache, ReferencePlacementIndex, random_torus

dims_strategy = st.builds(
    TorusDims, st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)
)


@st.composite
def torus_states(draw) -> Torus:
    dims = draw(dims_strategy)
    seed = draw(st.integers(0, 2**32 - 1))
    attempts = draw(st.integers(0, 14))
    return random_torus(dims, np.random.default_rng(seed), attempts=attempts)


def reference_candidates(torus: Torus, size: int) -> list[Partition]:
    """Independent re-derivation of the candidate enumeration.

    Straight from the definition: for each shape (in
    :func:`shapes_for_size` order) scan all-free placement bases in
    row-major ``argwhere`` order, pin fully-spanned axes to base 0 and
    keep each (base, shape) pair's first occurrence.
    """
    dims = torus.dims
    busy_integral = wrap_pad_integral((torus.grid != FREE).astype(np.int64))
    out: list[Partition] = []
    seen: set[tuple] = set()
    for shape in shapes_for_size(size, dims):
        sums = window_sums_from_integral(busy_integral, dims.as_tuple(), shape)
        for bx, by, bz in np.argwhere(sums == 0):
            base = (
                0 if shape[0] == dims.x else int(bx),
                0 if shape[1] == dims.y else int(by),
                0 if shape[2] == dims.z else int(bz),
            )
            key = (base, shape)
            if key not in seen:
                seen.add(key)
                out.append(Partition(base, shape))
    return out


class TestBatchVsScalar:
    @settings(max_examples=100, deadline=None)
    @given(torus_states(), st.data())
    def test_losses_bitwise_equal(self, torus, data):
        """≥100 random states: production losses == scalar reference
        losses, candidate for candidate, in enumeration order."""
        size = data.draw(st.sampled_from(schedulable_sizes(torus.dims)))
        batch, losses = PlacementIndex(torus).batch_mfp_losses(size)
        scored = ReferencePlacementIndex(torus).scored_candidates(size)
        assert len(batch) == len(scored)
        assert batch.partitions() == [p for p, _ in scored]
        assert losses.dtype == np.int64
        assert losses.tolist() == [loss for _, loss in scored]

    @settings(max_examples=25, deadline=None)
    @given(
        st.builds(TorusDims, st.integers(1, 8), st.integers(1, 6), st.integers(2, 9)),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_losses_bitwise_equal_on_wide_dims(self, dims, seed, data):
        """Dims past the fused table (X+Y+Z > 16: per-axis resolve) and
        past a byte (volume > 255: ``uint16`` window sums), which the
        headline sweep never draws."""
        torus = random_torus(dims, np.random.default_rng(seed), attempts=10)
        size = data.draw(st.sampled_from(schedulable_sizes(dims)))
        index = PlacementIndex(torus)
        assert index._sums.dtype == np.min_scalar_type(dims.volume)
        batch, losses = index.batch_mfp_losses(size)
        scored = ReferencePlacementIndex(torus).scored_candidates(size)
        assert batch.partitions() == [p for p, _ in scored]
        assert losses.tolist() == [loss for _, loss in scored]

    @settings(max_examples=50, deadline=None)
    @given(torus_states(), st.data())
    def test_excluding_matches_scalar_on_arbitrary_bases(self, torus, data):
        """The kernel accepts a table of *any* candidates (not only free
        ones, repeats allowed) and must agree with the reference's
        per-partition ``mfp_excluding``; bases outside the primary cell
        name their wrapped box."""
        dims = torus.dims
        shape = data.draw(
            st.tuples(
                st.integers(1, dims.x),
                st.integers(1, dims.y),
                st.integers(1, dims.z),
            )
        )
        n = data.draw(st.integers(1, 12))
        bases = np.stack(
            [
                data.draw(
                    st.lists(st.integers(-d, 2 * d), min_size=n, max_size=n)
                )
                for d in dims.as_tuple()
            ],
            axis=1,
        ).astype(np.int64)
        index = PlacementIndex(torus)
        flat = np.ravel_multi_index(tuple(bases.T), dims.as_tuple(), mode="wrap")
        rows = np.full(n, index._tables.row_of[shape])
        table = _SizeTable(index._tables, rows, flat)
        got = index._excluded(table, np.arange(n))
        reference = ReferencePlacementIndex(torus)
        want = [
            reference.mfp_excluding(
                Partition(dims.wrap((int(b[0]), int(b[1]), int(b[2]))), shape)
            )
            for b in bases
        ]
        assert got.dtype == np.int64
        assert got.tolist() == want


class TestEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(torus_states(), st.data())
    def test_matches_independent_reference(self, torus, data):
        """The production batch and the reference's batch and list
        enumerations all equal the argwhere reference."""
        size = data.draw(st.sampled_from(schedulable_sizes(torus.dims)))
        reference = ReferencePlacementIndex(torus)
        want = reference_candidates(torus, size)
        assert PlacementIndex(torus).candidate_batch(size).partitions() == want
        assert reference.candidates(size) == want
        assert reference.candidate_batch(size).partitions() == want

    @settings(max_examples=50, deadline=None)
    @given(torus_states(), st.data())
    def test_full_span_shapes_canonical_and_unique(self, torus, data):
        """Where a shape spans a full axis, bases on that axis are pinned
        to 0 and each *node set* appears exactly once — the aliasing case
        canonicalisation exists for."""
        dims = torus.dims
        size = data.draw(st.sampled_from(schedulable_sizes(torus.dims)))
        batch = PlacementIndex(torus).candidate_batch(size)
        ext = batch.shape_rows()
        assert not batch.bases[ext == np.array(dims.as_tuple())].any()
        node_sets = [
            frozenset(
                (x % dims.x, y % dims.y, z % dims.z)
                for x in range(b[0], b[0] + shape[0])
                for y in range(b[1], b[1] + shape[1])
                for z in range(b[2], b[2] + shape[2])
            )
            for b, shape in zip(batch.bases.tolist(), ext.tolist())
        ]
        assert len(node_sets) == len(set(node_sets))

    @settings(max_examples=50, deadline=None)
    @given(torus_states(), st.data())
    def test_batch_row_accessors(self, torus, data):
        """``shape_rows``/``partition`` row addressing agrees with the
        materialised candidates for every row."""
        size = data.draw(st.sampled_from(schedulable_sizes(torus.dims)))
        batch = PlacementIndex(torus).candidate_batch(size)
        parts = batch.partitions()
        assert len(batch) == len(parts)
        for i, part in enumerate(parts):
            assert tuple(batch.shape_rows()[i].tolist()) == part.shape
            assert batch.partition(i) == part


class TestIndexCache:
    """The reference cache of ``tests.oracles``: one fresh plain index
    per machine state (the production cache's repair contract is
    covered by the production index's differential suite)."""

    def test_reuses_until_version_bump(self):
        torus = Torus(TorusDims(4, 4, 4))
        cache = RebuildIndexCache(torus)
        first = cache.get()
        assert type(first) is ReferencePlacementIndex
        assert cache.get() is first
        torus.allocate(1, Partition((0, 0, 0), (2, 2, 2)))
        second = cache.get()
        assert second is not first
        assert second.torus_version == torus.version
        assert cache.get() is second
        torus.release(1)
        assert cache.get() is not second

    def test_rebuilt_index_answers_for_new_state(self):
        torus = Torus(TorusDims(4, 4, 4))
        cache = RebuildIndexCache(torus)
        assert cache.get().mfp_size() == 64
        torus.allocate(1, Partition((0, 0, 0), (4, 4, 2)))
        assert cache.get().mfp_size() == 32
