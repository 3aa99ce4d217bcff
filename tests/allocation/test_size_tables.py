"""The per-size candidate tables and the lazy :class:`CandidateBatch`.

Production candidates are a selection of a table built once per dims and
size (``_DimsTables.size_table``); the batch derives ``bases`` and its
``shape_rows()`` only when asked.  Against the reference index, which
packs its own enumeration eagerly, every schedulable size of a random
occupancy must agree in order, bases, per-row shapes and losses — read
before and after the derived fields exist — on a torus with the fused
scoring table and on one past it (the per-axis fallback).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation.mfp import PlacementIndex
from repro.geometry.coords import TorusDims
from repro.geometry.shapes import schedulable_sizes
from tests.oracles import ReferencePlacementIndex, random_torus

#: (dims, whether the fused ``zall`` table is built for them).
DIMS = [((4, 4, 8), True), ((2, 3, 4), True), ((4, 5, 8), False)]


def derived(batch) -> list[str]:
    """The lazily derived fields a selection already holds."""
    held = []
    try:
        type(batch).__dict__["bases"].__get__(batch)
        held.append("bases")
    except AttributeError:
        pass
    if batch._shape_rows is not None:
        held.append("shape_rows")
    return held


@pytest.mark.parametrize("dims, fused", DIMS, ids=["4x4x8", "2x3x4", "4x5x8"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), attempts=st.integers(0, 16), data=st.data())
def test_every_size_matches_the_reference(dims, fused, seed, attempts, data):
    dims = TorusDims(*dims)
    torus = random_torus(dims, np.random.default_rng(seed), attempts=attempts)
    index = PlacementIndex(torus)
    assert (index._tables.zall is not None) is fused
    reference = ReferencePlacementIndex(torus)
    for size in schedulable_sizes(dims):
        want, want_losses = reference.batch_mfp_losses(size)
        parts = want.partitions()
        # Scoring first or enumeration first: one selection either way.
        if data.draw(st.booleans(), label=f"score size {size} first"):
            batch, losses = index.batch_mfp_losses(size)
            assert index.candidate_batch(size) is batch
        else:
            batch = index.candidate_batch(size)
            assert index.batch_mfp_losses(size)[0] is batch
            losses = index.batch_mfp_losses(size)[1]
        # Before any derived field is read: length and row access.
        assert not derived(batch)
        assert len(batch) == len(want)
        assert [batch.partition(i) for i in range(len(batch))] == parts
        assert losses.tolist() == want_losses.tolist()
        # Derived on first use, then equal to the eager batch.
        np.testing.assert_array_equal(batch.bases, want.bases)
        np.testing.assert_array_equal(batch.shape_rows(), want.shape_rows())
        assert derived(batch) == ["bases", "shape_rows"]
        assert not hasattr(batch, "shapes") and not hasattr(batch, "starts")
        assert batch.partitions() == parts
        assert [batch.partition(i) for i in range(len(batch))] == parts
        assert [tuple(r) for r in batch.shape_rows().tolist()] == [p.shape for p in parts]


@pytest.mark.parametrize("dims, fused", DIMS, ids=["4x4x8", "2x3x4", "4x5x8"])
def test_a_table_is_built_once_per_size_and_lists_every_canonical_box(dims, fused):
    """The table is occupancy-free: every ``(shape, canonical base)`` of
    the size, which is the empty machine's whole candidate set."""
    dims = TorusDims(*dims)
    index = PlacementIndex(random_torus(dims, np.random.default_rng(1)))
    empty = ReferencePlacementIndex(random_torus(dims, np.random.default_rng(1), attempts=0))
    t = index._tables
    for size in schedulable_sizes(dims):
        table = t.size_table(size)
        assert t.size_table(size) is table
        assert (table.keys is not None) is fused
        want = empty.candidate_batch(size)
        np.testing.assert_array_equal(table.ext, want.shape_rows())
        np.testing.assert_array_equal(table.bases, want.bases)
        assert table.idx.dtype == np.int32 and table.bases.dtype.itemsize == 1


@pytest.mark.parametrize("dims, fused", DIMS, ids=["4x4x8", "2x3x4", "4x5x8"])
@settings(max_examples=10, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4))
def test_a_table_entry_has_one_partition_across_states(dims, fused, seeds):
    """``partition(i)`` of a selection is its table entry's partition,
    the same object in every state that selects the entry, and equal to
    the reference batch's partition of that row."""
    dims = TorusDims(*dims)
    seen: dict[tuple[int, int], object] = {}
    for seed in seeds:
        torus = random_torus(dims, np.random.default_rng(seed), attempts=6)
        index = PlacementIndex(torus)
        reference = ReferencePlacementIndex(torus)
        for size in schedulable_sizes(dims):
            batch = index.candidate_batch(size)
            want = reference.candidate_batch(size)
            for i in range(len(batch)):
                part = batch.partition(i)
                assert batch.partition(i) is part
                assert part == want.partition(i)
                entry = (size, int(batch._sel[i]))
                assert seen.setdefault(entry, part) is part
    assert seen
