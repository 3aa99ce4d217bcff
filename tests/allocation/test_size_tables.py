"""The per-size candidate tables and the lazy :class:`CandidateBatch`.

Production candidates are a selection of a table built once per dims and
size (``_DimsTables.size_table``); the batch derives ``shapes`` /
``starts`` / ``bases`` only when asked.  Against the reference index,
which packs its own enumeration eagerly, every schedulable size of a
random occupancy must agree in order, bases, shapes, groups and losses —
read before and after the derived fields exist — on a torus with the
fused scoring table and on one past it (the per-axis fallback).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation.mfp import PlacementIndex
from repro.geometry.coords import TorusDims
from repro.geometry.shapes import schedulable_sizes
from repro.testing import ReferencePlacementIndex, random_torus

#: (dims, whether the fused ``zall`` table is built for them).
DIMS = [((4, 4, 8), True), ((2, 3, 4), True), ((4, 5, 8), False)]


def derived(batch) -> list[str]:
    """The lazily derived fields a selection already holds."""
    held = []
    for name in ("shapes", "starts", "bases"):
        try:
            type(batch).__dict__[name].__get__(batch)
            held.append(name)
        except AttributeError:
            pass
    return held


def groups_of(batch) -> list[tuple[tuple, slice, list]]:
    return [(shape, sl, bases.tolist()) for shape, sl, bases in batch.groups()]


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
        assert groups_of(batch) == groups_of(want)
        assert batch.shapes == want.shapes and batch.starts == want.starts
        np.testing.assert_array_equal(batch.bases, want.bases)
        assert derived(batch) == ["shapes", "starts", "bases"]
        np.testing.assert_array_equal(batch.shape_rows(), want.shape_rows())
        assert batch.partitions() == parts
        assert [batch.partition(i) for i in range(len(batch))] == parts
        assert [batch.shape_of(i) for i in range(len(batch))] == [p.shape for p in parts]


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
        assert table.shapes == want.shapes
        assert table.bounds.tolist() == list(want.starts)
        np.testing.assert_array_equal(table.bases, want.bases)
        assert table.idx.dtype == np.int32 and table.bases.dtype.itemsize == 1
