"""Differential harness: the patched production index vs a from-scratch
rebuild.

:class:`~repro.allocation.mfp.PlacementIndex` patches its shape-minor
window-sum tensor in place as the torus mutates (it never builds a busy
integral: a build is a zero tensor synced to the allocation map); the
from-scratch :class:`~tests.oracles.ReferencePlacementIndex` is the
retained oracle (DESIGN.md §5.12).  The property tests here drive random alloc/free
sequences — including wraparound boxes and full-axis-span shapes whose
aliased bases must canonicalise — through the public torus API, sync
one long-lived production index to the allocation map, and assert
**bitwise** field-for-field equality with a fresh rebuild after every
mutation.

The stale-version tests prove the repair contract: however many
mutations lie between two lookups — a migration moves every job — one
:class:`~repro.allocation.mfp.IndexCache` lookup repairs the same index
object, with the ``index.incremental.*`` counters recording which path
ran; a lookup whose mutations cancel out (a job allocated and released
in between) patches nothing and keeps every per-state cache.

The recall tests prove the memo contract: a sync that patches its way
back to a set of held boxes the index held before takes back that
state's record — the same batch and losses objects — and every answer
of the recalled state, including what it was never asked before, is a
fresh rebuild's; the memo is bounded and each index owns its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import mfp
from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.api import SimulationSetup
from repro.core.config import SimulationConfig
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import all_shapes, schedulable_sizes, shapes_for_size
from repro.geometry.torus import Torus
from repro.metrics.serialize import report_to_dict
from repro.obs.metrics import MetricsRegistry
from tests.oracles import ReferencePlacementIndex, random_partition, random_torus

dims_strategy = st.builds(
    TorusDims,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
)


def mutate(torus: Torus, rng: np.random.Generator, live: dict, next_id: int) -> int:
    """One random mutation through the public torus API.

    Going through ``allocate``/``release`` (never direct grid writes) is
    what puts the step in the allocation map the index syncs to.
    Roughly 40% of steps free a
    live job; the rest try a random allocation, with a bias towards
    full-axis-span shapes so the aliased-base canonicalisation path gets
    exercised (wraparound bases come free from ``random_partition``).
    """
    if live and rng.random() < 0.4:
        job = sorted(live)[int(rng.integers(len(live)))]
        torus.release(job)
        del live[job]
        return next_id
    part = random_partition(torus.dims, rng)
    if rng.random() < 0.3:
        axis = int(rng.integers(3))
        shape = list(part.shape)
        shape[axis] = torus.dims.as_tuple()[axis]
        part = Partition(part.base, (shape[0], shape[1], shape[2]))
    if torus.is_free(part):
        torus.allocate(next_id, part)
        live[next_id] = part
        return next_id + 1
    return next_id


def axis_bits(grid: np.ndarray, axis: int) -> int:
    """Bit ``v`` set iff ``grid`` is true somewhere at coordinate ``v``
    of ``axis`` — the projection ``_fall`` packs, by definition."""
    other = tuple(a for a in range(3) if a != axis)
    return sum(1 << int(v) for v in np.flatnonzero(grid.any(axis=other)))


def assert_matches_rebuild(inc: PlacementIndex, torus: Torus) -> None:
    """Field-for-field bitwise equality with a fresh oracle rebuild."""
    fresh = ReferencePlacementIndex(torus)
    assert inc.torus_version == torus.version
    assert inc._applied == dict(torus.allocations())
    assert not hasattr(inc, "_busy_integral")  # never built
    t = inc._tables
    assert inc._sums.dtype == np.min_scalar_type(torus.dims.volume)
    _, Y, Z = torus.dims.as_tuple()
    off_x, off_y, _ = t.bitoff
    shapes = all_shapes(torus.dims)
    # Read through the lazy build, as scoring does.
    fall = inc._projections()
    assert fall.shape == (len(shapes) + 1,)
    sizes = set()
    for shape in shapes:
        sizes.add(shape[0] * shape[1] * shape[2])
        grid = fresh._placements(shape)
        # The derived state the scoring kernel and the candidate
        # enumeration read, checked against its definition.
        row = t.row_of[shape]
        np.testing.assert_array_equal(inc._free_grid()[..., row], grid)
        assert inc._tot[row] == np.count_nonzero(grid)
        word = int(fall[row])
        assert word >> off_x == axis_bits(grid, 0)
        assert (word >> off_y) & ((1 << Y) - 1) == axis_bits(grid, 1)
        assert word & ((1 << Z) - 1) == axis_bits(grid, 2)
    assert inc.mfp_size() == fresh.mfp_size()
    assert inc.mfp_partition() == fresh.mfp_partition()
    for size in sorted(sizes):
        assert inc.has_candidate(size) == fresh.has_candidate(size)
    # Candidate enumeration (shape order, row-major bases, full-span
    # canonicalisation) for a few representative sizes.
    for size in {1, 2, min(sizes | {1}), max(sizes), inc.mfp_size()} - {0}:
        got, ref = inc.candidate_batch(size), fresh.candidate_batch(size)
        np.testing.assert_array_equal(got.shape_rows(), ref.shape_rows())
        np.testing.assert_array_equal(got.bases, ref.bases)


class TestPerPassLookups:
    """The questions the backfill walk and the shadow replay ask the
    patched tensor: which sizes fit now, and after which release."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=10),
    )
    def test_feasible_sizes_after_journal_replay(self, dims, seed, steps):
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        live: dict[int, Partition] = {}
        next_id = 0
        for _ in range(steps):
            next_id = mutate(torus, rng, live, next_id)
            inc.sync(torus)
            # Asked before and after the per-state set is materialised.
            for _ in range(2):
                for size in range(1, dims.volume + 2):
                    expected = any(
                        inc._tot[inc._tables.row_of[shape]]
                        for shape in shapes_for_size(size, dims)
                    )
                    assert inc.has_candidate(size) == expected, size

    @settings(max_examples=60, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=10),
    )
    def test_first_fit_release_equals_rebuild_form(self, dims, seed, steps):
        """Every allocation in a random order (the shadow replay's
        case, up to ``size == volume``), its suffixes and random strict
        subsets, whose unlisted allocations stay held all replay long."""
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        live: dict[int, Partition] = {}
        next_id = 0
        for _ in range(steps):
            next_id = mutate(torus, rng, live, next_id)
        inc.sync(torus)
        fresh = ReferencePlacementIndex(torus)
        order = [live[j] for j in rng.permutation(sorted(live))]
        subset = [p for p in order if rng.random() < 0.5]
        variants = [order, order[:1], [], subset]
        variants += [order[k:] for k in range(1, len(order))]
        before = inc._sums.copy()
        for size in range(1, dims.volume + 2):
            for releases in variants:
                assert inc.first_fit_release(size, releases) == (
                    fresh.first_fit_release(size, releases)
                ), (size, releases)
        if order:
            assert inc.first_fit_release(dims.volume, order) == len(order) - 1
        # A hypothetical replay: the live tensor is untouched.
        np.testing.assert_array_equal(inc._sums, before)
        assert_matches_rebuild(inc, torus)

    def test_node_count_bound_before_the_answer(self):
        """On a ring of four single nodes, releasing nodes 0 and 2
        frees two nodes but no pair of neighbours: the node-count bound
        stops at release 1, the answer is release 2 — for the full order
        and for a subset that leaves node 3 held."""
        torus = Torus(TorusDims(1, 1, 4))
        nodes = [Partition((0, 0, z), (1, 1, 1)) for z in (0, 2, 1, 3)]
        for job, node in enumerate(nodes):
            torus.allocate(job, node)
        inc = PlacementIndex(torus)
        fresh = ReferencePlacementIndex(torus)
        for releases in (nodes, nodes[:3]):
            assert inc.first_fit_release(2, releases) == 2
            assert fresh.first_fit_release(2, releases) == 2
        assert inc.first_fit_release(3, nodes[:3]) == 2
        assert inc.first_fit_release(4, nodes[:3]) is None
        assert inc.first_fit_release(4, nodes) == fresh.first_fit_release(4, nodes) == 3


class TestIncrementalTracksMutations:
    @settings(max_examples=50, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=8),
    )
    def test_equal_to_rebuild_after_every_mutation(self, dims, seed, steps):
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        live: dict[int, Partition] = {}
        next_id = 0
        for _ in range(steps):
            next_id = mutate(torus, rng, live, next_id)
            inc.sync(torus)
            assert_matches_rebuild(inc, torus)

    @settings(max_examples=30, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rounds=st.integers(min_value=1, max_value=3),
        burst=st.integers(min_value=2, max_value=5),
    )
    def test_multi_entry_replay(self, dims, seed, rounds, burst):
        """One ``sync`` spanning several mutations is still exact."""
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        live: dict[int, Partition] = {}
        next_id = 0
        for _ in range(rounds):
            for _ in range(burst):
                next_id = mutate(torus, rng, live, next_id)
            inc.sync(torus)
            assert_matches_rebuild(inc, torus)

    @settings(max_examples=30, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_scoring_kernels_match_oracle(self, dims, seed):
        """The bit-mask kernel on a patched index vs the reference's
        scalar early-exit walk, on every candidate."""
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        live: dict[int, Partition] = {}
        next_id = 0
        for _ in range(4):
            next_id = mutate(torus, rng, live, next_id)
        inc.sync(torus)
        fresh = ReferencePlacementIndex(torus)
        size = inc.mfp_size()
        if size == 0:
            return
        batch = inc.candidate_batch(size)
        if len(batch) == 0:
            return
        _, inc_losses = inc.batch_mfp_losses(size)
        scalar = [fresh.mfp_excluding(p) for p in batch.partitions()]
        np.testing.assert_array_equal(size - inc_losses, scalar)
        assert inc_losses.tolist() == [
            loss for _, loss in fresh.scored_candidates(size)
        ]


class TestFullSpanAliasing:
    def test_full_span_slab_canonicalises_like_oracle(self):
        """A wrapped full-axis-span slab: every aliased base along the
        spanned axis names the same node set, and the batch keeps
        exactly the canonical (axis = 0) representative."""
        dims = TorusDims(4, 3, 2)
        torus = Torus(dims)
        # Spans x fully, wraps on y (base 2 + extent 2 > 3).
        torus.allocate(0, Partition((3, 2, 0), (4, 2, 1)))
        inc = PlacementIndex(torus)
        assert_matches_rebuild(inc, torus)
        batch = inc.candidate_batch(dims.x)  # x-spanning shapes exist
        full = batch.shape_rows() == np.array(dims.as_tuple())
        assert full.any()
        assert (batch.bases[full] == 0).all()

    def test_whole_machine_shape(self):
        dims = TorusDims(2, 2, 3)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        assert_matches_rebuild(inc, torus)
        batch = inc.candidate_batch(dims.volume)
        assert len(batch) == 1
        np.testing.assert_array_equal(batch.bases, [[0, 0, 0]])
        torus.allocate(0, Partition((1, 1, 2), (1, 1, 1)))
        inc.sync(torus)
        assert_matches_rebuild(inc, torus)
        assert len(inc.candidate_batch(dims.volume)) == 0


class TestZallFallback:
    def test_fallback_path_matches_fused_table(self):
        """The per-axis zmask fallback (taken when the fused ``zall``
        table is not built for the dims) is bitwise equal to it.  Forcing
        it nulls the size table's cached keys too."""
        dims = TorusDims(4, 4, 5)
        torus = random_torus(dims, np.random.default_rng(7), attempts=10)
        inc = PlacementIndex(torus)
        size = inc.mfp_size()
        assert size > 0
        batch = inc.candidate_batch(size)
        assert len(batch) > 0
        t = inc._tables
        assert t.zall is not None
        _, table, sel, _ = inc._sizes[size]
        assert table.keys is not None
        fast = inc._excluded(table, sel)
        saved = (t.zall, table.keys)
        t.zall = table.keys = None
        try:
            slow = inc._excluded(table, sel)
        finally:
            t.zall, table.keys = saved
        np.testing.assert_array_equal(fast, slow)


class TestBeyondTheFusedTables:
    def test_8x8x4_patches_and_scores_like_rebuild(self):
        """8x8x4 is past every table gate at once — no pairwise ``oxy``
        blocks (``sync`` multiplies the x and y rows itself), no fused
        ``zall`` (scoring unpacks the projections per axis), 256 bases
        (window sums no longer fit a byte) — none of which
        ``dims_strategy`` reaches."""
        dims = TorusDims(8, 8, 4)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        t = inc._tables
        assert t.oxy is None and t.zall is None
        assert inc._sums.dtype == np.uint16
        assert_matches_rebuild(inc, torus)
        rng = np.random.default_rng(19)
        live: dict[int, Partition] = {}
        next_id = 0
        for _ in range(30):
            next_id = mutate(torus, rng, live, next_id)
            inc.sync(torus)
            assert_matches_rebuild(inc, torus)
        assert live and next_id > len(live)  # both ops were replayed
        fresh = ReferencePlacementIndex(torus)
        seen = set()
        # The MFP size, and a smaller one whose candidates do not all
        # cost the same.
        for size in (inc.mfp_size(), 4):
            batch, losses = inc.batch_mfp_losses(size)
            scored = fresh.scored_candidates(size)
            assert batch.partitions() == [p for p, _ in scored]
            assert losses.tolist() == [loss for _, loss in scored]
            seen.update(losses.tolist())
        assert len(seen) > 1


    def test_dims_past_the_packed_word_are_refused(self):
        """65 projection bits do not fit the word ``_fall`` packs them
        into: refused up front, not scored with wrapped shifts."""
        with pytest.raises(ValueError, match="65 projection bits"):
            PlacementIndex(Torus(TorusDims(1, 1, 63)))


def assert_scores_like_scalar_walk(inc: PlacementIndex, torus: Torus) -> int:
    """The fused enumerate-and-score pass against the reference's
    scalar walk, for every schedulable size; returns how many
    candidates of full-span shapes it met."""
    fresh = ReferencePlacementIndex(torus)
    dims = torus.dims.as_tuple()
    full_span = 0
    for size in schedulable_sizes(torus.dims):
        batch, losses = inc.batch_mfp_losses(size)
        scored = fresh.scored_candidates(size)
        assert batch.partitions() == [p for p, _ in scored], size
        assert losses.tolist() == [loss for _, loss in scored], size
        full_span += int((batch.shape_rows() == np.array(dims)).any(axis=1).sum())
    return full_span


class TestFusedPassAndNarrowTensor:
    """The one-``nonzero`` enumeration, the key-table / per-axis
    resolve and the narrow window-sum dtype on dims the hypothesis
    strategies do not single out."""

    def test_full_span_shapes_on_asymmetric_dims(self):
        dims = TorusDims(2, 3, 5)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        assert inc._tables.zall is not None
        rng = np.random.default_rng(5)
        live: dict[int, Partition] = {}
        next_id = full_span = 0
        for _ in range(12):
            next_id = mutate(torus, rng, live, next_id)
            inc.sync(torus)
            full_span += assert_scores_like_scalar_walk(inc, torus)
        assert full_span > 0

    def test_per_axis_fallback_dims(self):
        """X+Y+Z = 18 > 16: no fused table, so every resolve takes the
        per-axis masks (volume 192 still sums in one byte)."""
        dims = TorusDims(4, 6, 8)
        torus = random_torus(dims, np.random.default_rng(3), attempts=8)
        inc = PlacementIndex(torus)
        assert inc._tables.zall is None
        assert inc._sums.dtype == np.uint8
        assert_matches_rebuild(inc, torus)
        assert assert_scores_like_scalar_walk(inc, torus) > 0

    def test_two_byte_sums_fill_and_release_to_empty(self):
        """Volume 256: the whole-machine window of a full machine holds
        256, one past a byte.  Fill the machine slab by slab, replay the
        releases hypothetically, then release everything: the ``uint16``
        tensor patches up to 256 and back to exactly zero."""
        dims = TorusDims(4, 4, 16)
        torus = Torus(dims)
        inc = PlacementIndex(torus)
        assert inc._sums.dtype == np.uint16
        slabs = [Partition((0, 0, z), (4, 4, 1)) for z in range(16)]
        for job, slab in enumerate(slabs):
            torus.allocate(job, slab)
        inc.sync(torus)
        assert int(inc._sums.max()) == dims.volume
        assert inc.mfp_size() == 0 and len(inc.batch_mfp_losses(1)[0]) == 0
        assert_matches_rebuild(inc, torus)
        fresh = ReferencePlacementIndex(torus)
        for size, releases in (
            (dims.volume, slabs),
            (32, slabs[5:7]),
            (32, slabs[::2]),
            (16, slabs[3:4]),
        ):
            got = inc.first_fit_release(size, releases)
            assert got == fresh.first_fit_release(size, releases), size
        assert inc.first_fit_release(dims.volume, slabs) == len(slabs) - 1
        for job in range(len(slabs)):
            torus.release(job)
            inc.sync(torus)
        assert not inc._sums.any()
        assert inc.mfp_size() == dims.volume
        assert_matches_rebuild(inc, torus)


class TestEnumerateOnce:
    def test_batch_then_scoring_share_one_pass_per_state(self, monkeypatch):
        """A policy asks ``candidate_batch`` before scoring: the kernel
        reuses that enumeration instead of running its own, and
        ``sync`` drops it with the state it described."""
        runs = []
        enumerate_ = PlacementIndex._enumerate

        def counted(self, size):
            runs.append(size)
            return enumerate_(self, size)

        monkeypatch.setattr(PlacementIndex, "_enumerate", counted)
        torus = random_torus(TorusDims(4, 4, 8), np.random.default_rng(2), attempts=6)
        inc = PlacementIndex(torus)
        batch = inc.candidate_batch(8)
        assert len(batch) > 1
        scored, _ = inc.batch_mfp_losses(8)
        assert scored is batch and runs == [8]
        part = batch.partition(0)
        torus.allocate(torus.n_jobs, part)
        inc.sync(torus)
        after = inc.candidate_batch(8)
        assert runs == [8, 8]
        assert part not in after.partitions()
        inc.batch_mfp_losses(8)
        assert runs == [8, 8]
        assert_matches_rebuild(inc, torus)


class TestStaleVersionPoisoning:
    """However far the torus moved since the index last answered, one
    lookup syncs the same index object to the allocation map."""

    def test_migration_burst_is_one_repair(self):
        """A compaction-shaped burst: release every job, then re-place
        each one moved (24 mutations between two lookups) — one repair
        of the one index, never a second build."""
        dims = TorusDims(4, 4, 8)
        torus = Torus(dims)
        # Twelve 1x1x2 jobs on distinct (x, y) columns.
        for job in range(12):
            torus.allocate(job, Partition((job % 4, job // 4, 2 * (job % 3)), (1, 1, 2)))
        registry = MetricsRegistry()
        cache = IndexCache(torus, metrics=registry)
        index = cache.get()
        held = dict(torus.allocations())
        for job in held:
            torus.release(job)
        # The same translation of every box keeps them disjoint; +7 on z
        # wraps some of them.
        for job, part in held.items():
            x, y, z = part.base
            torus.allocate(job, Partition(dims.wrap((x, y, z + 7)), part.shape))
        assert torus.version - index.torus_version == 2 * len(held) > 16
        assert cache.get() is index
        assert registry.counters["index.incremental.repair"].value == 1
        assert registry.counters["index.builds"].value == 1
        assert_matches_rebuild(index, torus)

    def test_alloc_then_release_between_lookups(self):
        """A job that arrives and leaves between two lookups nets out of
        the diff: the tensor is untouched and the lookup keeps every
        per-state cache — the same batch and losses objects — which are
        a fresh rebuild's answers for the new version.  A sync that does
        patch drops them."""
        torus = random_torus(TorusDims(3, 3, 4), np.random.default_rng(5), attempts=6)
        registry = MetricsRegistry()
        cache = IndexCache(torus, metrics=registry)
        index = cache.get()
        size = 2
        batch = index.candidate_batch(size)
        assert len(batch) > 1
        scored, losses = index.batch_mfp_losses(size)
        assert scored is batch and index.has_candidate(size)
        feasible, fall = index._feasible, index._projections()
        before = index._sums.copy()
        part = PlacementIndex(torus).mfp_partition()
        assert part is not None
        torus.allocate(99, part)
        torus.release(99)
        assert cache.get() is index
        assert index.torus_version == torus.version
        assert registry.counters["index.incremental.kept"].value == 1
        assert "index.incremental.repair" not in registry.counters
        np.testing.assert_array_equal(index._sums, before)
        assert index.candidate_batch(size) is batch
        kept_batch, kept_losses = index.batch_mfp_losses(size)
        assert kept_batch is batch and kept_losses is losses
        assert index._feasible is feasible and index._projections() is fall
        assert_matches_rebuild(index, torus)
        # A lookup that patches a box re-derives the state.
        torus.allocate(99, part)
        assert cache.get() is index
        assert registry.counters["index.incremental.repair"].value == 1
        assert registry.counters["index.incremental.kept"].value == 1
        assert index._sizes == {} and index._fall is None
        assert index._feasible is None
        assert index.candidate_batch(size) is not batch
        assert index.batch_mfp_losses(size)[1] is not losses
        assert_matches_rebuild(index, torus)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=8),
    )
    def test_cancelled_pairs_keep_exact_caches(self, dims, seed, steps):
        """Random mutations interleaved with allocate-and-release pairs
        that cancel out, every feasible size scored before each lookup:
        after every lookup, kept or repaired, each size's losses are the
        reference's scalar walk and every field a fresh rebuild's.  A
        lookup that patches back to a scored state recalls its record."""
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        registry = MetricsRegistry()
        cache = IndexCache(torus, metrics=registry)
        live: dict[int, Partition] = {}
        next_id = lookups = 0
        sizes = schedulable_sizes(dims)
        for _ in range(steps):
            index = cache.get()
            for size in sizes:
                if index.has_candidate(size):
                    index.batch_mfp_losses(size)
            if rng.random() < 0.5:
                next_id = mutate(torus, rng, live, next_id)
            fresh = ReferencePlacementIndex(torus)
            for _ in range(int(rng.integers(1, 3))):
                free = [s for s in sizes if fresh.has_candidate(s)]
                if not free:
                    break
                batch = fresh.candidate_batch(free[int(rng.integers(len(free)))])
                torus.allocate(next_id, batch.partition(int(rng.integers(len(batch)))))
                torus.release(next_id)
                next_id += 1
            index = cache.get()
            fresh = ReferencePlacementIndex(torus)
            scored_now = {}
            for size in sizes:
                batch, losses = index.batch_mfp_losses(size)
                scored_now[size] = (batch, losses)
                scored = fresh.scored_candidates(size)
                assert batch.partitions() == [p for p, _ in scored], size
                assert losses.tolist() == [loss for _, loss in scored], size
            assert_matches_rebuild(index, torus)
            # A job placed and looked up, then released and looked up:
            # two patches, the second back to this state, whose batches
            # and losses come back as the same objects.
            free = [s for s in sizes if fresh.has_candidate(s)]
            if free:
                batch = fresh.candidate_batch(free[int(rng.integers(len(free)))])
                torus.allocate(next_id, batch.partition(int(rng.integers(len(batch)))))
                assert cache.get() is index
                torus.release(next_id)
                next_id += 1
                assert cache.get() is index
                lookups += 2
                for size, (batch, losses) in scored_now.items():
                    got_batch, got_losses = index.batch_mfp_losses(size)
                    assert got_batch is batch and got_losses is losses, size
                assert_matches_rebuild(index, torus)
        counters = registry.counters
        assert sum(
            counters[name].value
            for name in (
                "index.builds",
                "index.incremental.hit",
                "index.incremental.kept",
                "index.incremental.repair",
            )
            if name in counters
        ) == 2 * steps + lookups

    def test_hit_counter_on_unchanged_torus(self):
        torus = Torus(TorusDims(2, 2, 2))
        registry = MetricsRegistry()
        cache = IndexCache(torus, metrics=registry)
        index = cache.get()
        assert cache.get() is index
        assert registry.counters["index.incremental.hit"].value == 1


def restore(torus: Torus, target: dict[int, Partition]) -> None:
    """Bring ``torus`` to the allocation map ``target`` through the
    public API: release every job not held as there, then place the
    missing ones."""
    for job, part in list(torus.allocations()):
        if target.get(job) != part:
            torus.release(job)
    held = dict(torus.allocations())
    for job, part in target.items():
        if job not in held:
            torus.allocate(job, part)


def move(torus: Torus, rng: np.random.Generator, live: dict) -> None:
    """Re-place one live job, under the same id, at another free box of
    its size (a migration's step): the same job ids, other boxes."""
    if not live:
        return
    job = sorted(live)[int(rng.integers(len(live)))]
    old = live[job]
    torus.release(job)
    batch = ReferencePlacementIndex(torus).candidate_batch(old.size)
    others = [p for p in batch.partitions() if p != old]
    part = others[int(rng.integers(len(others)))] if others else old
    torus.allocate(job, part)
    live[job] = part


def state_of(torus: Torus) -> frozenset:
    return frozenset(p for _, p in torus.allocations())


class TestRecalledStates:
    """A sync back to a set of held boxes the index held before."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=2, max_value=12),
    )
    def test_revisited_states_answer_like_rebuild(self, dims, seed, steps):
        """A walk of fresh placements, releases, moves under the same
        job id and returns to earlier allocation maps.  A return takes
        back the state's record (the same per-size dict); every visit
        then asks a size its state was never asked, ``mfp_partition``
        and ``first_fit_release`` — in a random order, so a recalled
        state's free grid is rebuilt by any of them — and compares all
        of it, then every field, with a fresh rebuild."""
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        index = PlacementIndex(torus)
        live: dict[int, Partition] = {}
        next_id = 0
        sizes = schedulable_sizes(dims)
        maps: list[dict[int, Partition]] = [{}]
        records = {state_of(torus): index._sizes}
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.4:
                target = maps[int(rng.integers(len(maps)))]
                restore(torus, target)
                live = dict(target)
            elif roll < 0.6:
                move(torus, rng, live)
            else:
                next_id = mutate(torus, rng, live, next_id)
            index.sync(torus)
            state = state_of(torus)
            if state in records:
                assert index._sizes is records[state]
            records[state] = index._sizes
            maps.append(dict(torus.allocations()))
            fresh = ReferencePlacementIndex(torus)
            for q in rng.permutation(["size", "mfp", "release"]):
                if q == "size":
                    new = [s for s in sizes if s not in index._sizes]
                    if new:
                        size = new[int(rng.integers(len(new)))]
                        batch, losses = index.batch_mfp_losses(size)
                        scored = fresh.scored_candidates(size)
                        assert batch.partitions() == [p for p, _ in scored], size
                        assert losses.tolist() == [loss for _, loss in scored], size
                elif q == "mfp":
                    assert index.mfp_partition() == fresh.mfp_partition()
                else:
                    order = [live[j] for j in rng.permutation(sorted(live))]
                    for size in sizes:
                        assert index.first_fit_release(size, order) == (
                            fresh.first_fit_release(size, order)
                        ), size
            assert_matches_rebuild(index, torus)

    @settings(max_examples=40, deadline=None)
    @given(
        dims=dims_strategy,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=2, max_value=12),
    )
    def test_has_candidate_answers_like_the_reference_on_recalled_states(
        self, dims, seed, steps
    ):
        """Every size from 0 to volume + 1 on every state of a walk that
        returns to earlier allocation maps.  Each state is asked before
        it is left, so its record carries its feasible-size table, and a
        return answers from the record it takes back."""
        rng = np.random.default_rng(seed)
        torus = Torus(dims)
        index = PlacementIndex(torus)
        live: dict[int, Partition] = {}
        next_id = 0
        maps: list[dict[int, Partition]] = [{}]
        records = {}
        for _ in range(steps + 1):
            state = state_of(torus)
            if state in records:
                assert index._sizes is records[state]
            records[state] = index._sizes
            fresh = ReferencePlacementIndex(torus)
            for size in range(dims.volume + 2):
                assert index.has_candidate(size) == fresh.has_candidate(size), size
            if rng.random() < 0.5:
                target = maps[int(rng.integers(len(maps)))]
                restore(torus, target)
                live = dict(target)
            else:
                next_id = mutate(torus, rng, live, next_id)
            maps.append(dict(torus.allocations()))
            index.sync(torus)

    def test_has_candidate_on_a_recalled_state(self):
        """The empty machine, left after its table was built and taken
        back: full-machine size fits again, 0 and volume + 1 never do."""
        torus = Torus(TorusDims(2, 2, 4))
        index = PlacementIndex(torus)
        assert [index.has_candidate(s) for s in (0, 16, 17)] == [False, True, False]
        empty = index._sizes
        torus.allocate(0, Partition((0, 0, 0), (2, 2, 1)))
        index.sync(torus)
        assert [index.has_candidate(s) for s in (0, 12, 16, 17)] == [
            False, True, False, False,
        ]
        torus.release(0)
        index.sync(torus)
        assert index._sizes is empty
        assert [index.has_candidate(s) for s in (0, 16, 17)] == [False, True, False]

    def test_moved_job_is_another_state(self):
        """Job 0 moved to another box: the same job ids, another set of
        boxes, so another key — never the record of where it was."""
        torus = Torus(TorusDims(2, 2, 4))
        index = PlacementIndex(torus)
        torus.allocate(0, Partition((0, 0, 0), (2, 2, 2)))
        index.sync(torus)
        before = index._sizes
        assert len(index.candidate_batch(8)) == 1
        torus.release(0)
        torus.allocate(0, Partition((0, 0, 1), (2, 2, 2)))
        index.sync(torus)
        assert index._sizes is not before
        assert index.candidate_batch(8).partitions() == [Partition((0, 0, 3), (2, 2, 2))]
        assert_matches_rebuild(index, torus)

    def test_recalled_state_rebuilds_its_free_grid(self):
        """Only a state's derived record comes back: the free grid of
        the state left behind is not the recalled one's.  A size first
        asked after the return, the witness MFP and the projections all
        read the recalled state's own free placements."""
        torus = Torus(TorusDims(2, 2, 4))
        index = PlacementIndex(torus)
        torus.allocate(0, Partition((0, 0, 0), (2, 2, 1)))
        index.sync(torus)
        held = index._sizes
        torus.allocate(1, Partition((0, 0, 1), (2, 2, 2)))
        index.sync(torus)
        assert index.mfp_partition() == Partition((0, 0, 3), (2, 2, 1))
        index.batch_mfp_losses(2)
        torus.release(1)
        index.sync(torus)
        assert index._sizes is held and 4 not in held
        fresh = ReferencePlacementIndex(torus)
        assert index.candidate_batch(4).partitions() == fresh.candidate_batch(4).partitions()
        assert index.mfp_partition() == fresh.mfp_partition() == Partition((0, 0, 1), (2, 2, 3))
        _, losses = index.batch_mfp_losses(2)
        assert losses.tolist() == [loss for _, loss in fresh.scored_candidates(2)]
        assert_matches_rebuild(index, torus)

    def test_memo_is_cleared_at_its_bound(self, monkeypatch):
        """With room for two records, leaving a third state clears the
        memo first: the state left last comes back, the first does not
        (refreshed: a new per-size dict, the same answers)."""
        monkeypatch.setattr(mfp, "STATE_MEMO_MAX", 2)
        torus = Torus(TorusDims(2, 2, 4))
        index = PlacementIndex(torus)
        seen, held = [index._sizes], []
        for job in range(3):
            torus.allocate(job, Partition((0, 0, job), (2, 2, 1)))
            index.sync(torus)
            seen.append(index._sizes)
            held.append(len(index._memo))
        assert held == [1, 2, 1]
        torus.release(2)
        index.sync(torus)  # back to the state left last
        assert index._sizes is seen[2]
        for job in (1, 0):
            torus.release(job)
        index.sync(torus)  # back to the empty machine, dropped at the clear
        assert index._sizes is not seen[0]
        assert len(index._memo) == 1  # cleared again on the way out
        assert_matches_rebuild(index, torus)


def run_dict(setup: SimulationSetup) -> tuple[dict, dict]:
    sim = setup.build_simulator()
    report = sim.run()
    return report_to_dict(report), sim.metrics.to_dict(include_timings=False)


class TestStateMemoIsPerIndex:
    def test_two_indexes_keep_their_own_records(self):
        """Each index numbers the boxes it patches from 0, so two
        indexes' keys name different boxes: a record one index left
        must never answer for the other, on the same dims or others."""
        for dims_b in (TorusDims(2, 2, 4), TorusDims(2, 2, 2)):
            a, b = Torus(TorusDims(2, 2, 4)), Torus(dims_b)
            index_a = PlacementIndex(a)
            a.allocate(0, Partition((0, 0, 0), (2, 2, 2)))
            index_a.sync(a)
            index_a.batch_mfp_losses(4)
            a.release(0)
            index_a.sync(a)  # leaves {(0,0,0) 2x2x2} under key 0b1
            index_b = PlacementIndex(b)
            b.allocate(0, Partition((0, 0, 0), (1, 1, 1)))
            index_b.sync(b)  # key 0b1 too, of another box
            assert index_b._sizes is not index_a._sizes
            assert index_b._memo is not index_a._memo
            assert_matches_rebuild(index_b, b)
            assert_matches_rebuild(index_a, a)

    def test_a_run_computes_alike_after_another_run(self):
        """A run after a run of other inputs gives what it gives
        alone: no record of the first run's index reaches the second's."""
        config = SimulationConfig(profile=True)
        alone = run_dict(SimulationSetup(n_jobs=120, n_failures=30, seed=4, config=config))
        run_dict(SimulationSetup(n_jobs=120, n_failures=30, seed=5, policy="krevat", config=config))
        after = run_dict(SimulationSetup(n_jobs=120, n_failures=30, seed=4, config=config))
        assert after == alone


if __name__ == "__main__":
    pytest.main([__file__, "-q"])
