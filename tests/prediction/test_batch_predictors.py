"""Both log-peeking predictors against one brute-force oracle.

A predictor flags nodes for a window and counts them per candidate with
the one kernel in ``repro.prediction.base``, the membership test
``(p - b) mod P < e``.  The oracle here is not that — it is
an ``np.ix_`` count over a boolean node mask, then
``combine_probabilities`` (balancing) or ``> 0`` (tie-break).  For
tie-break the mask is the window's failure mask ANDed with the draws a
fresh ``default_rng(seed)`` makes, one ``random(volume)`` per window in
the order the pass first asks about them.

The cases flag 0, 1, 48, 49 and every node (48 was where a wrap-pad
integral used to take over the counting), on an even and an odd torus,
with every base (so wrapping ones) and full-span shapes, and assert
exact float equality.

A placement asks one query per decision, its candidates' shapes mixed
and given per row: that query must equal the per-shape queries and the
scalar one-row calls bit for bit, and draw what they draw.  Below the
count kernel, ``P_f`` is one lookup in a per-count table and the
window's flagged nodes are the nonzero bins of a ``bincount``; each is
checked against the form it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.prediction import (
    BalancingPredictor,
    PartitionFailureRule,
    TieBreakPredictor,
)
from repro.prediction.base import combine_probabilities

DIMS = (TorusDims(4, 4, 8), TorusDims(4, 4, 5))
T0, T1 = 100.0, 300.0


def flagged_counts(dims: TorusDims) -> tuple[int, ...]:
    return (0, 1, 48, 49, dims.volume)


def flagged_in_partition(mask: np.ndarray, base, shape, dims: TorusDims) -> int:
    """Flagged nodes (by linear-id mask) inside one partition."""
    grid = mask.reshape(dims.as_tuple())
    sel = grid[np.ix_(*Partition(tuple(base), shape).axis_ranges(dims))]
    return int(np.count_nonzero(sel))


def shapes_of(dims: TorusDims) -> list[tuple[int, int, int]]:
    """Small, odd and full-span shapes (a full span wraps from any base)."""
    x, y, z = dims.as_tuple()
    return [(1, 1, 1), (2, 2, 2), (3, 1, z - 1), (x, y, 1), (1, 1, z), (x, y, z)]


def all_bases(dims: TorusDims) -> np.ndarray:
    return np.argwhere(np.ones(dims.as_tuple(), dtype=bool)).astype(np.int64)


def log_flagging(dims: TorusDims, k: int, rng: np.random.Generator) -> FailureLog:
    """A log with exactly ``k`` distinct nodes failing in ``[T0, T1)``,
    repeats among them, and events just outside the window."""
    inside = rng.choice(dims.volume, size=k, replace=False)
    nodes = np.concatenate([inside, inside[: k // 2], rng.integers(0, dims.volume, 6)])
    times = np.concatenate(
        [
            rng.uniform(T0, T1, k + k // 2),
            [T0 - 1.0, T0 - 0.5, T1, T1, T1 + 1.0, 0.0],
        ]
    )
    return FailureLog.from_arrays(dims.volume, times, nodes)


def cases():
    rng = np.random.default_rng(2024)
    for dims in DIMS:
        for k in flagged_counts(dims):
            yield dims, k, log_flagging(dims, k, rng)


class TestBalancingBatch:
    def test_matches_mask_oracle(self):
        for dims, k, log in cases():
            mask = log.failure_mask(T0, T1)
            assert int(mask.sum()) == k
            for rule in PartitionFailureRule:
                for confidence in (0.1, 0.9):
                    pred = BalancingPredictor(log, confidence, rule)
                    for shape in shapes_of(dims):
                        bases = all_bases(dims)
                        probs = pred.partition_failure_probabilities(
                            bases, shape, dims, T0, T1
                        )
                        assert probs.dtype == np.float64
                        expected = [
                            combine_probabilities(
                                confidence,
                                flagged_in_partition(mask, b, shape, dims),
                                rule,
                            )
                            for b in bases
                        ]
                        assert probs.tolist() == expected, (dims, k, rule, shape)
                        one = Partition(tuple(int(c) for c in bases[-1]), shape)
                        assert pred.partition_failure_probability(
                            one, dims, T0, T1
                        ) == expected[-1]

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(DIMS),
        st.integers(0, 128),
        st.floats(0.0, 1.0, allow_nan=False),
        st.sampled_from(list(PartitionFailureRule)),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_mask_oracle_on_random_logs(self, dims, k, confidence, rule, seed):
        rng = np.random.default_rng(seed)
        log = log_flagging(dims, min(k, dims.volume), rng)
        mask = log.failure_mask(T0, T1)
        pred = BalancingPredictor(log, confidence, rule)
        shape = shapes_of(dims)[int(rng.integers(len(shapes_of(dims))))]
        bases = all_bases(dims)
        probs = pred.partition_failure_probabilities(bases, shape, dims, T0, T1)
        assert probs.tolist() == [
            combine_probabilities(
                confidence, flagged_in_partition(mask, b, shape, dims), rule
            )
            for b in bases
        ]

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(DIMS), st.integers(0, 128), st.integers(0, 2**31 - 1))
    def test_perfect_predictor(self, dims, k, seed):
        """``a = 1`` is the perfect oracle: P_f is 1 exactly on the
        partitions holding a failing node."""
        rng = np.random.default_rng(seed)
        log = log_flagging(dims, min(k, dims.volume), rng)
        mask = log.failure_mask(T0, T1)
        pred = BalancingPredictor(log, 1.0)
        for shape in shapes_of(dims):
            bases = all_bases(dims)
            probs = pred.partition_failure_probabilities(bases, shape, dims, T0, T1)
            assert probs.tolist() == [
                1.0 if flagged_in_partition(mask, b, shape, dims) else 0.0
                for b in bases
            ]


class TestTieBreakBatch:
    def test_matches_drawn_mask_oracle(self):
        """Two windows in one pass read two consecutive draws; a
        one-row query first does not perturb what the batch then sees."""
        for dims, k, log in cases():
            for accuracy in (0.5, 1.0):
                seed = 7 * k + dims.z
                rng = np.random.default_rng(seed)
                first = log.failure_mask(T0, T1) & (rng.random(dims.volume) < accuracy)
                second = log.failure_mask(T0, T1 + 50.0) & (
                    rng.random(dims.volume) < accuracy
                )
                pred = TieBreakPredictor(log, accuracy, seed=seed)
                pred.begin_pass(T0)
                for t1, reported in ((T1, first), (T1 + 50.0, second)):
                    for shape in shapes_of(dims):
                        bases = all_bases(dims)
                        one = Partition(tuple(int(c) for c in bases[3]), shape)
                        lone = pred.predicts_failure(one, dims, T0, t1)
                        predicted = pred.predict_failures(bases, shape, dims, T0, t1)
                        assert predicted.dtype == np.bool_
                        expected = [
                            flagged_in_partition(reported, b, shape, dims) > 0
                            for b in bases
                        ]
                        assert predicted.tolist() == expected, (dims, k, shape, t1)
                        assert lone == expected[3]

    def test_draw_is_made_for_an_empty_window(self):
        """Every new window of a pass takes one draw, failure or not, so
        the stream does not depend on where failures fall."""
        dims = DIMS[1]
        log = FailureLog(dims.volume, [FailureEvent(500.0, n) for n in range(dims.volume)])
        pred = TieBreakPredictor(log, 0.5, seed=5)
        pred.begin_pass(0.0)
        bases = all_bases(dims)
        assert not pred.predict_failures(bases, (1, 1, 1), dims, 0.0, 100.0).any()
        rng = np.random.default_rng(5)
        rng.random(dims.volume)  # the empty window's draw
        expected = rng.random(dims.volume) < 0.5
        predicted = pred.predict_failures(bases, (1, 1, 1), dims, 0.0, 1000.0)
        assert predicted.tolist() == expected.tolist()

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(DIMS), st.integers(0, 128), st.integers(0, 2**31 - 1))
    def test_probabilities_are_indicator_of_predictions(self, dims, k, seed):
        log = log_flagging(dims, min(k, dims.volume), np.random.default_rng(seed))
        pred = TieBreakPredictor(log, 1.0, seed=0)
        pred.begin_pass(T0)
        bases = all_bases(dims)
        for shape in shapes_of(dims):
            predicted = pred.predict_failures(bases, shape, dims, T0, T1)
            probs = pred.partition_failure_probabilities(bases, shape, dims, T0, T1)
            assert probs.tolist() == [1.0 if p else 0.0 for p in predicted]


class TestNullBatch:
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(DIMS), st.integers(0, 128), st.integers(0, 2**31 - 1))
    def test_all_zero(self, dims, k, seed):
        """``a = 0`` predicts nothing, however many nodes fail."""
        log = log_flagging(dims, min(k, dims.volume), np.random.default_rng(seed))
        pred = BalancingPredictor(log, 0.0)
        bases = all_bases(dims)
        for shape in shapes_of(dims):
            assert not pred.partition_failure_probabilities(
                bases, shape, dims, T0, T1
            ).any()
            assert not pred.predict_failures(bases, shape, dims, T0, T1).any()


def mixed_candidates(dims: TorusDims, rng: np.random.Generator):
    """Every base of every test shape in shuffled order: ``(n, 3)``
    bases and the ``(n, 3)`` extents of each row."""
    shapes = shapes_of(dims)
    bases = np.concatenate([all_bases(dims)] * len(shapes))
    extents = np.repeat(np.array(shapes, dtype=np.int64), dims.volume, axis=0)
    order = rng.permutation(len(bases))
    return bases[order], extents[order]


def per_shape(query, bases, extents, dims, t0, t1, dtype):
    """``query`` asked once per distinct shape, answers put back in row order."""
    out = np.empty(len(bases), dtype=dtype)
    for shape in shapes_of(dims):
        rows = np.flatnonzero((extents == shape).all(axis=1))
        out[rows] = query(bases[rows], shape, dims, t0, t1)
    return out


def one_row_partitions(bases, extents):
    return [Partition(tuple(b), tuple(e)) for b, e in zip(bases.tolist(), extents.tolist())]


class TestMixedShapeQuery:
    def test_balancing_equals_per_shape_and_scalar_calls(self):
        rng = np.random.default_rng(42)
        for dims, k, log in cases():
            bases, extents = mixed_candidates(dims, rng)
            parts = one_row_partitions(bases, extents)
            for rule in PartitionFailureRule:
                pred = BalancingPredictor(log, 0.3, rule)
                mixed = pred.partition_failure_probabilities(bases, extents, dims, T0, T1)
                assert mixed.dtype == np.float64
                split = per_shape(
                    pred.partition_failure_probabilities,
                    bases, extents, dims, T0, T1, np.float64,
                )
                assert mixed.tobytes() == split.tobytes(), (dims, k, rule)
                assert mixed.tolist() == [
                    pred.partition_failure_probability(p, dims, T0, T1) for p in parts
                ]

    def test_tiebreak_equals_per_shape_and_scalar_calls_with_the_same_draws(self):
        rng = np.random.default_rng(43)
        for dims, k, log in cases():
            bases, extents = mixed_candidates(dims, rng)
            parts = one_row_partitions(bases, extents)
            mixed_pred = TieBreakPredictor(log, 0.5, seed=k)
            split_pred = TieBreakPredictor(log, 0.5, seed=k)
            scalar_pred = TieBreakPredictor(log, 0.5, seed=k)
            for pred in (mixed_pred, split_pred, scalar_pred):
                pred.begin_pass(T0)
            for t1 in (T1, T1 + 50.0):
                mixed = mixed_pred.predict_failures(bases, extents, dims, T0, t1)
                assert mixed.dtype == np.bool_
                split = per_shape(
                    split_pred.predict_failures, bases, extents, dims, T0, t1, bool
                )
                assert mixed.tolist() == split.tolist(), (dims, k, t1)
                assert mixed.tolist() == [
                    scalar_pred.predicts_failure(p, dims, T0, t1) for p in parts
                ]
            # One draw per window, however the candidates were split.
            states = {
                str(pred._rng.bit_generator.state)
                for pred in (mixed_pred, split_pred, scalar_pred)
            }
            assert len(states) == 1
            fresh = np.random.default_rng(k)
            fresh.random(dims.volume)
            fresh.random(dims.volume)
            assert str(fresh.bit_generator.state) in states


class TestProbabilityTable:
    @pytest.mark.parametrize("rule", list(PartitionFailureRule))
    @pytest.mark.parametrize("confidence", [0.0, 0.1, 1 / 3, 0.5, 0.9, 1.0])
    def test_table_is_the_scalar_combiner_at_every_count(self, rule, confidence):
        for dims in DIMS:
            pred = BalancingPredictor(FailureLog(dims.volume), confidence, rule)
            expected = [
                combine_probabilities(confidence, count, rule)
                for count in range(dims.volume + 1)
            ]
            assert pred._pf.tolist() == expected
            assert pred._pf.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.sampled_from(list(PartitionFailureRule)),
        st.integers(1, 300),
    )
    def test_table_on_drawn_confidences(self, confidence, rule, n_nodes):
        pred = BalancingPredictor(FailureLog(n_nodes), confidence, rule)
        assert pred._pf.tolist() == [
            combine_probabilities(confidence, count, rule) for count in range(n_nodes + 1)
        ]


@st.composite
def logs_and_windows(draw):
    n_nodes = draw(st.integers(1, 64))
    times = st.floats(0.0, 100.0, allow_nan=False)
    events = draw(
        st.lists(st.tuples(times, st.integers(0, n_nodes - 1)), max_size=80)
    )
    log = FailureLog(n_nodes, [FailureEvent(t, n) for t, n in events])
    bounds = st.one_of(times, st.sampled_from([t for t, _ in events] or [0.0]))
    return log, draw(bounds), draw(bounds)


class TestWindowFlags:
    @settings(max_examples=200, deadline=None)
    @given(logs_and_windows())
    def test_nodes_failing_in_is_the_unique_window_nodes(self, drawn):
        log, t0, t1 = drawn
        lo = int(np.searchsorted(log.times, t0, side="left"))
        hi = int(np.searchsorted(log.times, t1, side="left"))
        assert log.window_slice(t0, t1) == (lo, hi)
        got = log.nodes_failing_in(t0, t1)
        want = np.unique(log.nodes[lo:hi])
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        if t1 <= t0 or not len(log):
            assert got.size == 0
