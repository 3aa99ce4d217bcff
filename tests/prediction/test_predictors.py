"""Tests for the balancing and tie-breaking predictors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PredictionError
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.partition import Partition
from repro.prediction import (
    BalancingPredictor,
    PartitionFailureRule,
    TieBreakPredictor,
)
from repro.prediction.base import combine_probabilities

D = BGL_SUPERNODE_DIMS


def log_with_failures(*node_time_pairs: tuple[int, float]) -> FailureLog:
    return FailureLog(D.volume, [FailureEvent(t, n) for n, t in node_time_pairs])


class TestCombineProbabilities:
    def test_zero_flagged(self):
        assert combine_probabilities(0.5, 0, PartitionFailureRule.MAX) == 0.0

    def test_max_rule(self):
        assert combine_probabilities(0.3, 5, PartitionFailureRule.MAX) == 0.3

    def test_complement_product(self):
        p = combine_probabilities(0.3, 2, PartitionFailureRule.COMPLEMENT_PRODUCT)
        assert p == pytest.approx(1 - 0.7 * 0.7)

    def test_rules_equal_for_single_node(self):
        for a in (0.1, 0.5, 0.9):
            assert combine_probabilities(
                a, 1, PartitionFailureRule.MAX
            ) == pytest.approx(
                combine_probabilities(a, 1, PartitionFailureRule.COMPLEMENT_PRODUCT)
            )

    def test_negative_count_rejected(self):
        with pytest.raises(PredictionError):
            combine_probabilities(0.5, -1, PartitionFailureRule.MAX)

    @given(st.floats(0.0, 1.0), st.integers(0, 128))
    def test_complement_at_least_max(self, a, k):
        cp = combine_probabilities(a, k, PartitionFailureRule.COMPLEMENT_PRODUCT)
        mx = combine_probabilities(a, k, PartitionFailureRule.MAX)
        assert cp >= mx - 1e-12
        assert 0.0 <= cp <= 1.0


class TestBalancingPredictor:
    def test_confidence_validation(self):
        log = log_with_failures()
        with pytest.raises(PredictionError):
            BalancingPredictor(log, 1.5)
        with pytest.raises(PredictionError):
            BalancingPredictor(log, -0.1)

    def test_flagged_node_gets_confidence(self):
        node = D.index((1, 2, 3))
        pred = BalancingPredictor(log_with_failures((node, 500.0)), 0.4)
        flagged = Partition((1, 2, 3), (1, 1, 1))
        assert pred.partition_failure_probability(flagged, D, 0.0, 1000.0) == 0.4
        assert pred.partition_failure_probability(flagged, D, 600.0, 1000.0) == 0.0
        clean = Partition((0, 0, 0), (1, 1, 1))
        assert pred.partition_failure_probability(clean, D, 0.0, 1000.0) == 0.0

    def test_partition_probability_max_rule(self):
        node = D.index((0, 0, 0))
        pred = BalancingPredictor(
            log_with_failures((node, 10.0)), 0.25, PartitionFailureRule.MAX
        )
        inside = Partition((0, 0, 0), (2, 2, 2))
        outside = Partition((2, 2, 2), (2, 2, 2))
        assert pred.partition_failure_probability(inside, D, 0.0, 100.0) == 0.25
        assert pred.partition_failure_probability(outside, D, 0.0, 100.0) == 0.0

    def test_partition_probability_complement_rule(self):
        n1, n2 = D.index((0, 0, 0)), D.index((0, 0, 1))
        pred = BalancingPredictor(
            log_with_failures((n1, 10.0), (n2, 20.0)),
            0.5,
            PartitionFailureRule.COMPLEMENT_PRODUCT,
        )
        p = pred.partition_failure_probability(
            Partition((0, 0, 0), (1, 1, 2)), D, 0.0, 100.0
        )
        assert p == pytest.approx(0.75)

    def test_zero_confidence_is_null(self):
        node = D.index((0, 0, 0))
        pred = BalancingPredictor(log_with_failures((node, 10.0)), 0.0)
        part = Partition((0, 0, 0), (4, 4, 8))
        assert pred.partition_failure_probability(part, D, 0.0, 100.0) == 0.0
        assert not pred.predicts_failure(part, D, 0.0, 100.0)

    def test_window_is_half_open(self):
        node = D.index((0, 0, 0))
        pred = BalancingPredictor(log_with_failures((node, 100.0)), 1.0)
        part = Partition((0, 0, 0), (1, 1, 1))
        assert pred.partition_failure_probability(part, D, 0.0, 100.0) == 0.0
        assert pred.partition_failure_probability(part, D, 0.0, 100.1) == 1.0

    def test_wrapping_partition_counts_flags(self):
        node = D.index((0, 0, 0))
        pred = BalancingPredictor(log_with_failures((node, 10.0)), 0.9)
        wrapping = Partition((3, 3, 7), (2, 2, 2))  # includes (0,0,0)
        assert pred.partition_failure_probability(wrapping, D, 0.0, 100.0) > 0

    def test_integral_matches_mask_counting(self):
        """A window dense enough for the integral branch (more than 48
        flagged nodes) counts what an ``np.ix_`` over the mask counts."""
        rng = np.random.default_rng(0)
        events = [(int(rng.integers(128)), float(rng.uniform(0, 1000))) for _ in range(160)]
        log = log_with_failures(*events)
        mask = log.failure_mask(0.0, 500.0)
        assert mask.sum() > 48
        pred = BalancingPredictor(log, 0.5, PartitionFailureRule.COMPLEMENT_PRODUCT)
        for _ in range(20):
            base = (int(rng.integers(4)), int(rng.integers(4)), int(rng.integers(8)))
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 9)))
            part = Partition(base, shape)
            grid = mask.reshape(D.as_tuple())
            expected = int(np.count_nonzero(grid[np.ix_(*part.axis_ranges(D))]))
            assert pred.partition_failure_probability(part, D, 0.0, 500.0) == (
                combine_probabilities(0.5, expected, PartitionFailureRule.COMPLEMENT_PRODUCT)
            )


class TestTieBreakPredictor:
    def test_accuracy_validation(self):
        with pytest.raises(PredictionError):
            TieBreakPredictor(log_with_failures(), 1.1)

    def test_no_false_positives(self):
        """Nodes without logged failures are never reported, at any
        accuracy."""
        node = D.index((0, 0, 0))
        pred = TieBreakPredictor(log_with_failures((node, 10.0)), 1.0, seed=0)
        clean = Partition((2, 2, 2), (2, 2, 2))
        for _ in range(20):
            pred.begin_pass(0.0)
            assert not pred.predicts_failure(clean, D, 0.0, 100.0)

    def test_perfect_accuracy_always_reports(self):
        node = D.index((1, 1, 1))
        pred = TieBreakPredictor(log_with_failures((node, 10.0)), 1.0, seed=0)
        hit = Partition((1, 1, 1), (1, 1, 1))
        for _ in range(10):
            pred.begin_pass(0.0)
            assert pred.predicts_failure(hit, D, 0.0, 100.0)

    def test_zero_accuracy_never_reports(self):
        node = D.index((1, 1, 1))
        pred = TieBreakPredictor(log_with_failures((node, 10.0)), 0.0, seed=0)
        hit = Partition((1, 1, 1), (1, 1, 1))
        for _ in range(10):
            pred.begin_pass(0.0)
            assert not pred.predicts_failure(hit, D, 0.0, 100.0)

    def test_false_negative_rate_approximates_accuracy(self):
        node = D.index((2, 2, 2))
        pred = TieBreakPredictor(log_with_failures((node, 10.0)), 0.7, seed=42)
        hit = Partition((2, 2, 2), (1, 1, 1))
        reports = 0
        trials = 400
        for _ in range(trials):
            pred.begin_pass(0.0)
            if pred.predicts_failure(hit, D, 0.0, 100.0):
                reports += 1
        assert reports / trials == pytest.approx(0.7, abs=0.07)

    def test_consistent_within_pass(self):
        """The same node asked twice in one pass answers the same."""
        node = D.index((2, 2, 2))
        pred = TieBreakPredictor(log_with_failures((node, 10.0)), 0.5, seed=1)
        p1 = Partition((2, 2, 2), (1, 1, 1))
        p2 = Partition((2, 2, 2), (2, 2, 2))  # superset
        for _ in range(30):
            pred.begin_pass(0.0)
            assert pred.predicts_failure(p1, D, 0.0, 100.0) == pred.predicts_failure(
                p2, D, 0.0, 100.0
            )

    def test_probability_view_is_degenerate(self):
        node = D.index((0, 0, 0))
        pred = TieBreakPredictor(log_with_failures((node, 10.0)), 1.0, seed=0)
        hit = Partition((0, 0, 0), (1, 1, 1))
        assert pred.partition_failure_probability(hit, D, 0.0, 100.0) == 1.0
        miss = Partition((2, 2, 2), (1, 1, 1))
        assert pred.partition_failure_probability(miss, D, 0.0, 100.0) == 0.0


class TestDegeneratePredictors:
    def test_null_predicts_nothing(self):
        pred = BalancingPredictor(log_with_failures((D.index((0, 0, 0)), 10.0)), 0.0)
        part = Partition((0, 0, 0), (4, 4, 8))
        assert pred.partition_failure_probability(part, D, 0.0, 1e9) == 0.0
        assert not pred.predicts_failure(part, D, 0.0, 1e9)

    def test_perfect_is_confidence_one(self):
        node = D.index((0, 0, 0))
        pred = BalancingPredictor(log_with_failures((node, 10.0)), 1.0)
        assert pred.confidence == 1.0
        hit = Partition((0, 0, 0), (1, 1, 1))
        assert pred.partition_failure_probability(hit, D, 0.0, 100.0) == 1.0
