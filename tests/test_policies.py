"""Satellite suite: placement-policy scoring (ISSUE 2).

Independent re-derivations of the paper's scoring rules:

* ``L_MFP`` — the production index's batch losses, verified against a
  brute-force allocate-and-rebuild MFP recomputation;
* ``L_PF = P_f · s_j`` — the balancing policy's choice re-derived from
  predictor queries outside the policy;
* tie-break false-negative behaviour at the ``a = 0`` and ``a = 1``
  extremes, including the all-tied-predicted-to-fail fallback.

Complements ``tests/core/test_policies.py`` (engine-level behaviour).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation.mfp import PlacementIndex, mfp_size
from repro.core.jobstate import JobState
from repro.core.policies.balancing import BalancingPolicy
from repro.core.policies.krevat import KrevatPolicy
from repro.core.policies.tiebreak import TieBreakPolicy
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import schedulable_sizes
from repro.geometry.torus import Torus
from repro.prediction.balancing import BalancingPredictor
from repro.prediction.base import PartitionFailureRule, combine_probabilities
from repro.prediction.tiebreak import TieBreakPredictor
from tests.oracles import random_torus

LINE = TorusDims(1, 1, 8)  # a ring of 8 nodes: losses computable by hand

dims_strategy = st.builds(
    TorusDims, st.integers(1, 3), st.integers(1, 3), st.integers(1, 4)
)


def make_state(size: int, runtime: float = 100.0) -> JobState:
    from repro.workloads.job import Job

    return JobState(Job(job_id=0, arrival=0.0, size=size, runtime=runtime))


def line_torus(busy: tuple[int, ...]) -> Torus:
    """Ring of 8 nodes with the given z positions occupied."""
    torus = Torus(LINE)
    for i, z in enumerate(busy):
        torus.allocate(500 + i, Partition((0, 0, z), (1, 1, 1)))
    return torus


def scored_candidates(torus: Torus, size: int) -> list[tuple[Partition, int]]:
    """The production index's candidates of ``size`` with their L_MFP."""
    batch, losses = PlacementIndex(torus).batch_mfp_losses(size)
    return list(zip(batch.partitions(), losses.tolist()))


def node_predicted(predictor, dims: TorusDims, node: int) -> bool:
    """The predictor's answer for one node in ``[0, 100)``: a query
    about the 1x1x1 partition at that node."""
    base = tuple(int(c) for c in np.unravel_index(node, dims.as_tuple()))
    return predictor.predicts_failure(Partition(base, (1, 1, 1)), dims, 0.0, 100.0)


class TestMfpLoss:
    @settings(deadline=None)
    @given(dims_strategy, st.integers(0, 2**32 - 1), st.data())
    def test_loss_matches_brute_force_recomputation(self, dims, seed, data):
        """L_MFP(P) == MFP(before) - MFP(after actually allocating P)."""
        torus = random_torus(dims, np.random.default_rng(seed))
        size = data.draw(st.sampled_from(schedulable_sizes(dims)))
        index = PlacementIndex(torus)
        before = index.mfp_size()
        for partition, loss in scored_candidates(torus, size):
            torus.allocate(999_999, partition)
            after = mfp_size(torus)  # fresh index: independent path
            torus.release(999_999)
            assert loss == before - after, (partition, loss, before, after)

    def test_loss_hand_computed_on_ring(self):
        """Occupying z=2 on the 8-ring leaves one free arc of 7; losses
        for size-1 placements are arc-splitting arithmetic."""
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        assert index.mfp_size() == 7
        expected = {0: 2, 1: 1, 3: 1, 4: 2, 5: 3, 6: 4, 7: 3}
        got = {
            p.base[2]: loss for p, loss in scored_candidates(torus, 1)
        }
        assert got == expected

    def test_loss_zero_only_when_mfp_survives(self):
        """Placing inside the smaller arc never shrinks the MFP."""
        torus = line_torus(busy=(0, 4))  # arcs 1-3 and 5-7, MFP = 3
        index = PlacementIndex(torus)
        losses = {p.base[2]: loss for p, loss in scored_candidates(torus, 3)}
        # Allocating one whole arc keeps the other intact: loss 0.
        assert losses[1] == 0 and losses[5] == 0


class TestKrevatSelection:
    def test_picks_first_minimal_loss_in_enumeration_order(self):
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        choice = KrevatPolicy().choose_partition(index, make_state(1), 0.0)
        # Ties at loss 1: z=1 and z=3; enumeration order says z=1.
        assert choice.base == (0, 0, 1)

    def test_none_when_no_candidate(self):
        torus = line_torus(busy=(0, 2, 4, 6))  # no 2 adjacent free nodes
        index = PlacementIndex(torus)
        assert KrevatPolicy().choose_partition(index, make_state(2), 0.0) is None

    @settings(deadline=None)
    @given(dims_strategy, st.integers(0, 2**32 - 1), st.data())
    def test_choice_is_minimal_loss(self, dims, seed, data):
        torus = random_torus(dims, np.random.default_rng(seed))
        size = data.draw(st.sampled_from(schedulable_sizes(dims)))
        index = PlacementIndex(torus)
        choice = KrevatPolicy().choose_partition(index, make_state(size), 0.0)
        scored = scored_candidates(torus, size)
        if not scored:
            assert choice is None
        else:
            min_loss = min(loss for _, loss in scored)
            assert dict(scored)[choice] == min_loss
            # first of the minimal ones, in finder order
            assert choice == next(p for p, l in scored if l == min_loss)


def failure_log(*nodes: int, time: float = 50.0, n_nodes: int = 8) -> FailureLog:
    return FailureLog(n_nodes, [FailureEvent(time, n) for n in nodes])


class TestBalancingScoring:
    def test_a0_degenerates_to_krevat(self):
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        predictor = BalancingPredictor(failure_log(1), confidence=0.0)
        choice = BalancingPolicy(predictor).choose_partition(
            index, make_state(1), 0.0
        )
        assert choice == KrevatPolicy().choose_partition(index, make_state(1), 0.0)

    @pytest.mark.parametrize("confidence", [0.1, 0.5, 1.0])
    def test_avoids_flagged_minimal_loss_candidate(self, confidence):
        """Krevat's pick (z=1) carries a predicted failure; the clean tied
        candidate z=3 has E_loss = 1 + 0 < 1 + a·1."""
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        predictor = BalancingPredictor(failure_log(1), confidence=confidence)
        choice = BalancingPolicy(predictor).choose_partition(
            index, make_state(1), 0.0
        )
        assert choice.base == (0, 0, 3)

    def test_trades_space_for_stability_when_worthwhile(self):
        """With every minimal-loss candidate flagged and s_j·a exceeding
        the extra MFP loss, balancing pays the space premium."""
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        # Flag both loss-1 candidates (z=1, z=3); z=0 has loss 2, clean.
        predictor = BalancingPredictor(failure_log(1, 3), confidence=1.0)
        choice = BalancingPolicy(predictor).choose_partition(
            index, make_state(1), 0.0
        )
        # E(z=1)=E(z=3)=2 with p_f=1; E(z=0)=2 with p_f=0: stability wins.
        assert choice.base == (0, 0, 0)

    def test_failure_outside_window_ignored(self):
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        predictor = BalancingPredictor(
            failure_log(1, time=5000.0), confidence=1.0
        )  # window is [0, 100): event at t=5000 is invisible
        choice = BalancingPolicy(predictor).choose_partition(
            index, make_state(1, runtime=100.0), 0.0
        )
        assert choice.base == (0, 0, 1)

    @settings(deadline=None, max_examples=60)
    @given(
        dims_strategy,
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 1.0),
        st.data(),
    )
    def test_choice_minimises_rederived_e_loss(self, dims, seed, confidence, data):
        """Re-derive E_loss = L_MFP + P_f·s_j outside the policy and
        check the policy's pick attains the lexicographic minimum of
        (E_loss, P_f)."""
        rng = np.random.default_rng(seed)
        torus = random_torus(dims, rng)
        size = data.draw(st.sampled_from(schedulable_sizes(dims)))
        n_events = data.draw(st.integers(0, 6))
        log = FailureLog.from_arrays(
            dims.volume,
            rng.uniform(0.0, 200.0, n_events),
            rng.integers(0, dims.volume, n_events),
        )
        predictor = BalancingPredictor(log, confidence=confidence)
        state = make_state(size, runtime=100.0)
        index = PlacementIndex(torus)
        choice = BalancingPolicy(predictor).choose_partition(index, state, 0.0)
        scored = scored_candidates(torus, size)
        if not scored:
            assert choice is None
            return
        window = (0.0, max(state.remaining_estimate, 1.0))
        def key(item):
            part, mfp_loss = item
            p_f = predictor.partition_failure_probability(
                part, dims, window[0], window[1]
            )
            return (mfp_loss + p_f * size, p_f)

        best = min(key(item) for item in scored)
        chosen_loss = dict(scored)[choice]
        p_f = predictor.partition_failure_probability(
            choice, dims, window[0], window[1]
        )
        assert (chosen_loss + p_f * size, p_f) == best


class TestCombineProbabilities:
    def test_max_rule_is_flat_in_count(self):
        for k in (1, 2, 5):
            assert combine_probabilities(0.7, k, PartitionFailureRule.MAX) == 0.7

    def test_complement_product_known_values(self):
        rule = PartitionFailureRule.COMPLEMENT_PRODUCT
        assert combine_probabilities(0.5, 2, rule) == pytest.approx(0.75)
        assert combine_probabilities(1.0, 3, rule) == 1.0

    @given(st.floats(0.0, 1.0), st.integers(0, 8))
    def test_rules_agree_on_zero_and_one_flagged(self, a, k):
        max_p = combine_probabilities(a, k, PartitionFailureRule.MAX)
        cp = combine_probabilities(a, k, PartitionFailureRule.COMPLEMENT_PRODUCT)
        if k == 0:
            assert max_p == cp == 0.0
        elif k == 1:
            assert max_p == pytest.approx(cp)
        else:
            assert cp >= max_p - 1e-12  # complement-product dominates


class TestTieBreakFalseNegatives:
    def test_a0_is_all_false_negatives(self):
        """Accuracy 0: every genuine upcoming failure is missed, so the
        choice is bit-for-bit Krevat even with the pick's node doomed."""
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        predictor = TieBreakPredictor(failure_log(1), accuracy=0.0, seed=0)
        choice = TieBreakPolicy(predictor).choose_partition(
            index, make_state(1), 0.0
        )
        assert choice.base == (0, 0, 1)  # Krevat's pick, failure ignored
        assert not node_predicted(predictor, LINE, 1)

    def test_a1_has_no_false_negatives(self):
        """Accuracy 1: the doomed tied candidate is always dodged."""
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        predictor = TieBreakPredictor(failure_log(1), accuracy=1.0, seed=0)
        choice = TieBreakPolicy(predictor).choose_partition(
            index, make_state(1), 0.0
        )
        assert choice.base == (0, 0, 3)

    def test_a1_never_false_positive(self):
        """Clean nodes are never reported, at any accuracy (the paper's
        p_f+ = 0 assumption)."""
        predictor = TieBreakPredictor(failure_log(1), accuracy=1.0, seed=0)
        for node in range(8):
            if node != 1:
                assert not node_predicted(predictor, LINE, node)

    def test_all_tied_doomed_falls_back_to_first(self):
        """When every minimal-loss candidate is predicted to fail the
        policy keeps the first in enumeration order (never escalates to
        a higher-loss partition — unlike balancing)."""
        torus = line_torus(busy=(2,))
        index = PlacementIndex(torus)
        predictor = TieBreakPredictor(failure_log(1, 3), accuracy=1.0, seed=0)
        choice = TieBreakPolicy(predictor).choose_partition(
            index, make_state(1), 0.0
        )
        assert choice.base == (0, 0, 1)

    @settings(deadline=None, max_examples=40)
    @given(dims_strategy, st.integers(0, 2**32 - 1), st.data())
    def test_a0_equals_krevat_everywhere(self, dims, seed, data):
        rng = np.random.default_rng(seed)
        torus = random_torus(dims, rng)
        size = data.draw(st.sampled_from(schedulable_sizes(dims)))
        n_events = data.draw(st.integers(0, 6))
        log = FailureLog.from_arrays(
            dims.volume,
            rng.uniform(0.0, 200.0, n_events),
            rng.integers(0, dims.volume, n_events),
        )
        index = PlacementIndex(torus)
        state = make_state(size)
        tiebreak = TieBreakPolicy(
            TieBreakPredictor(log, accuracy=0.0, seed=seed)
        ).choose_partition(index, state, 0.0)
        krevat = KrevatPolicy().choose_partition(index, state, 0.0)
        assert tiebreak == krevat

    @given(st.floats(0.0, 1.0))
    def test_false_negative_rate_matches_accuracy(self, accuracy):
        """Over many doomed nodes, the per-node miss indicator is the
        cached Bernoulli(a) draw — a=0 misses all, a=1 misses none."""
        log = FailureLog(64, [FailureEvent(10.0, n) for n in range(64)])
        predictor = TieBreakPredictor(log, accuracy=accuracy, seed=123)
        hits = sum(
            node_predicted(predictor, TorusDims(4, 4, 4), n) for n in range(64)
        )
        if accuracy == 0.0:
            assert hits == 0
        elif accuracy == 1.0:
            assert hits == 64
        else:
            assert 0 <= hits <= 64
