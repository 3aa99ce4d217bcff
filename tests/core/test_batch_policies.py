"""Batch policy paths must pick exactly what the scalar oracles pick.

Each policy's production ``choose_partition`` is a vectorised argmin
over the batch-scored candidate set of the production
:class:`PlacementIndex`, or — for a forced choice, a size with one free
partition — that partition, unscored;
``tests.oracles.choose_partition_scalar`` is the per-candidate walk over
a :class:`ReferencePlacementIndex`.  Identical choices — including tie
order — are what make the whole batch refactor observationally
invisible, so this suite asserts them per decision over random machine
states and end-to-end over whole simulations (bitwise-identical reports,
the scalar side run by ``oracle_simulator``).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.allocation.mfp import PlacementIndex
from repro.api import SimulationSetup
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.jobstate import JobState
from repro.core.policies import BalancingPolicy, KrevatPolicy, TieBreakPolicy
from repro.core.policies.base import MAX_TRACED_CANDIDATES
from repro.core.simulator import simulate
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import schedulable_sizes
from repro.geometry.torus import Torus
from repro.obs.trace import TraceRecorder
from repro.prediction import (
    BalancingPredictor,
    PartitionFailureRule,
    TieBreakPredictor,
)
from repro.workloads.job import Job, Workload
from tests.oracles import (
    ReferencePlacementIndex,
    choose_partition_scalar,
    oracle_simulator,
    random_partition,
    random_torus,
)

D = TorusDims(4, 4, 5)


@st.composite
def torus_states(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    attempts = draw(st.integers(0, 14))
    return random_torus(D, np.random.default_rng(seed), attempts=attempts)


@st.composite
def failure_logs(draw) -> FailureLog:
    n = draw(st.integers(0, 10))
    events = [
        FailureEvent(
            draw(st.floats(0.0, 800.0, allow_nan=False)),
            draw(st.integers(0, D.volume - 1)),
        )
        for _ in range(n)
    ]
    return FailureLog(D.volume, events)


def policies(log: FailureLog, accuracy: float, seed: int):
    return [
        KrevatPolicy(),
        BalancingPolicy(BalancingPredictor(log, accuracy, PartitionFailureRule.MAX)),
        BalancingPolicy(
            BalancingPredictor(log, accuracy, PartitionFailureRule.COMPLEMENT_PRODUCT)
        ),
        TieBreakPolicy(TieBreakPredictor(log, accuracy, seed=seed)),
    ]


class TestPerDecision:
    @settings(max_examples=100, deadline=None)
    @given(
        torus_states(),
        failure_logs(),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
        st.data(),
    )
    def test_batch_choice_equals_scalar_choice(self, torus, log, accuracy, seed, data):
        """≥100 random states × all policies: same winner, tie order
        included.  The tie-break predictor draws its response noise once
        per window, so batch and scalar see identical answers."""
        size = data.draw(st.sampled_from(schedulable_sizes(D)))
        now = data.draw(st.floats(0.0, 700.0, allow_nan=False))
        state = JobState(
            Job(0, 0.0, size, data.draw(st.floats(1.0, 300.0, allow_nan=False)))
        )
        for policy in policies(log, accuracy, seed):
            policy.begin_pass(now)
            assert policy.choose_partition(
                PlacementIndex(torus), state, now
            ) == choose_partition_scalar(
                policy, ReferencePlacementIndex(torus), state, now
            ), policy.name


    @settings(max_examples=60, deadline=None)
    @given(
        torus_states(),
        failure_logs(),
        st.floats(0.0, 1.0, allow_nan=False),
        st.integers(0, 2**31 - 1),
        st.data(),
    )
    def test_traced_candidate_table_equals_the_per_candidate_loop(
        self, torus, log, accuracy, seed, data
    ):
        """The ``considered`` table is built column-wise from the batch
        arrays; the reference builds it one ``Partition`` and one scalar
        predictor query at a time, caps it and transposes it.  A forced
        choice has no ``l_mfp`` / ``p_f`` column: it was not scored."""
        size = data.draw(st.sampled_from(schedulable_sizes(D)))
        now = data.draw(st.floats(0.0, 700.0, allow_nan=False))
        state = JobState(
            Job(0, 0.0, size, data.draw(st.floats(1.0, 300.0, allow_nan=False)))
        )
        window_end = now + max(state.remaining_estimate, 1.0)
        krevat, balancing, _, tiebreak = policies(log, accuracy, seed)
        index = PlacementIndex(torus)
        scored = ReferencePlacementIndex(torus).scored_candidates(size)
        min_loss = min((loss for _, loss in scored), default=0)

        def entry(partition, **scores):
            return {
                "base": list(partition.base), "shape": list(partition.shape), **scores
            }

        def balancing_entry(partition, loss):
            p_f = balancing.predictor.partition_failure_probability(
                partition, D, now, window_end
            )
            return entry(partition, l_mfp=loss, p_f=p_f)

        def tiebreak_entries():
            for partition, loss in scored:
                if loss != min_loss:
                    continue
                predicted = tiebreak.predictor.predicts_failure(
                    partition, D, now, window_end
                )
                yield entry(partition, l_mfp=loss, predicted_failure=predicted)
                if not predicted:
                    return

        for policy in (krevat, balancing, tiebreak):
            policy.begin_pass(now)
        references = {
            krevat: [entry(p, l_mfp=loss) for p, loss in scored],
            balancing: [balancing_entry(p, loss) for p, loss in scored],
            tiebreak: list(tiebreak_entries()),
        }
        for policy, reference in references.items():
            policy.recorder = TraceRecorder()
            chosen = policy.choose_partition(index, state, now)
            if not scored:  # asked about a size that does not fit: no record
                assert chosen is None and not policy.recorder.records, policy.name
                continue
            shown = reference[:MAX_TRACED_CANDIDATES]
            unscored = ("l_mfp", "p_f") if len(scored) == 1 else ()
            columns = {
                key: [entry[key] for entry in shown]
                for key in shown[0]
                if key not in unscored
            }
            (record,) = policy.recorder.records
            assert record["n_candidates"] == len(scored), policy.name
            assert record["considered"] == columns, policy.name
            assert record["truncated"] == (
                len(reference) > MAX_TRACED_CANDIDATES
            ), policy.name
            assert record["chosen"] == {
                "base": list(chosen.base), "shape": list(chosen.shape)
            }, policy.name
            # Plain Python scalars only: what the JSON encoder accepts.
            for column in record["considered"].values():
                assert all(type(v) in (int, float, bool, list) for v in column)


def forced_policies(log: FailureLog, seed: int):
    """Every policy flavour the forced path must agree on."""
    return [
        KrevatPolicy(),
        *(
            BalancingPolicy(BalancingPredictor(log, a, PartitionFailureRule.MAX))
            for a in (0.0, 0.1, 1.0)
        ),
        *(TieBreakPolicy(TieBreakPredictor(log, a, seed=seed)) for a in (0.0, 0.5)),
    ]


@st.composite
def one_free_box(draw) -> tuple[Torus, int]:
    """A machine busy everywhere but one random box (plus, perhaps, a
    few stray free nodes), and that box's size — which then has exactly
    one free partition, the box itself.  Every busy node is a 1x1x1
    job, so the production index reads the state from the allocation
    map like any other."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = random_partition(D, rng)
    free = set(box.node_indices(D).tolist())
    free.update(draw(st.lists(st.integers(0, D.volume - 1), max_size=4)))
    torus = Torus(D)
    for node in range(D.volume):
        if node not in free:
            x, y, z = np.unravel_index(node, D.as_tuple())
            torus.allocate(node, Partition((int(x), int(y), int(z)), (1, 1, 1)))
    assume(len(PlacementIndex(torus).candidate_batch(box.size)) == 1)
    return torus, box.size


class TestForcedChoice:
    """A size with one free partition leaves nothing to rank: every
    policy places it without the scoring kernel, traced or not, and
    still picks what the scalar walk picks."""

    @staticmethod
    def assert_forced_like_scalar(torus, size, log, seed, now, runtime):
        state = JobState(Job(0, 0.0, size, runtime))

        def no_kernel(self, *args):
            raise AssertionError("a forced choice ran the scoring kernel")

        for traced in (False, True):
            for policy in forced_policies(log, seed):
                if traced:
                    policy.recorder = TraceRecorder()
                policy.begin_pass(now)
                index = PlacementIndex(torus)
                assert len(index.candidate_batch(size)) == 1
                with mock.patch.object(PlacementIndex, "_excluded", no_kernel):
                    chosen = policy.choose_partition(index, state, now)
                assert chosen is not None and chosen == choose_partition_scalar(
                    policy, ReferencePlacementIndex(torus), state, now
                ), policy.name
                if traced:
                    # The record names the lone candidate and carries no
                    # score column; tie-break keeps the predictor answer
                    # it asked for anyway.
                    (record,) = policy.recorder.records
                    assert record["n_candidates"] == 1
                    considered = dict(record["considered"])
                    assert considered.pop("base") == [list(chosen.base)]
                    assert considered.pop("shape") == [list(chosen.shape)]
                    if policy.name == "tiebreak":
                        assert considered.keys() == {"predicted_failure"}
                    else:
                        assert considered == {}, policy.name

    @pytest.mark.parametrize("dims", [D, BGL_SUPERNODE_DIMS])
    def test_whole_machine_job_on_an_empty_torus(self, dims):
        torus = Torus(dims)
        assert PlacementIndex(torus).candidate_batch(dims.volume).partitions() == [
            Partition((0, 0, 0), dims.as_tuple())
        ]
        log = FailureLog(dims.volume, [FailureEvent(5.0, 3), FailureEvent(9.0, 0)])
        self.assert_forced_like_scalar(torus, dims.volume, log, 11, 0.0, 50.0)

    @settings(max_examples=60, deadline=None)
    @given(
        one_free_box(),
        failure_logs(),
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 700.0, allow_nan=False),
        st.floats(1.0, 300.0, allow_nan=False),
    )
    def test_one_free_box_of_a_size(self, state, log, seed, now, runtime):
        torus, size = state
        self.assert_forced_like_scalar(torus, size, log, seed, now, runtime)

    def test_tiebreak_forced_choice_keeps_the_draw_sequence(self):
        """The forced path still asks the tie-break predictor, traced or
        not, so its RNG stands where the scoring path leaves it,
        decision after decision."""
        log = FailureLog(
            D.volume, [FailureEvent(float(t), (7 * t) % D.volume) for t in range(40)]
        )
        forced = TieBreakPolicy(TieBreakPredictor(log, 0.5, seed=3))
        forced.recorder = TraceRecorder()
        scored = TieBreakPolicy(TieBreakPredictor(log, 0.5, seed=3))
        # Score every choice, a forced one too.
        scored.batch_scored = lambda index, size: index.batch_mfp_losses(size)
        empty, loaded = Torus(D), random_torus(D, np.random.default_rng(1), attempts=6)
        decisions = [(empty, D.volume), (loaded, 4), (empty, D.volume), (loaded, 2)]
        for step, (torus, size) in enumerate(decisions):
            now = 10.0 * step
            state = JobState(Job(step, 0.0, size, 25.0))
            picks = []
            for policy in (forced, scored):
                policy.begin_pass(now)
                picks.append(
                    policy.choose_partition(PlacementIndex(torus), state, now)
                )
            assert picks[0] == picks[1]
            assert (
                forced.predictor._rng.bit_generator.state
                == scored.predictor._rng.bit_generator.state
            ), step
        assert len(forced.recorder.records) == len(decisions)

    def test_profiled_histogram_counts_every_decision(self, monkeypatch):
        """``policy.candidate_set_size`` observes forced and scored
        decisions alike: one observation per ``choose_partition`` call,
        the forced ones in the ≤1 bucket."""
        calls = []
        choose = BalancingPolicy.choose_partition

        def counted(self, index, state, now):
            calls.append(len(index.candidate_batch(state.size)))
            return choose(self, index, state, now)

        monkeypatch.setattr(BalancingPolicy, "choose_partition", counted)
        setup = SimulationSetup(
            site="sdsc", n_jobs=80, n_failures=15, policy="balancing",
            parameter=0.1, seed=4, config=SimulationConfig(profile=True),
        )
        sim = setup.build_simulator()
        sim.run()
        histogram = sim.metrics.to_dict(include_timings=False)["histograms"][
            "policy.candidate_set_size"
        ]
        assert histogram["count"] == len(calls)
        assert histogram["buckets"][0] == calls.count(1) > 0
        assert min(calls) == 1 < max(calls)


# Scalar-oracle policy variants: same class, production entry point
# swapped for the reference scalar walk.  Used to run whole simulations
# down the scalar path, on the reference index ``oracle_simulator``
# hands out.
class ScalarKrevat(KrevatPolicy):
    choose_partition = choose_partition_scalar


class ScalarBalancing(BalancingPolicy):
    choose_partition = choose_partition_scalar


class ScalarTieBreak(TieBreakPolicy):
    choose_partition = choose_partition_scalar


SCALAR_VARIANTS = {
    KrevatPolicy: ScalarKrevat,
    BalancingPolicy: ScalarBalancing,
    TieBreakPolicy: ScalarTieBreak,
}


@st.composite
def workloads(draw) -> Workload:
    sizes = schedulable_sizes(D)
    n = draw(st.integers(1, 8))
    jobs = []
    arrival = 0.0
    for i in range(n):
        arrival += draw(st.floats(0.0, 50.0, allow_nan=False))
        jobs.append(
            Job(
                i,
                arrival,
                draw(st.sampled_from(sizes)),
                draw(st.floats(1.0, 200.0, allow_nan=False)),
            )
        )
    return Workload("batch-vs-scalar", D.volume, tuple(jobs))


def policy_pairs(log: FailureLog, accuracy: float, seed: int):
    """(batch, scalar) policy instances of every flavour.

    Predictors with RNG state (tie-break) are built fresh per instance
    from the same seed, so both runs see identical response noise.
    """
    return [
        (KrevatPolicy(), ScalarKrevat()),
        (
            BalancingPolicy(BalancingPredictor(log, accuracy, PartitionFailureRule.MAX)),
            ScalarBalancing(BalancingPredictor(log, accuracy, PartitionFailureRule.MAX)),
        ),
        (
            TieBreakPolicy(TieBreakPredictor(log, accuracy, seed=seed)),
            ScalarTieBreak(TieBreakPredictor(log, accuracy, seed=seed)),
        ),
    ]


class TestEndToEnd:
    @settings(max_examples=20, deadline=None)
    @given(
        workloads(),
        failure_logs(),
        st.floats(0.0, 1.0, allow_nan=False),
        st.sampled_from(list(BackfillMode)),
        st.booleans(),
        st.data(),
    )
    def test_reports_bitwise_identical(
        self, workload, log, accuracy, backfill, migration, data
    ):
        """Whole simulations agree: batch-path and scalar-path runs of
        the same scenario produce equal reports, field for field."""
        seed = data.draw(st.integers(0, 2**31 - 1))
        config = SimulationConfig(
            dims=D, backfill=backfill, migration=migration, seed=seed
        )
        for batch_policy, scalar_policy in policy_pairs(log, accuracy, seed):
            batch_report = simulate(workload, log, batch_policy, config)
            scalar_report = oracle_simulator(workload, log, scalar_policy, config).run()
            assert batch_report == scalar_report, batch_policy.name
