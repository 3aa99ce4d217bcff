"""Guard: production scores and looks up through two named methods.

Outside timing wrappers (``benchmarks/e2e/spans.py``) replace
``PlacementIndex.batch_mfp_losses`` and ``IndexCache.get`` on the class
and count what passes through.  An index class that scored through
another name, or an index built or repaired behind the cache's back,
would leave those counts at 0 while the work still happened.  So the
production index is :class:`PlacementIndex` itself — what
``IndexCache.get`` hands out, with ``batch_mfp_losses`` defined on it —
and neither it nor the test-only ``ReferencePlacementIndex`` inherits
from the other.  The
test wraps both the same way and runs short simulations: every scoring
kernel run must happen inside a wrapped ``batch_mfp_losses`` and every
index build or repair inside a wrapped ``IndexCache.get``.  A
``choose_partition`` call either passes through ``batch_mfp_losses`` or
is *forced* — its size has exactly one free partition — and then runs no
kernel at all, traced or not.

The same holds for prediction: the span table wraps
``BalancingPredictor.partition_failure_probabilities``,
``TieBreakPredictor.predict_failures`` and ``FailureLog.nodes_failing_in``
on their classes.  Every scored fault-aware choice must pass through the
predictor's entry point exactly once — all its candidates, of every
shape, in one query — and every failure-window query must run inside
one.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.allocation.mfp import IndexCache, PlacementIndex
from repro.api import SimulationSetup
from repro.core.policies.balancing import BalancingPolicy
from repro.core.policies.krevat import KrevatPolicy
from repro.core.policies.tiebreak import TieBreakPolicy
from repro.failures.events import FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.torus import Torus
from repro.prediction import BalancingPredictor, TieBreakPredictor
from tests.oracles import ReferencePlacementIndex

#: Span targets of ``prediction.score`` / ``failures.window_query``.
PREDICTION_TARGETS = (
    (BalancingPredictor, "partition_failure_probabilities"),
    (TieBreakPredictor, "predict_failures"),
    (TieBreakPredictor, "partition_failure_probabilities"),
    (FailureLog, "nodes_failing_in"),
    (FailureLog, "failure_mask"),
)


def test_batch_mfp_losses_is_not_overridden():
    assert type(IndexCache(Torus(BGL_SUPERNODE_DIMS)).get()) is PlacementIndex
    assert "batch_mfp_losses" in vars(PlacementIndex)
    assert "candidate_batch" in vars(PlacementIndex)
    assert PlacementIndex.__bases__ == (object,)
    assert ReferencePlacementIndex.__bases__ == (object,)
    assert not issubclass(PlacementIndex, ReferencePlacementIndex)
    assert not issubclass(ReferencePlacementIndex, PlacementIndex)


@pytest.mark.parametrize("owner, attr", PREDICTION_TARGETS)
def test_prediction_span_targets_are_defined_on_their_classes(owner, attr):
    assert attr in vars(owner)


@pytest.mark.parametrize(
    "policy, policy_class",
    [
        ("krevat", KrevatPolicy),
        ("balancing", BalancingPolicy),
        ("tiebreak", TieBreakPolicy),
    ],
)
def test_every_scoring_and_lookup_passes_the_span_targets(
    monkeypatch, policy, policy_class
):
    calls: Counter[str] = Counter()
    depth: Counter[str] = Counter()

    def wrap(owner, attr, name, inside=None):
        # As the span recorder does: the attribute defined on ``owner``
        # itself, replaced on the class for the length of the run.
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if inside is not None:
                assert depth[inside], f"{name} ran outside {inside}"
            calls[name] += 1
            depth[name] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[name] -= 1

        monkeypatch.setattr(owner, attr, wrapper)

    wrap(PlacementIndex, "batch_mfp_losses", "score")
    wrap(IndexCache, "get", "get")
    wrap(PlacementIndex, "_excluded", "kernel", "score")
    wrap(PlacementIndex, "sync", "repair", "get")
    wrap(PlacementIndex, "__init__", "build", "get")
    wrap(BalancingPredictor, "partition_failure_probabilities", "predict")
    wrap(TieBreakPredictor, "predict_failures", "predict")
    wrap(FailureLog, "nodes_failing_in", "window", "predict")
    choose = vars(policy_class)["choose_partition"]

    def scored_choose(self, index, state, now):
        calls["choose"] += 1
        before = calls["score"], calls["kernel"], calls["predict"]
        result = choose(self, index, state, now)
        if calls["score"] > before[0]:
            calls["scored"] += 1
            ext = index.candidate_batch(state.size).shape_rows()
            calls["multi_shape"] += bool((ext != ext[0]).any())
            if policy != "krevat":
                assert calls["predict"] == before[2] + 1, (
                    "a scored choice did not ask the predictor exactly once"
                )
        else:
            assert len(index.candidate_batch(state.size)) == 1, (
                "a placement with a choice was scored unseen"
            )
            assert calls["kernel"] == before[1]
            calls["forced"] += 1
        return result

    monkeypatch.setattr(policy_class, "choose_partition", scored_choose)

    setup = SimulationSetup(
        site="sdsc", n_jobs=80, n_failures=15, policy=policy, parameter=0.5, seed=4
    )
    report = setup.run()

    assert report.timing.n_jobs == 80
    assert calls["choose"] == calls["scored"] + calls["forced"]
    assert calls["scored"] > 0 and calls["forced"] > 0
    assert calls["kernel"] > 0
    # A build is a zero tensor plus one sync, so every build is a sync
    # too, and a lookup runs at most one.
    assert calls["repair"] > calls["build"] > 0
    assert calls["repair"] <= calls["get"]
    assert calls["multi_shape"] > 0  # choices among several shapes were scored
    if policy == "krevat":
        assert calls["predict"] == calls["window"] == 0
    elif policy == "balancing":
        # A forced choice leaves the predictor unasked.
        assert calls["predict"] == calls["scored"] > 0
        assert calls["window"] > 0
    else:
        # Tie-break asks about a forced choice too, to keep its draws.
        assert calls["predict"] == calls["choose"] > 0
        assert calls["window"] > 0
