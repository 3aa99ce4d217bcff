"""The balancing algorithm — §5.2.1 of the paper.

For each candidate partition ``P`` the policy computes the total
expected loss

    ``E_loss = L_MFP + L_PF``,  with  ``L_PF = P_f · s_j``,

where ``L_MFP`` is the MFP shrinkage caused by the placement and ``P_f``
the predicted probability that ``P`` fails before the job's estimated
completion (worst case: the job dies just before finishing, losing
``s_j``-node-sized work).  The candidate minimising ``E_loss`` wins;
ties prefer the more stable partition (lower ``P_f``), then enumeration
order.

With confidence 0 every ``P_f`` is 0 and the policy degenerates exactly
to the Krevat baseline — the sweeps' ``a = 0`` point.

The production path is fully batch: one MFP kernel call for every
``L_MFP``, one predictor query for every ``P_f`` — all candidates of
every shape, each row with its own extents — and a two-stage
lexicographic argmin whose tie order provably matches the scalar walk's
``(e_loss, p_f, enumeration-order)`` keys — the minimum ``e_loss`` is
found by exact float comparison, the tied subset is reduced by
first-occurrence ``argmin`` on ``p_f``, and both paths compute
``e_loss`` with the identical two IEEE operations (``p_f * s_j`` then
``l_mfp + ·``), so equal keys are equal bitwise.  For the same reason
a trace records the inputs ``l_mfp`` and ``p_f`` only: any reader
recomputes ``L_PF`` and ``E_loss`` bit-exactly.
"""

from __future__ import annotations

from repro.allocation.mfp import PlacementIndex
from repro.core.jobstate import JobState
from repro.core.policies.base import SchedulingPolicy
from repro.geometry.partition import Partition
from repro.prediction.base import Predictor


class BalancingPolicy(SchedulingPolicy):
    """Fault-aware placement balancing MFP loss against failure loss."""

    name = "balancing"

    def __init__(self, predictor: Predictor) -> None:
        self.predictor = predictor

    def begin_pass(self, now: float) -> None:
        self.predictor.begin_pass(now)

    def choose_partition(
        self, index: PlacementIndex, state: JobState, now: float
    ) -> Partition | None:
        batch, losses = self.batch_scored(index, state.size)
        if losses is None:
            # Nothing fits, or the choice is forced.  The predictor is a
            # pure cache of the failure log, so leaving it unasked
            # changes no later answer.
            return self.place_unscored(state, now, batch)
        window_end = now + max(state.remaining_estimate, 1.0)
        probs = self.predictor.partition_failure_probabilities(
            batch.bases, batch.shape_rows(), index.dims, now, window_end
        )
        e_loss = losses + probs * state.size
        tied = (e_loss == e_loss.min()).nonzero()[0]
        winner = int(tied[probs[tied].argmin()])
        chosen = batch.partition(winner)
        if self.recorder.enabled:  # inputs only (module docstring)
            self.trace_decision(state, now, batch, chosen, l_mfp=losses, p_f=probs)
        return chosen
