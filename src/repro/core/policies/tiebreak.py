"""The tie-breaking algorithm — §5.2.2 of the paper.

Keep the Krevat heuristic's choice set — the candidates of minimal
``L_MFP`` — and use the boolean tie-breaking predictor only to choose
*among* them: prefer a tied partition predicted not to fail during the
job's estimated execution.  When every tied candidate is predicted to
fail the choice is arbitrary (first in enumeration order), exactly as
the paper specifies.

Unlike the balancing policy this never trades free space for stability:
with accuracy 0 (or no upcoming failures) it is bit-for-bit the Krevat
baseline.

The production path batches: every tied candidate, whatever its shape,
goes to the predictor in one vectorised query (its bases beside its
per-row extents), then the winner is the first unpredicted tied
candidate (first tied overall as fallback) — the same choice as the
scalar reference walk.  The batch path may query the predictor for
tied candidates the scalar walk's early exit skips; that is
observationally free, because per-node responses are drawn once per
window, not per query.
"""

from __future__ import annotations

from repro.allocation.mfp import PlacementIndex
from repro.core.jobstate import JobState
from repro.core.policies.base import SchedulingPolicy
from repro.geometry.partition import Partition
from repro.prediction.base import Predictor


class TieBreakPolicy(SchedulingPolicy):
    """Krevat placement with fault-prediction tie-breaking."""

    name = "tiebreak"

    def __init__(self, predictor: Predictor) -> None:
        self.predictor = predictor

    def begin_pass(self, now: float) -> None:
        self.predictor.begin_pass(now)

    def choose_partition(
        self, index: PlacementIndex, state: JobState, now: float
    ) -> Partition | None:
        batch, losses = self.batch_scored(index, state.size)
        if not len(batch):
            return None
        window_end = now + max(state.remaining_estimate, 1.0)
        if losses is None:
            # A forced choice: the lone candidate wins whatever the
            # answer, but the predictor is still asked.  Its per-window
            # draws come from a seeded RNG in call order, so a skipped
            # query would shift every later draw.
            predicted = self.predictor.predict_failures(
                batch.bases, batch.shape_rows(), index.dims, now, window_end
            )
            return self.place_unscored(state, now, batch, predicted_failure=predicted)
        tied = (losses == losses.min()).nonzero()[0]
        predicted = self.predictor.predict_failures(
            batch.bases[tied], batch.shape_rows()[tied], index.dims, now, window_end
        )
        unpredicted = (~predicted).nonzero()[0]
        if unpredicted.size:
            pick = int(unpredicted[0])
        else:
            pick = 0  # every tied candidate predicted to fail: first wins
        chosen = batch.partition(int(tied[pick]))
        if self.recorder.enabled:
            # The scalar walk examines tied candidates up to and
            # including the first unpredicted one; mirror that.
            examined = tied[: int(unpredicted[0]) + 1] if unpredicted.size else tied
            self.trace_decision(
                state, now, batch, chosen, rows=examined,
                l_mfp=losses[examined],
                predicted_failure=predicted[: examined.size],
            )
        return chosen
