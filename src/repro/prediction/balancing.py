"""The balancing (confidence) predictor — §4.1 of the paper.

For a node ``n`` and window ``[t0, t1)`` the predicted failure
probability is ``a`` when the failure log contains an event for ``n`` in
the window and 0 otherwise; partition probabilities combine per the
configured :class:`~repro.prediction.base.PartitionFailureRule`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PredictionError
from repro.failures.events import FailureLog
from repro.geometry.coords import TorusDims
from repro.prediction.base import (
    PartitionFailureRule,
    Predictor,
    combine_probabilities,
)


class BalancingPredictor(Predictor):
    """Log-peeking probabilistic predictor with confidence ``a``.

    Parameters
    ----------
    log:
        The shared failure log (same instance the simulator injects
        failures from).
    confidence:
        The paper's ``a`` parameter in ``[0, 1]``.  0 disables
        prediction entirely (the fault-oblivious baseline); 1 is a
        perfectly confident oracle.
    rule:
        Per-partition combination rule; default is the §4.1 ``max`` form
        (the §5.2.1 complement-product is available for ablation — see
        DESIGN.md §5.2).

    ``confidence`` and ``rule`` are fixed at construction: the per-count
    ``P_f`` table is built from them there.
    """

    def __init__(
        self,
        log: FailureLog,
        confidence: float,
        rule: PartitionFailureRule = PartitionFailureRule.MAX,
    ) -> None:
        if not 0.0 <= confidence <= 1.0:
            raise PredictionError(f"confidence must be in [0, 1], got {confidence}")
        self.log = log
        self.confidence = confidence
        self.rule = rule
        # ``P_f`` by flagged count, for every count a partition can hold.
        # Each entry is the scalar combiner's value, so the complement
        # product keeps the bits Python's ``**`` gives, where a
        # vectorised power could round differently.
        self._pf = np.array(
            [
                combine_probabilities(confidence, count, rule)
                for count in range(log.n_nodes + 1)
            ],
            dtype=np.float64,
        )

    def _flag(self, t0: float, t1: float) -> np.ndarray:
        if self.confidence == 0.0:
            return np.empty(0, dtype=np.int64)
        return self.log.nodes_failing_in(t0, t1)

    def partition_failure_probabilities(
        self, bases: np.ndarray, extents, dims: TorusDims, t0: float, t1: float
    ) -> np.ndarray:
        """Batch ``P_f``: one flagged count per candidate, then one
        ``take`` from the per-count table built with the predictor."""
        return self._pf.take(self._counts(bases, extents, dims, t0, t1))
