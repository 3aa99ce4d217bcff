"""The tie-breaking (accuracy) predictor — §4.2 of the paper.

A boolean oracle: for a node with a logged failure inside the window it
answers *yes* with probability ``a`` (so the false-negative rate is
``1-a``); for a node with no logged failure it always answers *no*
(zero false positives, justified in the paper by the measured
``p_f+ << p_f-`` of real predictors).

Responses must be consistent within one scheduling pass — the same node
asked twice (via two overlapping candidate partitions) must answer the
same — so each window's draws are made once and cached until
:meth:`begin_pass`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PredictionError
from repro.failures.events import FailureLog
from repro.geometry.coords import TorusDims
from repro.prediction.base import Predictor


class TieBreakPredictor(Predictor):
    """Boolean log-peeking predictor with accuracy ``a``.

    Parameters
    ----------
    log:
        Shared failure log.
    accuracy:
        ``a = 1 - p_f-`` in ``[0, 1]``; probability a genuine upcoming
        failure is reported.
    seed:
        Seed for the response noise.
    """

    def __init__(self, log: FailureLog, accuracy: float, seed: int | None = 0) -> None:
        if not 0.0 <= accuracy <= 1.0:
            raise PredictionError(f"accuracy must be in [0, 1], got {accuracy}")
        self.log = log
        self.accuracy = accuracy
        self._rng = np.random.default_rng(seed)
        # (t0, t1) -> the window's flagged ids, this pass.
        self._windows: dict[tuple[float, float], np.ndarray] = {}

    def begin_pass(self, now: float) -> None:
        """Drop the window memo: a new pass draws anew."""
        self._windows.clear()

    def _window(self, t0: float, t1: float) -> np.ndarray:
        flagged = self._windows.get((t0, t1))
        if flagged is None:
            flagged = self._windows[(t0, t1)] = self._flag(t0, t1)
        return flagged

    def _flag(self, t0: float, t1: float) -> np.ndarray:
        # Called once per window and pass (the memo above).
        # One Bernoulli(a) response per node for every new window, drawn
        # whether or not the window holds a failure: the seeded stream
        # then depends only on the sequence of windows asked about.
        draws = self._rng.random(self.log.n_nodes) < self.accuracy
        failing = self.log.nodes_failing_in(t0, t1)
        return failing[draws[failing]]

    def predict_failures(
        self, bases: np.ndarray, extents, dims: TorusDims, t0: float, t1: float
    ) -> np.ndarray:
        return self._counts(bases, extents, dims, t0, t1) > 0

    def partition_failure_probabilities(
        self, bases: np.ndarray, extents, dims: TorusDims, t0: float, t1: float
    ) -> np.ndarray:
        """Degenerate probability view: 1.0 where predicted to fail."""
        return np.where(
            self.predict_failures(bases, extents, dims, t0, t1), 1.0, 0.0
        )
