"""Fault predictors.

The paper does not run a real prediction algorithm online; instead both
predictors peek at the failure log with a controlled degradation
parameter ``a`` (§4).  Each *flags* nodes for a window; a partition's
answer depends only on how many flagged nodes it holds:

* :class:`BalancingPredictor` — flags every node with a logged failure
  in the window, with probability ``a`` (the *confidence* parameter of
  the balancing scheduler; ``a = 1`` is the perfect oracle, ``a = 0``
  predicts nothing).
* :class:`TieBreakPredictor` — flags each such node with probability
  ``a``: a boolean oracle with false-negative rate ``1-a`` and no false
  positives (the *accuracy* parameter of the tie-breaking scheduler).
"""

from __future__ import annotations

from repro.prediction.base import PartitionFailureRule, Predictor
from repro.prediction.balancing import BalancingPredictor
from repro.prediction.tiebreak import TieBreakPredictor

__all__ = [
    "PartitionFailureRule",
    "Predictor",
    "BalancingPredictor",
    "TieBreakPredictor",
]
