"""Predictor interfaces and the partition failure-probability rules.

Both paper predictors work the same way: for a window ``[t0, t1)`` they
*flag* a set of nodes, and a partition's answer depends only on how many
flagged nodes it holds.  A predictor implements :meth:`Predictor._flag`;
the one count kernel lives here.  Only tie-break keeps a window's flags
for the rest of a pass (its draws must repeat there).

A fault-aware placement asks one query per decision: the bases of every
candidate it weighs, whatever their shapes, with each candidate's
extents as an ``(n, 3)`` array beside them (a single 3-tuple still
stands for "this shape at every base").  The count kernel broadcasts
over either form, so mixing shapes costs no extra pass.
"""

from __future__ import annotations

import abc
import enum

import numpy as np

from repro.errors import PredictionError
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition


class PartitionFailureRule(enum.Enum):
    """How per-node failure probabilities combine into a partition's
    ``P_f``.

    The paper states both forms: §4.1 uses ``max_n p_n^f`` while §5.2.1
    uses ``1 - prod_n (1 - p_n^f)``.  For the balancing predictor's 0/``a``
    output the two differ only when several flagged nodes land in one
    partition; both are implemented and ablated
    (``benchmarks/test_ablation_pf_rule.py``).
    """

    MAX = "max"
    COMPLEMENT_PRODUCT = "complement-product"


def combine_probabilities(
    confidence: float, flagged_in_partition: int, rule: PartitionFailureRule
) -> float:
    """``P_f`` for a partition containing ``flagged_in_partition`` nodes
    whose individual failure probability is ``confidence``."""
    if flagged_in_partition < 0:
        raise PredictionError("flagged node count must be >= 0")
    if flagged_in_partition == 0 or confidence == 0.0:
        return 0.0
    if rule is PartitionFailureRule.MAX:
        return confidence
    return 1.0 - (1.0 - confidence) ** flagged_in_partition


class Predictor(abc.ABC):
    """Common surface of both paper predictors.

    A predictor is queried about one *window* ``[t0, t1)`` at a time —
    the estimated execution interval of the job being placed.  Queries
    inside one scheduling pass must be mutually consistent, so the
    simulator calls :meth:`begin_pass` before each pass; a predictor
    whose flags are not a function of the window alone (tie-break's
    random responses) keeps them until the next one.
    """

    def begin_pass(self, now: float) -> None:
        """Hook invoked once per scheduler pass (nothing to reset here)."""

    @abc.abstractmethod
    def _flag(self, t0: float, t1: float) -> np.ndarray:
        """Sorted linear ids of the nodes flagged in ``[t0, t1)``."""

    def _window(self, t0: float, t1: float) -> np.ndarray:
        """The flagged linear ids of ``[t0, t1)``: a fresh flag per query."""
        return self._flag(t0, t1)

    def _counts(
        self,
        bases: np.ndarray,
        extents: tuple[int, int, int] | np.ndarray,
        dims: TorusDims,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        """Flagged nodes inside each of the ``(n, 3)`` candidate bases,
        box ``i`` having extents ``extents`` (a 3-tuple) or ``extents[i]``
        (an ``(n, 3)`` array)."""
        flagged = self._window(t0, t1)
        if flagged.size == 0:
            return np.zeros(bases.shape[0], dtype=np.int64)
        # Node p lies in the wrapped box (b, e) iff (p - b) mod P < e on
        # every axis.
        ext = np.asarray(extents).reshape(-1, 3)
        fx, fy, fz = np.unravel_index(flagged, dims.as_tuple())
        inside = (
            (((fx[None, :] - bases[:, 0:1]) % dims.x) < ext[:, 0:1])
            & (((fy[None, :] - bases[:, 1:2]) % dims.y) < ext[:, 1:2])
            & (((fz[None, :] - bases[:, 2:3]) % dims.z) < ext[:, 2:3])
        )
        return inside.sum(axis=1)

    # ------------------------------------------------------------------
    # batch surface (candidate scoring hot path)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def partition_failure_probabilities(
        self,
        bases: np.ndarray,
        extents: tuple[int, int, int] | np.ndarray,
        dims: TorusDims,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        """``P_f`` for many candidate partitions at once.

        ``bases`` is an ``(n, 3)`` integer array of partition bases and
        ``extents`` their shapes: one 3-tuple for all, or an ``(n, 3)``
        array, so candidates of every shape go in one call.  The result
        is the ``(n,)`` float array of per-candidate failure
        probabilities.
        """

    def predict_failures(
        self,
        bases: np.ndarray,
        extents: tuple[int, int, int] | np.ndarray,
        dims: TorusDims,
        t0: float,
        t1: float,
    ) -> np.ndarray:
        """Boolean batch form: does the predictor expect each candidate
        to fail?  Default: ``P_f > 0``."""
        return self.partition_failure_probabilities(bases, extents, dims, t0, t1) > 0.0

    # ------------------------------------------------------------------
    # scalar surface: one-row calls of the batch entry points
    # ------------------------------------------------------------------
    def partition_failure_probability(
        self, partition: Partition, dims: TorusDims, t0: float, t1: float
    ) -> float:
        """Estimated probability that ``partition`` fails in ``[t0, t1)``."""
        bases = np.array([partition.base], dtype=np.int64)
        return float(
            self.partition_failure_probabilities(bases, partition.shape, dims, t0, t1)[0]
        )

    def predicts_failure(
        self, partition: Partition, dims: TorusDims, t0: float, t1: float
    ) -> bool:
        """Boolean form: does the predictor expect the partition to fail?"""
        bases = np.array([partition.base], dtype=np.int64)
        return bool(self.predict_failures(bases, partition.shape, dims, t0, t1)[0])
