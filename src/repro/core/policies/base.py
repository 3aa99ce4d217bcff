"""Placement-policy interface.

A policy answers exactly one question: *given the current machine state,
which free partition should this job get?*  Queueing order, backfilling
and migration live in the engine; only the partition choice differs
between the paper's three schedulers.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.allocation.mfp import CandidateBatch, PlacementIndex
from repro.core.jobstate import JobState
from repro.geometry.partition import Partition
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_RECORDER
from repro.records import canonical_json, json_string

#: Per-decision cap on candidates detailed in one trace record; the
#: record's ``n_candidates`` always carries the uncapped count.
MAX_TRACED_CANDIDATES = 64


class SchedulingPolicy(abc.ABC):
    """Chooses a partition for a job from the current free set."""

    #: Registry/CLI name.
    name: str = "abstract"

    #: Decision-trace recorder; the simulator swaps in its own when
    #: tracing is enabled.  Policies emit one ``candidates`` record per
    #: placement they make, with the scoring inputs they computed for the
    #: considered partitions (:meth:`trace_decision`).  The engine asks
    #: only about a size with a free partition, so a trace holds no empty
    #: record.  The recorder never changes what a policy computes.
    recorder = NULL_RECORDER

    #: Profile registry; the simulator hands over its own beside the
    #: recorder.  ``None``: nothing is observed.
    metrics: MetricsRegistry | None = None

    def begin_pass(self, now: float) -> None:
        """Hook invoked once per scheduler pass (reset per-pass caches)."""

    @abc.abstractmethod
    def choose_partition(
        self, index: PlacementIndex, state: JobState, now: float
    ) -> Partition | None:
        """Pick a partition of ``state.size`` nodes, or None to leave the
        job waiting (only when no free partition exists — the paper's
        policies always place when they can)."""

    # ------------------------------------------------------------------
    def batch_scored(
        self, index: PlacementIndex, size: int
    ) -> tuple[CandidateBatch, np.ndarray | None]:
        """All candidates of ``size``, with batch-kernel ``L_MFP`` scores
        when there is a choice to rank.

        Shared by every policy's production path: the Krevat heuristic
        prefers minimal MFP loss, and both fault-aware policies start
        from the same scored batch.  The scores are ``None`` when no
        ranking can matter: no candidate, or exactly one — a *forced*
        choice, which every policy places without the kernel
        (:meth:`place_unscored`), traced or not.
        ``policy.candidate_set_size`` observes the batch either way.
        """
        batch = index.candidate_batch(size)
        registry = self.metrics
        if registry is not None:
            registry.histogram("policy.candidate_set_size").observe(len(batch))
        if len(batch) > 1:
            return index.batch_mfp_losses(size)
        return batch, None

    def place_unscored(
        self, state: JobState, now: float, batch: CandidateBatch, **scores: np.ndarray
    ) -> Partition | None:
        """The lone candidate of an unscored batch, or ``None`` if empty.

        A forced choice's ``candidates`` record names that candidate with
        no ``L_MFP`` column; ``scores`` holds whatever the policy did
        compute for it (tie-break's predictor answer).
        """
        if not len(batch):
            return None
        chosen = batch.partition(0)
        if self.recorder.enabled:
            self.trace_decision(state, now, batch, chosen, **scores)
        return chosen

    # ------------------------------------------------------------------
    def trace_decision(
        self,
        state: JobState,
        now: float,
        batch: CandidateBatch,
        chosen: Partition,
        rows: np.ndarray | None = None,
        **scores: np.ndarray,
    ) -> None:
        """Emit one ``candidates`` decision record (tracing only).

        ``rows`` are the batch rows the policy examined, in the order it
        examined them (default: every candidate, enumeration order) and
        each of ``scores`` is an array aligned with them: the inputs the
        policy computed, never a value derived from them.  The first
        :data:`MAX_TRACED_CANDIDATES` rows become ``considered``, a
        column table ``{"base": [...], "shape": [...], <score>: [...]}``
        written straight as JSON text — ``base`` / ``shape`` joined from
        the per-dims text tables (:meth:`CandidateBatch.column_text`),
        each score column one ``canonical_json`` of its ``tolist()`` —
        with no :class:`Partition` per candidate; ``truncated`` says
        whether any were left out and ``n_candidates`` is the whole
        batch.
        """
        n_examined = len(batch) if rows is None else len(rows)
        shown = slice(0, MAX_TRACED_CANDIDATES)
        base, shape = batch.column_text(shown if rows is None else rows[shown])
        columns = {"base": base, "shape": shape}
        for key, column in scores.items():
            columns[key] = canonical_json(column[shown].tolist())
        considered = ",".join([json_string(key) + ":" + columns[key] for key in sorted(columns)])
        self.recorder.emit(
            "candidates", now, state.job_id, state.size, self.name, len(batch),
            "{" + considered + "}", n_examined > MAX_TRACED_CANDIDATES, chosen,
        )
