"""The planned wall is computed once per queue entry.

``JobState.est_wall`` is the checkpoint model's wall for
``max(remaining_estimate, MIN_ESTIMATE_S)``.  The simulator sets it
when a job enters the wait queue — on arrival and after a kill — and
the backfill walk and dispatch read it.  That is exact because
``remaining_estimate`` moves only in ``JobState.kill``, after which the
job re-enters the queue (DESIGN §5.15).

Without checkpointing a kill leaves ``remaining_estimate`` unchanged, so
a stale ``est_wall`` would match every digest.  These runs checkpoint
(periodic, and periodic plus predictive), so kills bank progress and
shrink the estimate.  A test-local subclass that derives the planned
wall from the checkpoint model at both use sites must make the same
decisions as production, and after every scheduler pass each waiting
job's ``est_wall`` must equal the model's answer.
"""

from __future__ import annotations

import io
import json
import math
from itertools import islice

import pytest

from repro.api import SimulationSetup
from repro.checkpoint.model import CheckpointConfig, CheckpointMode
from repro.core.config import BackfillMode, SimulationConfig
from repro.core.events import EventKind
from repro.core.jobstate import MIN_ESTIMATE_S
from repro.core.simulator import _SHADOW_EPS, Simulator
from repro.errors import SimulationError
from repro.metrics.serialize import report_to_dict
from repro.obs.trace import TraceRecorder


def planned_wall(sim: Simulator, state) -> float:
    return sim.checkpoint.wall_duration(max(state.remaining_estimate, MIN_ESTIMATE_S))


class CheckedSimulator(Simulator):
    """Production, asserting before and after every scheduler pass that
    each waiting job's ``est_wall`` is the model's answer."""

    def _schedule_pass(self, now):
        self._check_waiting()
        super()._schedule_pass(now)
        self._check_waiting()

    def _check_waiting(self):
        for state in self.wait:
            assert state.est_wall == planned_wall(self, state), state.job_id


class RecomputedWallSimulator(Simulator):
    """The walk and dispatch deriving the planned wall from the
    checkpoint model on every question, ignoring ``est_wall``."""

    def _try_backfill(self, index, head, now):
        free = self.torus.free_count
        fits = {s for s in self.wait.sizes() if s <= free and index.has_candidate(s)}
        if not fits:
            return False
        easy = self.config.backfill is BackfillMode.EASY
        kept = self._reservation
        if kept is not None and kept[0] is head:
            _, start, shadow = kept
            if easy and self.metrics is not None:
                self.metrics.counter("shadow.kept").inc()
        else:
            start, shadow = 1, None if easy else math.inf
        for position, state in enumerate(islice(self.wait, start, None), start):
            if state.size not in fits:
                continue
            if shadow is None:
                shadow = self._shadow.shadow_time(self._running(), head.size, now)
                if math.isinf(shadow):
                    raise SimulationError(
                        f"job {head.job_id} (size {head.size}) cannot fit even "
                        f"an empty machine"
                    )
            est_wall = planned_wall(self, state)
            if now + est_wall > shadow + _SHADOW_EPS:
                continue
            partition = self.policy.choose_partition(index, state, now)
            if partition is not None:
                if self.recorder.enabled:
                    self.recorder.emit(
                        "backfill", now, job=state.job_id, head_job=head.job_id,
                        shadow=shadow if easy else None, est_wall=est_wall,
                    )
                self._dispatch(state, partition, now, via="backfill")
                self.counters.backfills += 1
                holds = now + est_wall <= shadow
                self._reservation = (head, position, shadow) if holds else None
                return True
        return False

    def _dispatch(self, state, partition, now, via="fcfs"):
        wall = max(self.checkpoint.wall_duration(state.remaining_work), 1e-9)
        epoch = state.dispatch(now, wall, now + planned_wall(self, state))
        if self.recorder.enabled:
            self.recorder.emit(
                "dispatch", now, job=state.job_id, size=state.size,
                base=[int(x) for x in partition.base],
                shape=[int(x) for x in partition.shape],
                via=via, wall=wall, est_finish=state.est_finish,
            )
        if self.metrics is not None:
            self.metrics.counter("sim.dispatches").inc()
        self.torus.allocate(state.job_id, partition)
        self.wait.remove(state)
        self.events.push(now + wall, EventKind.FINISH, state.job_id, epoch)


def checkpointed_setup(mode, backfill, migration_cost_s) -> SimulationSetup:
    """The deep-queue SDSC regime, checkpointing every 20 min of work at
    a 30-s overhead so kills bank progress."""
    checkpoint = CheckpointConfig(
        mode=mode,
        interval_s=1200.0,
        overhead_s=30.0,
        hit_probability=0.5 if mode is CheckpointMode.BOTH else 0.0,
    )
    return SimulationSetup(
        site="sdsc",
        n_jobs=160,
        n_failures=160,
        policy="balancing",
        parameter=0.1,
        seed=0,
        config=SimulationConfig(
            backfill=backfill,
            migration_cost_s=migration_cost_s,
            checkpoint=checkpoint,
            trace=True,
        ),
    )


def traced_run(engine, setup: SimulationSetup):
    """Report bytes, trace bytes, every ``choose_partition`` call, and
    the simulator."""
    sink = io.StringIO()
    sim = engine(*setup.build_inputs(), setup.config, recorder=TraceRecorder(sink=sink))
    calls = []
    choose = sim.policy.choose_partition

    def logged_choose(index, state, now):
        partition = choose(index, state, now)
        calls.append((state.job_id, now, partition))
        return partition

    sim.policy.choose_partition = logged_choose
    report = json.dumps(report_to_dict(sim.run()), sort_keys=True).encode()
    return report, sink.getvalue().encode(), calls, sim


class TestPlannedWallUnderCheckpointing:
    @pytest.mark.parametrize("migration_cost_s", [0.0, 120.0])
    @pytest.mark.parametrize("backfill", [BackfillMode.EASY, BackfillMode.AGGRESSIVE])
    @pytest.mark.parametrize("mode", [CheckpointMode.PERIODIC, CheckpointMode.BOTH])
    def test_stored_wall_decides_like_the_recomputed_wall(
        self, mode, backfill, migration_cost_s
    ):
        setup = checkpointed_setup(mode, backfill, migration_cost_s)
        report, trace, calls, sim = traced_run(CheckedSimulator, setup)
        assert traced_run(RecomputedWallSimulator, setup)[:3] == (report, trace, calls)
        # The regime the test is for: kills banked progress, so planned
        # walls moved, and jobs backfilled against them.
        assert sim.counters.checkpoint_restores > 0
        assert sim.counters.backfills > 0
        if migration_cost_s:
            assert sim.counters.migrations > 0
