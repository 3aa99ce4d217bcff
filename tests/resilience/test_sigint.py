"""SIGINT mid-sweep leaves only complete, verified checkpoint cells.

A real resume begins with a kill, so this test performs one: a child
process runs a checkpointed sweep whose cells are chaos-delayed (the
child installs the delay plan itself, making the interrupt window
wide), the parent SIGINTs it partway, and the
checkpoint directory must then contain nothing but complete,
checksum-valid cell files — no temp files, no partial JSON.  A resumed
run finishes the sweep and matches an uninterrupted serial reference.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro.experiments.sweep as sweep_mod
from repro.experiments.sweep import run_sweep, run_sweep_outcome
from repro.resilience import CellStore, RetryPolicy
from repro.resilience.store import TMP_PREFIX

from tests.resilience.conftest import no_sleep

_CHILD = textwrap.dedent(
    """
    import sys

    import repro.experiments.sweep as sweep_mod
    sweep_mod.MASTER_FAILURE_COUNT = 64
    from repro.experiments.sweep import SweepPoint, run_sweep_outcome
    from repro.resilience import RetryPolicy
    from tests.chaos import ChaosConfig, injecting

    checkpoint_dir, chaos_dir = sys.argv[1:]
    points = [
        SweepPoint("nasa", 15, 1.0, 2, "krevat", 0.0),
        SweepPoint("nasa", 18, 1.0, 3, "balancing", 0.5),
    ]
    seeds = (0, 1)
    cells = tuple((i, si) for i in range(2) for si in range(2))
    delays = ChaosConfig(delay_cells=cells, delay_s=0.35)
    with injecting(delays, points, seeds, chaos_dir):
        run_sweep_outcome(
            points,
            seeds,
            checkpoint_dir=checkpoint_dir,
            retry=RetryPolicy(),
            sleep=lambda seconds: None,
        )
    print("COMPLETED-UNINTERRUPTED")
    """
)


@pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal semantics required",
)
class TestSigintMidSweep:
    def test_interrupt_leaves_only_valid_cells_then_resumes(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        child = subprocess.Popen(
            [
                sys.executable, "-c", _CHILD,
                str(checkpoint_dir), str(tmp_path / "chaos"),
            ],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            # Wait until at least two cells are durably checkpointed,
            # then interrupt while later cells are still in flight.
            cells_dir = checkpoint_dir / "cells"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done = (
                    [
                        p
                        for p in cells_dir.iterdir()
                        if p.suffix == ".json"
                        and not p.name.startswith(TMP_PREFIX)
                    ]
                    if cells_dir.is_dir()
                    else []
                )
                if len(done) >= 2:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("child never checkpointed two cells")
            child.send_signal(signal.SIGINT)
            stdout, stderr = child.communicate(timeout=60)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup path
                child.kill()
                child.communicate()

        if b"COMPLETED-UNINTERRUPTED" in stdout:
            pytest.skip("sweep finished before the interrupt landed")
        assert child.returncode != 0, stderr.decode()

        # The durability contract: every file present is a complete,
        # checksum-valid cell; interrupts never leave temp files behind.
        store = CellStore(checkpoint_dir)
        assert store.validate() == [], stderr.decode()
        n_checkpointed = len(store)
        assert 2 <= n_checkpointed < 4
        leftovers = [
            p.name
            for p in store.cells_dir.iterdir()
            if p.name.startswith(TMP_PREFIX)
        ]
        assert leftovers == []

        # And the point of it all: resuming completes the sweep with
        # results bitwise identical to an uninterrupted serial run.
        from repro.experiments.sweep import SweepPoint

        points = [
            SweepPoint("nasa", 15, 1.0, 2, "krevat", 0.0),
            SweepPoint("nasa", 18, 1.0, 3, "balancing", 0.5),
        ]
        seeds = (0, 1)
        ref = run_sweep(points, seeds, workers=1)
        sweep_mod._result_cache.clear()
        resumed = run_sweep_outcome(
            points,
            seeds,
            checkpoint_dir=checkpoint_dir,
            retry=RetryPolicy(),
            sleep=no_sleep,
        )
        assert resumed.complete
        assert resumed.results == ref
        assert resumed.stats.checkpoint_hits == n_checkpointed
