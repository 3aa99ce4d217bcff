"""Shared fixtures for the resilience suite.

Every test here runs sweeps, so the module-level sweep caches are
isolated exactly as in ``tests/experiments`` (small master failure logs,
cleared memo caches).  The grids are deliberately tiny — resilience
semantics are about *which* cells run and what survives, not about
simulation scale.
"""

from __future__ import annotations

import pytest

import repro.experiments.pool as pool_mod
import repro.experiments.sweep as sweep_mod
from repro.experiments.parallel import fork_available
from repro.experiments.sweep import SweepPoint
from repro.resilience import RetryPolicy

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@pytest.fixture(autouse=True)
def small_master_log(monkeypatch):
    """Shrink master failure logs and isolate every sweep-level cache."""
    monkeypatch.setattr(sweep_mod, "MASTER_FAILURE_COUNT", 64)
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()
    yield
    sweep_mod._result_cache.clear()
    sweep_mod._master_log_cache.clear()


@pytest.fixture(autouse=True)
def fresh_pool():
    """Fork the warm pool *after* the test's patches land.

    Pooled sweeps — resilient ones included — run on the process-wide
    warm pool: workers forked by an earlier test predate this test's
    monkeypatching (shrunken master logs, ``os._exit`` cells) and would
    compute cells from the unpatched image.  Shutting down on both
    sides forces the fork to inherit the patch and keeps a poisoned
    image out of later tests.
    """
    pool_mod.shutdown_warm_pool()
    yield
    pool_mod.shutdown_warm_pool()


@pytest.fixture
def grid():
    """Two points x two seeds: four cells, two policies."""
    points = [
        SweepPoint("nasa", 15, 1.0, 2, "krevat", 0.0),
        SweepPoint("nasa", 18, 1.0, 3, "balancing", 0.5),
    ]
    return points, (0, 1)


def no_sleep(seconds: float) -> None:
    """A backoff clock that returns at once (deterministic tests stay fast)."""


@pytest.fixture
def fast_retry():
    """Sweep options: the default RetryPolicy, its backoffs not slept."""
    return dict(retry=RetryPolicy(), sleep=no_sleep)
