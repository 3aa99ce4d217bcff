"""Shared pytest configuration: hypothesis profiles and the checked engine.

Three example budgets, selected via ``HYPOTHESIS_PROFILE``:

* ``ci`` — fast PR gate (CI sets this).
* ``dev`` — the default: hypothesis's standard 100 examples, no
  deadline (the finders are NumPy-heavy and deadline flakiness helps
  nobody).
* ``thorough`` — 1000 examples for local deep soaks:
  ``HYPOTHESIS_PROFILE=thorough python -m pytest tests/``.

Tests that *pin* an example count (the ≥100-state finder
cross-validation) carry their own ``@settings`` and are unaffected by
the profile.

The ``checked_engine`` fixture runs every simulator that ``simulate``,
``quick_simulate`` or ``SimulationSetup.run`` builds under the full
runtime oracle harness (:func:`tests.oracles.checking`) and yields the
list of those simulators.

The ``inject_faults`` fixture is :func:`tests.chaos.injecting` with a
fresh state directory per call: ``with inject_faults(config, points,
seeds):`` runs the block's sweeps of that grid under the config.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from tests.chaos import injecting
from tests.oracles import checking

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

settings.register_profile("ci", max_examples=25, **_COMMON)
settings.register_profile("dev", max_examples=100, **_COMMON)
settings.register_profile("thorough", max_examples=1000, **_COMMON)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def checked_engine():
    with checking() as built:
        yield built


@pytest.fixture
def inject_faults(tmp_path_factory):
    def inject(config, points, seeds):
        return injecting(config, points, seeds, tmp_path_factory.mktemp("chaos"))

    return inject
