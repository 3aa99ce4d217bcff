"""Name-based policy construction shared by the CLI and harness."""

from __future__ import annotations

from repro.errors import SimulationError
from repro.failures.events import FailureLog
from repro.prediction.balancing import BalancingPredictor
from repro.prediction.base import PartitionFailureRule
from repro.prediction.tiebreak import TieBreakPredictor
from repro.core.policies.base import SchedulingPolicy
from repro.core.policies.krevat import KrevatPolicy
from repro.core.policies.balancing import BalancingPolicy
from repro.core.policies.tiebreak import TieBreakPolicy

_POLICY_NAMES = ("krevat", "balancing", "tiebreak")


def make_policy(
    name: str,
    failure_log: FailureLog | None = None,
    parameter: float = 0.0,
    pf_rule: PartitionFailureRule = PartitionFailureRule.MAX,
    seed: int | None = 0,
) -> SchedulingPolicy:
    """Build a policy by name.

    ``parameter`` is the paper's ``a``: prediction *confidence* for
    ``balancing``, *accuracy* for ``tiebreak``; ignored by ``krevat``.
    The fault-aware policies require ``failure_log``.
    """
    key = name.lower()
    if key == "krevat":
        return KrevatPolicy()
    if key in ("balancing", "tiebreak") and failure_log is None:
        raise SimulationError(f"policy {name!r} requires a failure log")
    if key == "balancing":
        return BalancingPolicy(BalancingPredictor(failure_log, parameter, pf_rule))
    if key == "tiebreak":
        return TieBreakPolicy(TieBreakPredictor(failure_log, parameter, seed))
    raise SimulationError(
        f"unknown policy {name!r}; available: {', '.join(_POLICY_NAMES)}"
    )
