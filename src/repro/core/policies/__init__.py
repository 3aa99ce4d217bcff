"""Placement policies: Krevat baseline, balancing and tie-breaking."""

from __future__ import annotations

from repro.core.policies.base import SchedulingPolicy
from repro.core.policies.krevat import KrevatPolicy
from repro.core.policies.balancing import BalancingPolicy
from repro.core.policies.tiebreak import TieBreakPolicy
from repro.core.policies.registry import make_policy

__all__ = [
    "SchedulingPolicy",
    "KrevatPolicy",
    "BalancingPolicy",
    "TieBreakPolicy",
    "make_policy",
]
