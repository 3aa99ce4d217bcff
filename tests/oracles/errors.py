"""The errors the oracles raise.

They derive from :class:`~repro.errors.ReproError`, like every error of
the package whose runs they check, so one ``except ReproError`` still
catches a failed check.
"""

from __future__ import annotations

from repro.errors import ReproError


class OracleError(ReproError):
    """A runtime correctness oracle detected a violation of a simulator
    invariant."""


class InvariantViolationError(OracleError):
    """Machine state disagrees with itself: occupancy grid, allocation
    map, free counts or event ordering are inconsistent."""


class CrossValidationError(OracleError):
    """Two independent implementations that must agree produced
    different answers (e.g. the three partition finders)."""
