"""Exception hierarchy for the repro package.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause while unit
tests can assert on the precise subclass.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GeometryError(ReproError):
    """Invalid torus geometry: bad dimensions, coordinates or shapes."""


class AllocationError(ReproError):
    """Illegal allocation request (overlap, unknown job, bad partition)."""


class PartitionOverlapError(AllocationError):
    """Attempted to allocate a partition overlapping an occupied node."""


class UnknownJobError(AllocationError):
    """Referenced a job id that holds no allocation on the torus."""


class WorkloadError(ReproError):
    """Malformed workload trace or invalid workload-model parameters."""


class FailureModelError(ReproError):
    """Invalid failure log or failure-generator parameters."""


class PredictionError(ReproError):
    """Invalid predictor configuration or query."""


class SimulationError(ReproError):
    """Inconsistent simulator state or invalid simulation configuration."""


class ExperimentError(ReproError):
    """Invalid experiment specification in the benchmark harness."""


class SWFParseError(WorkloadError, ExperimentError):
    """A Standard Workload Format file could not be parsed.

    Doubles as an :class:`ExperimentError` because a bad trace is an
    experiment-input problem: CLI surfaces that catch experiment errors
    report the offending line number instead of a raw traceback.
    """


class ServeError(ReproError):
    """Scheduler-service failure: bad session state or transport fault."""


class ProtocolError(ServeError):
    """Malformed or unsupported message on the service wire protocol."""


class ResilienceError(ReproError):
    """Invalid resilience configuration (checkpoint store, retry policy)."""


class CellTimeoutError(ResilienceError):
    """A sweep cell exceeded its :class:`~repro.resilience.RetryPolicy`
    per-cell timeout and was aborted; the cell is retried or
    quarantined, never silently dropped."""
