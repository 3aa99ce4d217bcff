"""High-level one-call entry points.

These wrap the full pipeline — synthesize (or load) a workload, generate
a matched failure log, build a policy, run the simulator — behind two
functions; the CLI and the service build on the same
:class:`SimulationSetup`.  Sweep cells have their own builder (DESIGN.md,
"Entry surface", says why the two cannot be one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError, WorkloadError
from repro.core.config import SimulationConfig
from repro.core.policies.registry import make_policy
from repro.core.simulator import Simulator
from repro.failures.events import FailureLog
from repro.failures.synthetic import BurstFailureModel, failure_horizon_s, generate_failures
from repro.metrics.report import SimulationReport
from repro.prediction.base import PartitionFailureRule
from repro.workloads.job import Workload
from repro.workloads.scaling import job_log


@dataclass(frozen=True)
class SimulationSetup:
    """A fully-specified experiment point.

    Parameters mirror the paper's sweep axes: workload site, job count,
    load scale ``c``, failure count, policy and its prediction parameter
    ``a`` (confidence for balancing, accuracy for tie-break).  With
    ``swf`` the job log is that trace file (its first ``head`` jobs when
    nonzero) instead of a ``site`` draw of ``n_jobs``; ``c`` scales it
    the same way.  One seeding convention for every source: workload
    ``seed``, failures ``seed + 1``, policy ``seed + 2``.
    """

    site: str = "sdsc"
    n_jobs: int = 1000
    load_scale: float = 1.0
    n_failures: int = 1000
    policy: str = "balancing"
    parameter: float = 0.0
    pf_rule: PartitionFailureRule = PartitionFailureRule.MAX
    seed: int = 0
    failure_model: BurstFailureModel = field(default_factory=BurstFailureModel)
    config: SimulationConfig = field(default_factory=SimulationConfig)
    swf: str | None = None
    head: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        if self.head < 0:
            raise WorkloadError(f"head must be non-negative, got {self.head}")

    def build_workload(self) -> Workload:
        """Synthesize (or read), load-scale and machine-fit the workload."""
        return job_log(self.site, self.n_jobs, self.seed, self.load_scale,
                       self.config.dims, self.swf, self.head)  # fmt: skip

    def build_failures(self, workload: Workload) -> FailureLog:
        """Failure log spanning the workload (plus tail slack for jobs
        still running after the last arrival)."""
        return generate_failures(
            self.config.dims,
            self.n_failures,
            failure_horizon_s(workload.span),
            model=self.failure_model,
            seed=self.seed + 1,  # decorrelated from the workload draw
        )

    def build_inputs(self):
        """``(workload, failure log, policy)`` under this setup's seeding
        conventions — the positional arguments of a simulator."""
        workload = self.build_workload()
        failures = self.build_failures(workload)
        policy = make_policy(
            self.policy,
            failure_log=failures,
            parameter=self.parameter,
            pf_rule=self.pf_rule,
            seed=self.seed + 2,
        )
        return workload, failures, policy

    def build_simulator(self, recorder=None) -> Simulator:
        """Assemble the full pipeline into a ready-to-run simulator.

        Exposed so callers that need the engine's observability surfaces
        (``Simulator.recorder``, ``Simulator.metrics``) — the traced CLI
        run, the obs test suites — share the exact seeding conventions
        of :meth:`run`.
        """
        return Simulator(*self.build_inputs(), self.config, recorder=recorder)

    def run(self) -> SimulationReport:
        """Execute this experiment point."""
        report = self.build_simulator().run()
        report.parameters.update(
            site=self.site,
            n_jobs=self.n_jobs,
            load_scale=self.load_scale,
            parameter=self.parameter,
            seed=self.seed,
        )
        return report


def run_simulation(setup: SimulationSetup) -> SimulationReport:
    """Run one fully-specified experiment point."""
    return setup.run()


def quick_simulate(
    site: str = "sdsc",
    n_jobs: int = 500,
    n_failures: int = 500,
    policy: str = "balancing",
    confidence: float = 0.1,
    load_scale: float = 1.0,
    seed: int = 0,
    config: SimulationConfig | None = None,
) -> SimulationReport:
    """One-liner used by the README quickstart.

    ``confidence`` is the paper's ``a`` (accuracy when
    ``policy='tiebreak'``, ignored by ``'krevat'``).
    """
    if n_jobs < 0 or n_failures < 0:
        raise SimulationError("n_jobs and n_failures must be >= 0")
    setup = SimulationSetup(
        site=site,
        n_jobs=n_jobs,
        n_failures=n_failures,
        policy=policy,
        parameter=confidence,
        load_scale=load_scale,
        seed=seed,
        config=config or SimulationConfig(),
    )
    return setup.run()


def serve(setup: SimulationSetup | None = None, **engine_kwargs):
    """Build a ready-to-serve scheduler engine for ``setup``.

    The engine runs the same pipeline as :meth:`SimulationSetup.run`
    against an open-ended arrival stream: pair it with
    :func:`connect` for in-process use, or hand it to
    :class:`repro.serve.SchedulerService` /
    :func:`repro.serve.service.run_service` to expose it over TCP or a
    unix socket.  Keyword arguments (``clock``, ``weights``,
    ``tenant_cap``, ``engine_cap``, ``pump_interval``, ``recorder``)
    pass through to :class:`repro.serve.ServeEngine`.
    """
    from repro.serve.engine import ServeEngine

    return ServeEngine.from_setup(setup or SimulationSetup(), **engine_kwargs)


def connect(target, timeout: float = 30.0):
    """Open a scheduler-service client.

    ``target`` may be a ``host:port`` string, a unix-socket path, or an
    engine built by :func:`serve` (zero-transport in-process client).
    """
    from repro.serve.client import connect as _connect

    return _connect(target, timeout=timeout)
