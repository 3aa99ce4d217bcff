"""repro — reproduction of *Fault-Aware Job Scheduling for BlueGene/L Systems*.

This package implements, from scratch, the complete simulation system of
Oliner, Sahoo, Moreira, Gupta and Sivasubramaniam (IPPS 2004):

* a 3-D torus machine model (the scheduler's 4x4x8 view of BlueGene/L in
  512-node *supernodes*) — :mod:`repro.geometry`;
* three free-partition finders (naive exhaustive, Krevat-style POP dynamic
  programming, and the paper's divisor-driven fast finder) plus maximal
  free partition (MFP) computation — :mod:`repro.allocation`;
* workload models: a Standard Workload Format (SWF) reader/writer and
  synthetic generators for the NASA iPSC/860, SDSC SP and LLNL Cray T3D
  logs used by the paper — :mod:`repro.workloads`;
* failure models: failure logs, a bursty spatially-correlated synthetic
  failure generator, and count rescaling — :mod:`repro.failures`;
* the paper's two fault predictors (balancing/confidence and
  tie-breaking/accuracy) — :mod:`repro.prediction`;
* an event-driven space-sharing scheduler simulator with FCFS queueing,
  backfilling, migration and transient-failure restart semantics, and the
  three scheduling policies (Krevat baseline, balancing, tie-breaking) —
  :mod:`repro.core`;
* timing and capacity metrics (bounded slowdown, utilization integrals) —
  :mod:`repro.metrics`;
* checkpointing (the paper's future-work extension) —
  :mod:`repro.checkpoint`;
* the experiment harness regenerating every figure of the evaluation —
  :mod:`repro.experiments`.

Quickstart
----------
>>> from repro import quick_simulate
>>> report = quick_simulate(site="sdsc", n_jobs=200, n_failures=50,
...                         policy="balancing", confidence=0.1, seed=0)
>>> 0.0 <= report.capacity.utilized <= 1.0
True
"""

from __future__ import annotations

from typing import Any

from repro._version import __version__

__all__ = [
    "__version__",
    "quick_simulate",
    "SimulationSetup",
]


def __getattr__(name: str) -> Any:
    # Lazy re-exports: keep `import repro.geometry` cheap and cycle-free
    # while still offering the one-line entry points at package top level.
    if name in ("quick_simulate", "SimulationSetup"):
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
