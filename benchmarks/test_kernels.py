"""Microbenchmarks of the scheduler's hot kernels.

Not a paper figure — these guard the performance engineering that makes
the figure sweeps tractable (integral-image window sums, incremental
MFP queries, full scheduler passes).
"""

from __future__ import annotations

import numpy as np

from repro.allocation import PlacementIndex
from repro.core.config import SimulationConfig
from repro.core.policies import KrevatPolicy
from repro.core.simulator import Simulator
from repro.failures.events import FailureLog
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus, circular_window_sum, wrap_pad_integral
from repro.workloads.models import SDSC_SP
from repro.workloads.scaling import fit_to_machine
from repro.workloads.synthetic import generate_workload
from tests.oracles import ReferencePlacementIndex

D = BGL_SUPERNODE_DIMS


def loaded_torus(fill: float = 0.5, seed: int = 0) -> Torus:
    """Each node busy with probability ``fill``, as one 1x1x1 job: the
    production index reads the allocation map, not the grid."""
    t = Torus(D)
    rng = np.random.default_rng(seed)
    for node in np.flatnonzero(rng.random(D.as_tuple()) < fill).tolist():
        x, y, z = np.unravel_index(node, D.as_tuple())
        t.allocate(node, Partition((int(x), int(y), int(z)), (1, 1, 1)))
    return t


def test_wrap_pad_integral(benchmark):
    grid = (loaded_torus().grid != -1).astype(np.int64)
    benchmark(wrap_pad_integral, grid)


def test_circular_window_sum(benchmark):
    grid = (loaded_torus().grid != -1).astype(np.int64)
    benchmark(circular_window_sum, grid, (2, 4, 8))


def test_placement_index_build(benchmark):
    torus = loaded_torus()
    benchmark(PlacementIndex, torus)


def test_mfp_size(benchmark):
    torus = loaded_torus()

    def run():
        return PlacementIndex(torus).mfp_size()

    assert benchmark(run) > 0


def test_mfp_excluding(benchmark):
    """The reference's scalar walk, one candidate at a time."""
    torus = loaded_torus(0.3)
    index = ReferencePlacementIndex(torus)
    candidates = index.candidates(8)
    index.mfp_size()

    def run():
        return [index.mfp_excluding(p) for p in candidates[:16]]

    benchmark(run)


def test_small_simulation_end_to_end(benchmark):
    """Whole-pipeline cost: 100 jobs, no failures, Krevat."""
    workload = fit_to_machine(generate_workload(SDSC_SP, 100, seed=0), D)
    log = FailureLog(D.volume)

    def run():
        return Simulator(workload, log, KrevatPolicy(), SimulationConfig()).run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.timing.n_jobs == 100
