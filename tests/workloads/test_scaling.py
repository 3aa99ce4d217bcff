"""Tests for load scaling and machine fitting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.shapes import schedulable_sizes
from repro.workloads.job import Job, Workload
from repro.workloads.models import NASA_IPSC, SDSC_SP, available_sites, site_model
from repro.workloads.scaling import fit_to_machine, job_log, offered_load, scale_load
from repro.workloads.swf import read_swf, write_swf
from repro.workloads.synthetic import generate_workload
from tests.oracles.workloads import fit_to_machine_replace, scale_load_replace

D = BGL_SUPERNODE_DIMS


def wl(*jobs: Job) -> Workload:
    return Workload("t", 128, tuple(jobs))


class TestScaleLoad:
    def test_identity(self):
        w = wl(Job(0, 0.0, 4, 100.0))
        assert scale_load(w, 1.0) is w

    def test_scales_runtime_and_estimate(self):
        w = wl(Job(0, 0.0, 4, 100.0, 200.0))
        scaled = scale_load(w, 1.2)
        assert scaled[0].runtime == pytest.approx(120.0)
        assert scaled[0].estimate == pytest.approx(240.0)

    def test_arrivals_untouched(self):
        w = wl(Job(0, 50.0, 4, 100.0), Job(1, 80.0, 2, 10.0))
        scaled = scale_load(w, 0.5)
        assert [j.arrival for j in scaled] == [50.0, 80.0]

    def test_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            scale_load(wl(Job(0, 0.0, 1, 1.0)), 0.0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, c):
        """``bgl-sim run --load nan`` used to die deep in the engine."""
        with pytest.raises(WorkloadError, match="load scale"):
            scale_load(wl(Job(0, 0.0, 1, 1.0)), c)

    @given(st.floats(0.5, 1.5))
    def test_offered_load_scales_linearly(self, c):
        w = generate_workload(SDSC_SP, 200, seed=0)
        base = offered_load(w)
        assert offered_load(scale_load(w, c)) == pytest.approx(base * c, rel=1e-9)


class TestOfferedLoad:
    def test_simple_case(self):
        # Two jobs, span 100 s, machine 128: work = 4*50 + 2*100 = 400.
        w = wl(Job(0, 0.0, 4, 50.0), Job(1, 100.0, 2, 100.0))
        assert offered_load(w) == pytest.approx(400.0 / (100.0 * 128))

    def test_zero_span(self):
        assert offered_load(wl(Job(0, 0.0, 4, 50.0))) == 0.0

    def test_bad_machine(self):
        with pytest.raises(WorkloadError):
            offered_load(wl(Job(0, 0.0, 1, 1.0)), machine_nodes=0)


class TestFitToMachine:
    def test_rounds_unschedulable_sizes_up(self):
        w = wl(Job(0, 0.0, 11, 100.0))
        fitted = fit_to_machine(w, D)
        assert fitted[0].size == 12
        assert fitted[0].size in schedulable_sizes(D)

    def test_caps_oversize(self):
        w = Workload("t", 256, (Job(0, 0.0, 256, 100.0),))
        fitted = fit_to_machine(w, D)
        assert fitted[0].size == 128

    def test_schedulable_sizes_untouched(self):
        w = wl(Job(0, 0.0, 16, 100.0), Job(1, 5.0, 3, 50.0))
        fitted = fit_to_machine(w, D)
        assert fitted[0].size == 16
        assert fitted[1].size == 3

    def test_machine_nodes_updated(self):
        w = Workload("t", 256, (Job(0, 0.0, 8, 1.0),))
        assert fit_to_machine(w, D).machine_nodes == 128

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_all_fitted_sizes_schedulable(self, seed):
        w = generate_workload(SDSC_SP, 50, seed=seed)
        fitted = fit_to_machine(w, D)
        valid = set(schedulable_sizes(D))
        for original, job in zip(w, fitted):
            assert job.size in valid
            assert job.size >= min(original.size, 128)


class TestJobLog:
    """``job_log`` is generate (or read) -> ``scale_load`` -> ``fit_to_machine``;
    ``SimulationSetup.build_workload`` and the sweep cells both call it."""

    def test_synthetic_log(self):
        raw = generate_workload(NASA_IPSC, 200, seed=3)
        assert job_log("nasa", 200, 3, 0.5, D) == fit_to_machine(scale_load(raw, 0.5), D)

    def test_trace_file_and_head(self, tmp_path):
        path = tmp_path / "t.swf"
        write_swf(generate_workload(SDSC_SP, 50, seed=1), path)
        want = fit_to_machine(scale_load(read_swf(path).head(20), 1.2), D)
        # The site, count and seed are ignored for a trace file.
        assert job_log("nasa", 7, 9, 1.2, D, swf=str(path), head=20) == want
        assert len(job_log("sdsc", 0, 0, 1.0, D, swf=str(path))) == 50

    def test_setup_and_sweep_cell_build_the_same_log(self):
        from repro.api import SimulationSetup
        from repro.experiments import sweep

        point = sweep.SweepPoint("sdsc", 80, 1.2, 10, "krevat", 0.0)
        sweep._workload_cache.clear()
        cell = sweep._workload_for(point, 4)
        setup = SimulationSetup(site="sdsc", n_jobs=80, load_scale=1.2, seed=4)
        assert cell == setup.build_workload() == job_log("sdsc", 80, 4, 1.2, D)
        assert sweep._workload_for(point, 4) is cell  # cached under its key


def bits(workload: Workload) -> tuple:
    """Every field of every job, floats as ``float.hex``, and the header."""
    return (
        workload.name,
        workload.machine_nodes,
        [
            (j.job_id, j.arrival.hex(), type(j.size), j.size, j.runtime.hex(), j.estimate.hex())
            for j in workload.jobs
        ],
    )


class TestOnePassJobLog:
    """A synthetic ``job_log`` scales and fits the drawn columns before
    it builds a job: the composed functions and their per-job
    references must give the same log, bit for bit."""

    #: BG/L, and a box that rounds (and caps) sizes differently.
    DIMS = (D, TorusDims(3, 5, 7))

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.2])
    @pytest.mark.parametrize("site", available_sites())
    def test_equals_the_composed_functions(self, site, c, dims):
        for seed in range(3):
            for n in (0, 1, 250):
                raw = generate_workload(site_model(site), n, seed=seed)
                got = bits(job_log(site, n, seed, c, dims))
                assert got == bits(fit_to_machine(scale_load(raw, c), dims))
                assert got == bits(fit_to_machine_replace(scale_load_replace(raw, c), dims))

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_invalid_scale_raises_the_same_error(self, c):
        raw = generate_workload(NASA_IPSC, 20, seed=0)
        with pytest.raises(WorkloadError) as composed:
            scale_load(raw, c)
        with pytest.raises(WorkloadError) as one_pass:
            job_log("nasa", 20, 0, c, D)
        assert str(one_pass.value) == str(composed.value)

    def test_a_bad_count_is_refused_before_a_bad_scale(self):
        with pytest.raises(WorkloadError, match="n_jobs must be non-negative"):
            job_log("nasa", -1, 0, math.nan, D)

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_each_job_and_the_log_are_built_once(self, c, monkeypatch):
        built = {Job: 0, Workload: 0}
        for cls in built:
            init = cls.__init__

            def counting(self, *args, _init=init, _cls=cls, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        log = job_log("sdsc", 300, 1, c, TorusDims(3, 5, 7))
        assert len(log) == 300
        assert built == {Job: 300, Workload: 1}
