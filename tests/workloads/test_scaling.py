"""Tests for load scaling and machine fitting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.geometry.coords import BGL_SUPERNODE_DIMS
from repro.geometry.shapes import schedulable_sizes
from repro.workloads.job import Job, Workload
from repro.workloads.models import SDSC_SP
from repro.workloads.scaling import fit_to_machine, offered_load, scale_load
from repro.workloads.synthetic import generate_workload

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
