"""The job-log layer against its per-job references.

``repro.workloads`` draws sizes in bulk, writes SWF records from one
template and copies jobs without ``dataclasses.replace``;
``tests.oracles.workloads`` keeps the per-job forms.  Every size, every
generator state after the draw, every SWF byte and every job must be
the same.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.workloads import synthetic
from repro.workloads.job import Job, Workload
from repro.workloads.models import LLNL_T3D, NASA_IPSC, SDSC_SP, SiteModel
from repro.workloads.scaling import fit_to_machine, scale_load
from repro.workloads.swf import read_swf, write_swf
from repro.workloads.synthetic import _draw_sizes, generate_workload
from tests.oracles.workloads import (
    draw_sizes_per_job,
    fit_to_machine_replace,
    scale_load_replace,
    write_swf_per_field,
)

SITES = (NASA_IPSC, SDSC_SP, LLNL_T3D)
SEEDS = range(5)
DIMS = (BGL_SUPERNODE_DIMS, TorusDims(2, 3, 4), TorusDims(1, 1, 1), TorusDims(3, 5, 7))


def model(**overrides) -> SiteModel:
    fields = dict(
        name="drawn", machine_nodes=128, mean_interarrival_s=100.0,
        diurnal_amplitude=0.5, p_power_of_two=0.6, p_unit_job=0.3, min_size=1,
        max_size=128, size_divisor=1, runtime_log_mean=3.0, runtime_log_sigma=1.0,
        max_runtime_s=3600.0, p_exact_estimate=0.3, estimate_factor_log_sigma=0.5,
    )  # fmt: skip
    return SiteModel(**{**fields, **overrides})


@st.composite
def site_models(draw) -> SiteModel:
    lo = draw(st.integers(1, 70))
    return model(
        min_size=lo,
        max_size=draw(st.integers(lo, 300)),
        p_unit_job=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        p_power_of_two=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        size_divisor=draw(st.integers(1, 4)),
    )


def assert_same_draw(m: SiteModel, n: int, seed: int) -> None:
    bulk, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _draw_sizes(m, n, bulk), draw_sizes_per_job(m, n, ref)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert bulk.bit_generator.state == ref.bit_generator.state
    assert bulk.random(3).tolist() == ref.random(3).tolist()


# PCG64 (``default_rng``'s bit generator): state' = M * state + inc, and
# the output is the XSL-RR of state'; a double is ``(output >> 11) / 2**53``.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MASK = (1 << 128) - 1


def generator_yielding(u: float, ahead: int) -> np.random.Generator:
    """A PCG64 generator whose draw number ``ahead`` (from 0) is ``u``."""
    mantissa = int(u * 2.0**53)
    assert mantissa / 2.0**53 == u and 0 <= u < 1
    # Top six bits 0 (no rotation) and high word 0: the output is the low word.
    state = mantissa << 11
    for _ in range(ahead + 1):
        state = ((state - 1) * pow(_PCG_MULT, -1, 1 << 128)) & _PCG_MASK
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": 1},
        "has_uint32": 0, "uinteger": 0,
    }  # fmt: skip
    return rng


class TestBulkSizeDraw:
    @pytest.mark.parametrize("n", [0, 1, 7, 300, 3000])
    @pytest.mark.parametrize("site", SITES, ids=lambda m: m.name)
    def test_sizes_and_the_next_draw_match_the_per_job_draw(self, site, n):
        for seed in SEEDS:
            assert_same_draw(site, n, seed)

    @given(m=site_models(), n=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
    @example(m=model(p_unit_job=0.0), n=40, seed=1)
    @example(m=model(p_unit_job=1.0, min_size=3), n=40, seed=2)  # drawn, then not taken
    @example(m=model(min_size=5, max_size=7, p_power_of_two=1.0), n=40, seed=3)
    @example(m=model(p_unit_job=0.0, min_size=8, max_size=256, size_divisor=2), n=40, seed=4)
    @settings(max_examples=60, deadline=None)
    def test_drawn_site_models(self, m, n, seed):
        assert_same_draw(m, n, seed)

    def test_a_power_of_two_pick_on_each_cdf_knot(self):
        """``choice(p=...)`` picks with ``cdf.searchsorted(u, "right")`` on
        the normalised CDF; a double exactly on a knot, or one below it,
        must pick what it picks.  LLNL's six powers have a raw CDF
        ending at 1 + 2**-52, so every knot moves without the
        normalisation."""
        weights = 1.0 / np.arange(1, 7)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        doubles = [
            float(u) for knot in cdf for u in (knot, np.nextafter(knot, 0.0))
            if u < 1.0 and u * 2.0**53 == int(u * 2.0**53)
        ]  # fmt: skip
        assert len(doubles) >= 8
        for u in doubles:  # draw 0 is the power-of-two test, draw 1 the pick
            got = _draw_sizes(LLNL_T3D, 1, generator_yielding(u, 1))
            assert got.tolist() == draw_sizes_per_job(LLNL_T3D, 1, generator_yielding(u, 1)).tolist()

    @pytest.mark.parametrize("site", SITES, ids=lambda m: m.name)
    def test_generate_workload_is_the_per_job_draws(self, site, monkeypatch):
        bulk = [generate_workload(site, n, seed) for n in (0, 1, 300) for seed in SEEDS]
        monkeypatch.setattr(synthetic, "_draw_sizes", draw_sizes_per_job)
        assert bulk == [generate_workload(site, n, seed) for n in (0, 1, 300) for seed in SEEDS]


jobs = st.builds(
    Job,
    job_id=st.integers(0, 10**9),
    arrival=st.floats(0.0, 1e9) | st.integers(0, 10**6).map(lambda k: k + 0.5),
    size=st.integers(1, 300),
    runtime=st.floats(1e-3, 1e7) | st.integers(1, 10**6).map(lambda k: k - 0.5),
    estimate=st.floats(1e-3, 1e7),
)
workloads = st.builds(
    Workload,
    name=st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
    machine_nodes=st.integers(1, 512),
    jobs=st.lists(jobs, max_size=30, unique_by=lambda j: j.job_id).map(tuple),
)


class TestSwfWriter:
    def test_generated_logs_are_byte_equal(self, tmp_path):
        for site in SITES:
            for seed in SEEDS:
                w = fit_to_machine(scale_load(generate_workload(site, 300, seed), 0.5),
                                   BGL_SUPERNODE_DIMS)  # fmt: skip
                path = tmp_path / f"{site.name}_{seed}.swf"
                assert write_swf(w, path) == write_swf_per_field(w)
                assert path.read_text(encoding="utf-8") == write_swf_per_field(w)
                assert write_swf(read_swf(path)) == write_swf_per_field(read_swf(path))

    @given(w=workloads)
    @settings(max_examples=60, deadline=None)
    def test_drawn_workloads_are_byte_equal(self, w):
        assert write_swf(w) == write_swf_per_field(w)

    def test_empty_workload(self):
        w = Workload("empty", 4, ())
        assert write_swf(w) == write_swf_per_field(w)


class TestJobCopies:
    @pytest.mark.parametrize("c", [0.5, 1.0, 1.2, 3.0])
    def test_scale_load_matches_replace(self, c):
        for site in SITES:
            for seed in SEEDS:
                w = generate_workload(site, 300, seed)
                assert scale_load(w, c) == scale_load_replace(w, c)

    @pytest.mark.parametrize("dims", DIMS, ids=str)
    def test_fit_to_machine_matches_replace(self, dims):
        for site in SITES:
            for seed in SEEDS:
                w = scale_load(generate_workload(site, 300, seed), 1.2)
                fitted, want = fit_to_machine(w, dims), fit_to_machine_replace(w, dims)
                assert fitted == want
                assert [type(j.size) for j in fitted] == [int] * len(fitted)

    @given(w=workloads, c=st.floats(1e-3, 1e3), dims=st.sampled_from(DIMS))
    @settings(max_examples=60, deadline=None)
    def test_drawn_workloads(self, w, c, dims):
        assert scale_load(w, c) == scale_load_replace(w, c)
        assert fit_to_machine(w, dims) == fit_to_machine_replace(w, dims)
