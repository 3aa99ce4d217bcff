"""Tests for the bursty failure generator, rescaling and mapping."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FailureModelError
from repro.failures.events import FailureEvent, FailureLog
from repro.failures.mapping import map_node_ids
from repro.failures.scaling import failures_for_rate, rescale_failures
from repro.failures.synthetic import (
    BurstFailureModel,
    _neighbourhood,
    generate_failures,
)
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims

D = BGL_SUPERNODE_DIMS
HORIZON = 30 * 86_400.0


class TestBurstFailureModel:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean_burst_interarrival_s=0.0),
            dict(burst_size_p=0.0),
            dict(burst_size_p=1.5),
            dict(locality_radius=-1),
            dict(burst_window_s=-1.0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(FailureModelError):
            BurstFailureModel(**kwargs)


class TestGenerateFailures:
    def test_exact_count_and_horizon(self):
        log = generate_failures(D, 500, HORIZON, seed=0)
        assert len(log) == 500
        assert log.n_nodes == 128
        assert float(log.times.min()) >= 0.0
        assert float(log.times.max()) < HORIZON

    def test_deterministic(self):
        a = generate_failures(D, 200, HORIZON, seed=7)
        b = generate_failures(D, 200, HORIZON, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.nodes, b.nodes)

    def test_zero_events(self):
        assert len(generate_failures(D, 0, HORIZON, seed=0)) == 0

    def test_validation(self):
        with pytest.raises(FailureModelError):
            generate_failures(D, -1, HORIZON)
        with pytest.raises(FailureModelError):
            generate_failures(D, 10, 0.0)

    def test_temporal_clustering_present(self):
        """Bursty traces have far more tight same-window pairs than a
        Poisson process of the same rate would."""
        log = generate_failures(
            D, 1000, HORIZON, model=BurstFailureModel(burst_size_p=0.3), seed=1
        )
        gaps = np.diff(log.times)
        tight = float((gaps < 300.0).mean())
        # Poisson with 1000 events / 30 days: P(gap < 300 s) ~ 0.11.
        assert tight > 0.4

    def test_isolated_failures_mode(self):
        model = BurstFailureModel(burst_size_p=1.0, locality_radius=0, burst_window_s=0.0)
        log = generate_failures(D, 300, HORIZON, model=model, seed=2)
        assert len(log) == 300

    def test_spatial_locality(self):
        """Within a tight time window, failing nodes concentrate near
        each other (Manhattan distance bounded by the model radius)."""
        from repro.geometry.coords import manhattan_torus_distance

        model = BurstFailureModel(burst_size_p=0.25, locality_radius=1, burst_window_s=10.0)
        log = generate_failures(D, 400, HORIZON, model=model, seed=3)
        # Consecutive events closer than 10s come from one burst.
        for i in range(len(log) - 1):
            if log.times[i + 1] - log.times[i] < 1.0:
                a = D.coord(int(log.nodes[i]))
                b = D.coord(int(log.nodes[i + 1]))
                assert manhattan_torus_distance(D, a, b) <= 2

    @pytest.mark.parametrize(
        "model, seed, digest",
        [
            (
                None, 1,
                "2fe8f984b5774100437ef1cc7c117e0c87641dc59616159098dc35cb64b84db3",
            ),
            (
                BurstFailureModel(
                    mean_burst_interarrival_s=1800.0, burst_size_p=0.2,
                    locality_radius=3, burst_window_s=60.0,
                ),
                7,
                "8159899bbcec3ad739c98b9b7e74728e0b500de038a973a492c8b527cc291063",
            ),
        ],
    )
    def test_output_bytes_pinned(self, model, seed, digest):
        """The generator's RNG stream is part of every result byte
        downstream; digests recorded before the balls were memoised."""
        log = generate_failures(D, 8192, 1e6, model=model, seed=seed)
        got = hashlib.sha256(log.times.tobytes() + log.nodes.tobytes())
        assert got.hexdigest() == digest

    def test_memoised_ball_is_read_only_and_shared(self):
        ball = _neighbourhood(D, 5, 2)
        assert ball is _neighbourhood(D, 5, 2)
        with pytest.raises(ValueError):
            ball[0] = 99


class TestRescale:
    def test_thin_to_count(self):
        log = generate_failures(D, 1000, HORIZON, seed=0)
        small = rescale_failures(log, 100, seed=1)
        assert len(small) == 100
        # Thinned events are a subset of the original times.
        assert set(np.round(small.times, 6)) <= set(np.round(log.times, 6))

    def test_identity(self):
        log = generate_failures(D, 100, HORIZON, seed=0)
        assert rescale_failures(log, 100) is log

    def test_to_zero(self):
        log = generate_failures(D, 100, HORIZON, seed=0)
        assert len(rescale_failures(log, 0)) == 0

    def test_grow(self):
        log = generate_failures(D, 100, HORIZON, seed=0)
        big = rescale_failures(log, 350, seed=2)
        assert len(big) == 350

    def test_grow_empty_rejected(self):
        with pytest.raises(FailureModelError):
            rescale_failures(FailureLog(128), 10)

    def test_nested_thinning_monotone_mean_rate(self):
        log = generate_failures(D, 2000, HORIZON, seed=0)
        for n in (1500, 1000, 500):
            assert len(rescale_failures(log, n, seed=5)) == n


class TestFailuresForRate:
    def test_basic(self):
        # 0.25 failures/node/day on 128 nodes for 4 days = 128 events.
        assert failures_for_rate(0.25, 128, 4 * 86_400.0) == 128

    def test_validation(self):
        with pytest.raises(FailureModelError):
            failures_for_rate(-1.0, 128, 100.0)
        with pytest.raises(FailureModelError):
            failures_for_rate(1.0, 0, 100.0)


class TestMapping:
    def test_remaps_onto_torus(self):
        src = FailureLog(350, [FailureEvent(float(i), i % 350) for i in range(700)])
        mapped = map_node_ids(src, D, seed=0)
        assert mapped.n_nodes == 128
        assert len(mapped) == 700
        assert int(mapped.nodes.max()) < 128

    def test_stable_per_external_id(self):
        src = FailureLog(350, [FailureEvent(0.0, 42), FailureEvent(99.0, 42)])
        mapped = map_node_ids(src, D, seed=1)
        assert mapped.nodes[0] == mapped.nodes[1]

    def test_deterministic_by_seed(self):
        src = FailureLog(350, [FailureEvent(float(i), i) for i in range(350)])
        a = map_node_ids(src, D, seed=3)
        b = map_node_ids(src, D, seed=3)
        assert np.array_equal(a.nodes, b.nodes)

    def test_balanced(self):
        src = FailureLog(350, [FailureEvent(float(i), i) for i in range(350)])
        mapped = map_node_ids(src, D, seed=0)
        counts = np.bincount(mapped.nodes, minlength=128)
        assert counts.max() <= int(np.ceil(350 / 128))

    def test_empty(self):
        assert len(map_node_ids(FailureLog(350), D)) == 0
