"""Tests for the bursty failure generator, rescaling and mapping."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FailureModelError
from repro.failures.events import FailureEvent, FailureLog
from repro.failures.mapping import map_node_ids
from repro.failures.scaling import rescale_failures
from repro.failures.synthetic import (
    BurstFailureModel,
    _neighbourhood,
    generate_failures,
)
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims, manhattan_torus_distance

D = BGL_SUPERNODE_DIMS
HORIZON = 30 * 86_400.0


def generate_failures_per_member(dims, n_events, horizon_s, model, seed):
    """The generator with one scalar jitter draw per burst member and
    the ball built by a coordinate loop: the reference the array forms
    must match bit for bit."""
    rng = np.random.default_rng(seed)
    times: list[float] = []
    nodes: list[int] = []
    t = 0.0
    while len(times) < n_events:
        t += rng.exponential(model.mean_burst_interarrival_s)
        burst_size = rng.geometric(model.burst_size_p)
        centre = dims.coord(int(rng.integers(dims.volume)))
        pool = np.array(
            [
                i
                for i in range(dims.volume)
                if manhattan_torus_distance(dims, centre, dims.coord(i)) <= model.locality_radius
            ],
            dtype=np.int64,
        )
        members = rng.choice(pool, size=min(burst_size, pool.size), replace=False)
        for node in members:
            times.append(t + float(rng.uniform(0.0, model.burst_window_s)))
            nodes.append(int(node))
    times_arr = np.array(times[:n_events])
    nodes_arr = np.array(nodes[:n_events])
    t_max = float(times_arr.max())
    if t_max > 0:
        times_arr = times_arr * ((horizon_s * (1.0 - 1e-9)) / t_max)
    return FailureLog.from_arrays(dims.volume, times_arr, nodes_arr)


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

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "model",
        [
            BurstFailureModel(),
            BurstFailureModel(
                mean_burst_interarrival_s=3600.0, burst_size_p=0.25,
                locality_radius=2, burst_window_s=60.0,
            ),
        ],
        ids=["default", "small-bursts-often"],
    )
    def test_burst_statistics_match_the_model(self, model, seed):
        """The premise of the saturation claim (DESIGN §4), checked on
        the bytes the pins above fix rather than assumed: bursts of
        geometric size, Poisson burst starts, members near each other.

        Bursts are recovered by splitting the sorted log at gaps of at
        least the rescaled window.  Members of one burst lie within one
        window, so a burst is never split; two bursts merge only when
        their epochs are under two windows apart, so at most a share
        ``q`` of bursts are merged.  Every tolerance is ``q`` plus four
        standard errors of the statistic.
        """
        n, horizon = 8192, 1e6
        p, mu, w, r = (
            model.burst_size_p, model.mean_burst_interarrival_s,
            model.burst_window_s, model.locality_radius,
        )
        log = generate_failures(D, n, horizon, model=model, seed=seed)
        # The generator maps its raw span, about (n p) bursts of mean
        # gap mu, onto the horizon; 10 % slack covers the estimate.
        window = 1.1 * w * horizon / (n * p * mu)
        q = 1.0 - math.exp(-2.1 * w / mu)
        starts = np.flatnonzero(np.diff(log.times, prepend=-np.inf) >= window)
        sizes = np.diff(np.append(starts, n))
        bursts = len(sizes)

        # A burst draws min(Geometric(p), ball) members; the ball is
        # large enough that the mean is 1/p to well inside the tolerance.
        ball = len(_neighbourhood(D, 0, r))
        mean = (1.0 - (1.0 - p) ** ball) / p
        assert abs(1.0 / p - mean) < 0.01 / p
        tol = q + 4.0 * math.sqrt(1.0 - p) / math.sqrt(bursts)
        assert abs(sizes.mean() * p - 1.0) < tol, (sizes.mean(), 1.0 / p)

        tail = (1.0 - p) ** 3
        tol = q + 4.0 * math.sqrt(tail * (1.0 - tail) / bursts)
        assert abs(float((sizes >= 4).mean()) - tail) < tol, tail

        # Exponential gaps: coefficient of variation 1, standard error
        # 1/sqrt(m) (delta method on the sample mean and variance).
        gaps = np.diff(log.times[starts])
        cv = float(gaps.std() / gaps.mean())
        assert abs(cv - 1.0) < q + 4.0 / math.sqrt(len(gaps)), cv

        # Members share one ball of radius r, so lie within 2r of each
        # other; only a merged group may hold a pair further apart.
        coords = [D.coord(int(node)) for node in log.nodes]
        spread = 0
        for start, size in zip(starts, sizes):
            members = coords[start:start + size]
            if any(
                manhattan_torus_distance(D, a, b) > 2 * r
                for i, a in enumerate(members) for b in members[i + 1:]
            ):
                spread += 1
        assert spread <= q * bursts + 4.0 * math.sqrt(q * bursts), spread

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "model",
        [
            BurstFailureModel(),
            BurstFailureModel(
                mean_burst_interarrival_s=1800.0, burst_size_p=0.2,
                locality_radius=3, burst_window_s=60.0,
            ),
        ],
        ids=["default", "wide-bursts"],
    )
    def test_one_jitter_draw_per_burst_reads_the_same_stream(self, model, seed):
        """An array draw of a burst's jitters consumes the doubles the
        per-member scalar draws did, in order: equal logs, dtypes too."""
        got = generate_failures(D, 8192, 1e6, model=model, seed=seed)
        ref = generate_failures_per_member(D, 8192, 1e6, model, seed)
        for a, b in ((got.times, ref.times), (got.nodes, ref.nodes)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "model",
        [BurstFailureModel(), BurstFailureModel(burst_size_p=1.0, locality_radius=0)],
        ids=["default", "isolated-p1-r0"],
    )
    @pytest.mark.parametrize(
        "dims", [D, TorusDims(2, 3, 4), TorusDims(1, 1, 1)], ids=lambda d: "x".join(map(str, d.as_tuple()))
    )
    def test_scalar_draws_of_one_member_bursts_read_the_same_stream(self, dims, model):
        """A one-member burst draws its member with ``size=None`` and its
        jitter as a scalar, from the epicentre's entry of one ball table:
        the reference's ``size=1`` array draws, bit for bit."""
        for seed in range(30):
            got = generate_failures(dims, 400, 1e6, model=model, seed=seed)
            ref = generate_failures_per_member(dims, 400, 1e6, model, seed)
            for a, b in ((got.times, ref.times), (got.nodes, ref.nodes)):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "dims", [D, TorusDims(2, 3, 4), TorusDims(1, 1, 1)], ids=lambda d: "x".join(map(str, d.as_tuple()))
    )
    def test_ball_equals_coordinate_loop(self, dims):
        """The broadcast wrapped-distance ball is the coordinate loop's
        list of ids, in the same (linear id) order, for every centre."""
        for radius in range(4):
            for centre_id in range(dims.volume):
                centre = dims.coord(centre_id)
                loop = [
                    i
                    for i in range(dims.volume)
                    if manhattan_torus_distance(dims, centre, dims.coord(i)) <= radius
                ]
                ball = _neighbourhood.__wrapped__(dims, centre_id, radius)
                assert ball.dtype == np.int64
                assert ball.tolist() == loop, (centre_id, radius)

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
