"""Unit and property tests for divisor/shape enumeration."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.shapes import (
    all_shapes,
    divisors,
    round_to_schedulable,
    schedulable_sizes,
    shapes_for_size,
)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, (1,)),
            (2, (1, 2)),
            (12, (1, 2, 3, 4, 6, 12)),
            (13, (1, 13)),
            (36, (1, 2, 3, 4, 6, 9, 12, 18, 36)),
            (128, (1, 2, 4, 8, 16, 32, 64, 128)),
        ],
    )
    def test_known_values(self, n, expected):
        assert divisors(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(GeometryError):
            divisors(0)

    @given(st.integers(1, 2000))
    def test_every_divisor_divides(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n
        assert list(ds) == sorted(set(ds))

    @given(st.integers(1, 500))
    def test_num_divisors_matches_bruteforce(self, n):
        assert len(divisors(n)) == sum(1 for d in range(1, n + 1) if n % d == 0)


class TestShapesForSize:
    def test_volume_invariant(self):
        for s in range(1, 129):
            for shape in shapes_for_size(s, BGL_SUPERNODE_DIMS):
                assert shape[0] * shape[1] * shape[2] == s
                assert BGL_SUPERNODE_DIMS.fits_shape(shape)

    def test_full_machine_single_shape(self):
        assert shapes_for_size(128, BGL_SUPERNODE_DIMS) == ((4, 4, 8),)

    def test_unit_shape(self):
        assert shapes_for_size(1, BGL_SUPERNODE_DIMS) == ((1, 1, 1),)

    def test_oriented_shapes_distinct(self):
        shapes = set(shapes_for_size(8, BGL_SUPERNODE_DIMS))
        assert (1, 1, 8) in shapes
        assert (2, 4, 1) in shapes
        assert (4, 2, 1) in shapes

    def test_unschedulable_prime(self):
        # 11 is prime and > 8, so no shape fits the 4x4x8 view.
        assert shapes_for_size(11, BGL_SUPERNODE_DIMS) == ()

    def test_matches_bruteforce_on_bgl(self):
        d = BGL_SUPERNODE_DIMS
        for s in (2, 6, 16, 24, 64, 100):
            brute = {
                (a, b, c)
                for a in range(1, d.x + 1)
                for b in range(1, d.y + 1)
                for c in range(1, d.z + 1)
                if a * b * c == s
            }
            assert set(shapes_for_size(s, d)) == brute

    def test_rejects_nonpositive_size(self):
        with pytest.raises(GeometryError):
            shapes_for_size(0, BGL_SUPERNODE_DIMS)


class TestAllShapes:
    def test_count_on_bgl(self):
        assert len(all_shapes(BGL_SUPERNODE_DIMS)) == 4 * 4 * 8

    def test_sorted_by_decreasing_volume(self):
        vols = [a * b * c for a, b, c in all_shapes(BGL_SUPERNODE_DIMS)]
        assert vols == sorted(vols, reverse=True)
        assert vols[0] == 128

    @given(st.builds(TorusDims, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
    def test_all_fit(self, d):
        for shape in all_shapes(d):
            assert d.fits_shape(shape)


class TestSchedulableSizes:
    def test_contains_powers_of_two(self):
        sizes = schedulable_sizes(BGL_SUPERNODE_DIMS)
        for s in (1, 2, 4, 8, 16, 32, 64, 128):
            assert s in sizes

    def test_excludes_large_primes(self):
        sizes = schedulable_sizes(BGL_SUPERNODE_DIMS)
        assert 11 not in sizes
        assert 127 not in sizes

    @given(st.builds(TorusDims, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))
    def test_memoised_per_dims_and_equal_to_definition(self, d):
        sizes = schedulable_sizes(d)
        assert schedulable_sizes(TorusDims(*d.as_tuple())) is sizes
        assert sizes == tuple(sorted({a * b * c for a, b, c in all_shapes(d)}))
        assert sizes[-1] == d.volume
        # Every size up to the machine rounds to its first size above.
        for s in range(1, d.volume + 1):
            assert round_to_schedulable(s, d) == min(t for t in sizes if t >= s)

    def test_round_to_schedulable(self):
        d = BGL_SUPERNODE_DIMS
        assert round_to_schedulable(1, d) == 1
        assert round_to_schedulable(11, d) == 12
        assert round_to_schedulable(127, d) == 128
        assert round_to_schedulable(128, d) == 128

    def test_round_rejects_oversize(self):
        with pytest.raises(GeometryError):
            round_to_schedulable(129, BGL_SUPERNODE_DIMS)
        with pytest.raises(GeometryError):
            round_to_schedulable(0, BGL_SUPERNODE_DIMS)

    @given(st.integers(1, 128))
    def test_rounded_size_schedulable_and_minimal(self, s):
        d = BGL_SUPERNODE_DIMS
        r = round_to_schedulable(s, d)
        sizes = schedulable_sizes(d)
        assert r in sizes and r >= s
        assert all(t < s or t >= r for t in sizes)
