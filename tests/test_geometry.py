"""Satellite suite: coordinate arithmetic, divisor enumeration ``f(s)``
and ``Partition.canonical`` edge cases (ISSUE 1).

Complements ``tests/geometry/``: everything here is either a wrap-around
edge case or an algebraic property the finer-grained unit tests don't
pin down.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims
from repro.geometry.partition import Partition
from repro.geometry.shapes import divisors, shapes_for_size

dims_strategy = st.builds(
    TorusDims, st.integers(1, 6), st.integers(1, 6), st.integers(1, 8)
)
coord_strategy = st.tuples(
    st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100)
)


class TestCoordWrapArithmetic:
    @given(dims_strategy, coord_strategy)
    def test_wrap_is_idempotent(self, dims, coord):
        once = dims.wrap(coord)
        assert dims.wrap(once) == once
        assert dims.contains(once)

    @given(dims_strategy, coord_strategy)
    def test_wrap_respects_periodicity(self, dims, coord):
        shifted = (
            coord[0] + 3 * dims.x,
            coord[1] - 2 * dims.y,
            coord[2] + 7 * dims.z,
        )
        assert dims.wrap(shifted) == dims.wrap(coord)

    @given(dims_strategy, coord_strategy)
    def test_index_coord_roundtrip(self, dims, coord):
        idx = dims.index(coord)
        assert 0 <= idx < dims.volume
        assert dims.coord(idx) == dims.wrap(coord)

    @given(dims_strategy)
    def test_index_enumeration_is_bijective(self, dims):
        seen = [dims.index(c) for c in itertools.product(*map(range, dims))]
        assert seen == list(range(dims.volume))

    @given(dims_strategy, st.integers(-20, 20), st.integers(-20, 20),
           st.integers(0, 2))
    def test_axis_distance_symmetric_and_bounded(self, dims, a, b, axis):
        a %= dims[axis]
        b %= dims[axis]
        d = dims.axis_distance(a, b, axis)
        assert d == dims.axis_distance(b, a, axis)
        assert 0 <= d <= dims[axis] // 2
        assert dims.axis_distance(a, a, axis) == 0

    def test_wrap_on_bgl_known_values(self):
        d = BGL_SUPERNODE_DIMS
        assert d.wrap((4, 4, 8)) == (0, 0, 0)
        assert d.wrap((-1, -1, -1)) == (3, 3, 7)
        assert d.index((3, 3, 7)) == d.volume - 1


class TestDivisorEnumeration:
    @given(st.integers(1, 5000))
    def test_divisors_complete_and_sorted(self, n):
        ds = divisors(n)
        assert list(ds) == sorted(set(ds))
        assert all(n % d == 0 for d in ds)
        assert ds[0] == 1 and ds[-1] == n
        brute = [d for d in range(1, n + 1) if n % d == 0]
        assert list(ds) == brute

    @pytest.mark.parametrize(
        "n,f", [(1, 1), (2, 2), (12, 6), (36, 9), (97, 2), (128, 8)]
    )
    def test_f_known_values(self, n, f):
        assert len(divisors(n)) == f

    @given(dims_strategy, st.integers(1, 64))
    def test_shape_count_bounded_by_f_squared(self, dims, size):
        """|SHAPES(s)| ≤ f(s)² — the Appendix-9 cost-bound ingredient:
        choosing the first two extents fixes the third."""
        assert len(shapes_for_size(size, dims)) <= len(divisors(size)) ** 2

    @given(dims_strategy, st.integers(1, 64))
    def test_every_shape_factors_size(self, dims, size):
        for a, b, c in shapes_for_size(size, dims):
            assert a * b * c == size
            assert a <= dims.x and b <= dims.y and c <= dims.z
            assert size % a == 0 and (size // a) % b == 0

    def test_unconstrained_dims_reach_f_bound(self):
        """On a machine larger than s on every axis, the count is exactly
        Σ_{a|s} f(s/a)."""
        dims = TorusDims(6, 6, 8)
        size = 6
        expected = sum(len(divisors(size // a)) for a in divisors(size) if a <= 6)
        assert len(shapes_for_size(size, dims)) == expected


class TestCanonicalEdgeCases:
    def test_identity_for_interior_partition(self):
        dims = TorusDims(4, 4, 8)
        p = Partition((1, 2, 3), (2, 1, 4))
        assert p.canonical(dims) == p

    def test_full_axis_span_pins_base_to_zero(self):
        dims = TorusDims(4, 4, 8)
        for bx in range(4):
            p = Partition((bx, 1, 2), (4, 2, 2))
            assert p.canonical(dims).base == (0, 1, 2)

    def test_full_machine_all_bases_equal(self):
        dims = TorusDims(4, 4, 8)
        canons = {
            Partition((x, y, z), (4, 4, 8)).canonical(dims)
            for x in range(4) for y in range(4) for z in range(8)
        }
        assert canons == {Partition((0, 0, 0), (4, 4, 8))}

    def test_canonical_wraps_out_of_range_base(self):
        dims = TorusDims(4, 4, 8)
        p = Partition((5, 0, 9), (1, 1, 1))
        assert p.canonical(dims).base == (1, 0, 1)

    @given(dims_strategy, st.data())
    def test_canonical_preserves_node_set(self, dims, data):
        base = (
            data.draw(st.integers(0, dims.x - 1)),
            data.draw(st.integers(0, dims.y - 1)),
            data.draw(st.integers(0, dims.z - 1)),
        )
        shape = (
            data.draw(st.integers(1, dims.x)),
            data.draw(st.integers(1, dims.y)),
            data.draw(st.integers(1, dims.z)),
        )
        p = Partition(base, shape)
        canon = p.canonical(dims)
        assert canon.node_set(dims) == p.node_set(dims)
        assert canon.canonical(dims) == canon  # idempotent

    @given(dims_strategy, st.data())
    def test_equal_node_sets_iff_equal_canonicals(self, dims, data):
        def draw_partition():
            return Partition(
                (
                    data.draw(st.integers(0, dims.x - 1)),
                    data.draw(st.integers(0, dims.y - 1)),
                    data.draw(st.integers(0, dims.z - 1)),
                ),
                (
                    data.draw(st.integers(1, dims.x)),
                    data.draw(st.integers(1, dims.y)),
                    data.draw(st.integers(1, dims.z)),
                ),
            )

        p, q = draw_partition(), draw_partition()
        same_nodes = p.node_set(dims) == q.node_set(dims)
        same_canon = p.canonical(dims) == q.canonical(dims)
        assert same_nodes == same_canon
