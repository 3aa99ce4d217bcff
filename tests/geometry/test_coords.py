"""Unit tests for torus dimension and coordinate arithmetic."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.coords import BGL_SUPERNODE_DIMS, TorusDims, manhattan_torus_distance

dims_strategy = st.builds(
    TorusDims,
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 8),
)


class TestTorusDims:
    def test_bgl_view_is_4x4x8(self):
        assert BGL_SUPERNODE_DIMS.as_tuple() == (4, 4, 8)
        assert BGL_SUPERNODE_DIMS.volume == 128

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
    def test_rejects_nonpositive_dims(self, bad):
        with pytest.raises(GeometryError):
            TorusDims(*bad)

    def test_volume(self):
        assert TorusDims(2, 3, 5).volume == 30

    def test_iter_and_getitem(self):
        d = TorusDims(2, 3, 5)
        assert list(d) == [2, 3, 5]
        assert (d[0], d[1], d[2]) == (2, 3, 5)

    def test_wrap_negative_and_large(self):
        d = TorusDims(4, 4, 8)
        assert d.wrap((-1, 4, 9)) == (3, 0, 1)
        assert d.wrap((0, 0, 0)) == (0, 0, 0)

    def test_contains(self):
        d = TorusDims(4, 4, 8)
        assert d.contains((3, 3, 7))
        assert not d.contains((4, 0, 0))
        assert not d.contains((0, -1, 0))

    def test_index_roundtrip_exhaustive(self):
        d = TorusDims(3, 2, 4)
        seen = set()
        for c in itertools.product(*map(range, d)):
            i = d.index(c)
            assert d.coord(i) == c
            seen.add(i)
        assert seen == set(range(d.volume))

    def test_index_is_row_major(self):
        d = TorusDims(4, 4, 8)
        assert d.index((0, 0, 0)) == 0
        assert d.index((0, 0, 1)) == 1
        assert d.index((0, 1, 0)) == 8
        assert d.index((1, 0, 0)) == 32

    def test_coord_out_of_range(self):
        d = TorusDims(2, 2, 2)
        with pytest.raises(GeometryError):
            d.coord(8)
        with pytest.raises(GeometryError):
            d.coord(-1)

    def test_fits_shape(self):
        d = TorusDims(4, 4, 8)
        assert d.fits_shape((4, 4, 8))
        assert not d.fits_shape((5, 1, 1))
        assert not d.fits_shape((1, 1, 9))

    def test_axis_distance_wraps(self):
        d = TorusDims(8, 8, 8)
        assert d.axis_distance(0, 7, 0) == 1
        assert d.axis_distance(0, 4, 0) == 4
        assert d.axis_distance(3, 3, 0) == 0

    @given(dims_strategy, st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    def test_wrap_always_contained(self, d, x, y, z):
        assert d.contains(d.wrap((x, y, z)))

    @given(dims_strategy, st.data())
    def test_index_bijective(self, d, data):
        i = data.draw(st.integers(0, d.volume - 1))
        assert d.index(d.coord(i)) == i


class TestManhattanTorusDistance:
    def test_zero_for_same_node(self):
        d = TorusDims(4, 4, 8)
        assert manhattan_torus_distance(d, (1, 2, 3), (1, 2, 3)) == 0

    def test_wraparound_shorter(self):
        d = TorusDims(4, 4, 8)
        assert manhattan_torus_distance(d, (0, 0, 0), (3, 0, 7)) == 2

    @given(dims_strategy, st.data())
    def test_symmetry(self, d, data):
        coords = st.tuples(
            st.integers(0, d.x - 1), st.integers(0, d.y - 1), st.integers(0, d.z - 1)
        )
        a, b = data.draw(coords), data.draw(coords)
        assert manhattan_torus_distance(d, a, b) == manhattan_torus_distance(d, b, a)

    @given(dims_strategy, st.data())
    def test_triangle_inequality(self, d, data):
        coords = st.tuples(
            st.integers(0, d.x - 1), st.integers(0, d.y - 1), st.integers(0, d.z - 1)
        )
        a, b, c = data.draw(coords), data.draw(coords), data.draw(coords)
        assert manhattan_torus_distance(d, a, c) <= (
            manhattan_torus_distance(d, a, b) + manhattan_torus_distance(d, b, c)
        )
