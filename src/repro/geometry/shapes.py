"""Enumeration of rectangular partition shapes.

The paper's Appendix-9 partition finder is driven by the set
``SHAPES = {<a, b, c> | a*b*c = s}`` of box shapes whose volume equals the
requested job size ``s``; its cost bound is stated in terms of ``f(s)``,
the number of divisors of ``s``.  This module provides divisor and shape
enumeration with memoisation, shared by all three finders.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Iterator

from repro.errors import GeometryError
from repro.geometry.coords import Coord, TorusDims


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of ``n`` in increasing order.

    This is the set ``D = {y | n mod y = 0, y <= n}`` of the paper's
    appendix; ``f(n) = len(divisors(n))``.
    """
    if n < 1:
        raise GeometryError(f"divisors undefined for n={n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def num_divisors(n: int) -> int:
    """``f(n)``: the number of divisors of ``n``."""
    return len(divisors(n))


@lru_cache(maxsize=4096)
def _shapes_cached(size: int, dims_tuple: Coord) -> tuple[Coord, ...]:
    dx, dy, dz = dims_tuple
    out: list[Coord] = []
    for a in divisors(size):
        if a > dx:
            continue
        rest = size // a
        for b in divisors(rest):
            if b > dy:
                continue
            c = rest // b
            if c <= dz:
                out.append((a, b, c))
    return tuple(out)


def iter_shapes(size: int, dims: TorusDims) -> Iterator[Coord]:
    """Yield every box shape ``(a, b, c)`` with ``a*b*c == size`` that fits
    inside ``dims`` (``a <= dims.x`` and so on).

    Shapes are *oriented*: ``(1, 2, 4)`` and ``(4, 2, 1)`` are distinct
    because the torus axes have different extents.
    """
    yield from _shapes_cached(size, dims.as_tuple())


def shapes_for_size(size: int, dims: TorusDims) -> tuple[Coord, ...]:
    """Materialised :func:`iter_shapes` (memoised)."""
    if size < 1:
        raise GeometryError(f"partition size must be positive, got {size}")
    return _shapes_cached(size, dims.as_tuple())


@lru_cache(maxsize=256)
def _all_shapes_cached(dims_tuple: Coord) -> tuple[Coord, ...]:
    dx, dy, dz = dims_tuple
    shapes = [
        (a, b, c)
        for a in range(1, dx + 1)
        for b in range(1, dy + 1)
        for c in range(1, dz + 1)
    ]
    # Decreasing volume so MFP scans can stop at the first feasible shape.
    shapes.sort(key=lambda s: (-(s[0] * s[1] * s[2]), s))
    return tuple(shapes)


def all_shapes(dims: TorusDims) -> tuple[Coord, ...]:
    """Every box shape that fits in the torus, sorted by decreasing volume.

    For the BG/L scheduler view (4x4x8) this is only 128 shapes, which is
    what makes whole-machine MFP scans cheap.
    """
    return _all_shapes_cached(dims.as_tuple())


def max_partition_volume(dims: TorusDims) -> int:
    """Largest possible partition volume (the whole machine)."""
    return dims.volume


@lru_cache(maxsize=256)
def _schedulable_cached(dims_tuple: Coord) -> tuple[int, ...]:
    return tuple(sorted({a * b * c for (a, b, c) in _all_shapes_cached(dims_tuple)}))


def schedulable_sizes(dims: TorusDims) -> tuple[int, ...]:
    """Sorted set of sizes ``s`` for which at least one shape exists
    (memoised per dims).

    A job whose size is not in this set (e.g. a prime larger than every
    axis) can never be placed; workload adapters round sizes up to the
    next schedulable size.
    """
    return _schedulable_cached(dims.as_tuple())


def round_to_schedulable(size: int, dims: TorusDims) -> int:
    """Round ``size`` up to the smallest schedulable size ``>= size``.

    Raises :class:`GeometryError` when ``size`` exceeds the machine.
    """
    if size < 1:
        raise GeometryError(f"job size must be positive, got {size}")
    if size > dims.volume:
        raise GeometryError(
            f"job size {size} exceeds machine capacity {dims.volume}"
        )
    sizes = schedulable_sizes(dims)
    # The whole machine is always a shape, so a size within it has a
    # schedulable size at or above it.
    return sizes[bisect_left(sizes, size)]
