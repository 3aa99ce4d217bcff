"""Rectangular torus partitions.

A partition is a contiguous rectangular box of nodes, identified by a base
coordinate and a shape; boxes may wrap around any torus axis.  BG/L
allocates jobs only to such partitions (electrically isolated, so traffic
from different jobs never shares links).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import GeometryError
from repro.geometry.coords import Coord, TorusDims


@dataclass(frozen=True)
class Partition:
    """A contiguous rectangular (possibly wrapping) box on a torus.

    Parameters
    ----------
    base:
        Coordinate of the box corner with the smallest offsets (before
        wrapping).
    shape:
        Box extents ``(a, b, c)`` along each axis.

    Partitions are value objects: equality and hashing use ``(base,
    shape)``.  Two distinct ``(base, shape)`` pairs can cover the same node
    set when a shape spans a full torus axis; use :meth:`canonical` to
    normalise before set operations.
    """

    base: Coord
    shape: Coord
    #: Number of nodes in the partition (derived from ``shape``; not part
    #: of equality or hashing).
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.shape) < 1:
            raise GeometryError(f"partition shape must be positive, got {self.shape}")
        if min(self.base) < 0:
            raise GeometryError(f"partition base must be non-negative, got {self.base}")
        object.__setattr__(self, "size", self.shape[0] * self.shape[1] * self.shape[2])

    def validate(self, dims: TorusDims) -> None:
        """Raise :class:`GeometryError` unless this partition fits ``dims``."""
        if not dims.fits_shape(self.shape):
            raise GeometryError(f"shape {self.shape} does not fit torus {dims}")
        if not dims.contains(self.base):
            raise GeometryError(f"base {self.base} outside torus {dims}")

    def canonical(self, dims: TorusDims) -> "Partition":
        """Normalise the base along axes the shape fully spans.

        When ``shape[axis] == dims[axis]`` every base offset along that
        axis yields the same node set; the canonical form pins those axes
        to 0 so equal node sets compare equal.
        """
        base = list(dims.wrap(self.base))
        for axis in range(3):
            if self.shape[axis] == dims[axis]:
                base[axis] = 0
        return Partition((base[0], base[1], base[2]), self.shape)

    def axis_ranges(self, dims: TorusDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Wrapped index arrays along each axis, for fancy indexing.

        ``grid[np.ix_(*p.axis_ranges(dims))]`` selects exactly this
        partition's nodes from an occupancy grid.
        """
        return (
            (np.arange(self.shape[0]) + self.base[0]) % dims.x,
            (np.arange(self.shape[1]) + self.base[1]) % dims.y,
            (np.arange(self.shape[2]) + self.base[2]) % dims.z,
        )

    def iter_nodes(self, dims: TorusDims) -> Iterator[Coord]:
        """Yield every node coordinate in the partition (wrapped)."""
        bx, by, bz = self.base
        for i in range(self.shape[0]):
            cx = (bx + i) % dims.x
            for j in range(self.shape[1]):
                cy = (by + j) % dims.y
                for k in range(self.shape[2]):
                    yield (cx, cy, (bz + k) % dims.z)

    def node_set(self, dims: TorusDims) -> frozenset[Coord]:
        """The partition's nodes as a frozen set (for tests and dedup)."""
        return frozenset(self.iter_nodes(dims))

    def node_indices(self, dims: TorusDims) -> np.ndarray:
        """Linear node ids of this partition, ascending."""
        ix, iy, iz = self.axis_ranges(dims)
        ids = ((ix[:, None] * dims.y + iy[None, :])[:, :, None] * dims.z + iz[None, None, :])
        return np.sort(ids.ravel())

    def contains(self, dims: TorusDims, coord: Coord) -> bool:
        """True when ``coord`` (wrapped) lies inside this partition."""
        c = dims.wrap(coord)
        for axis in range(3):
            offset = (c[axis] - self.base[axis]) % dims[axis]
            if offset >= self.shape[axis]:
                return False
        return True

    def overlaps(self, dims: TorusDims, other: "Partition") -> bool:
        """True when the two partitions share at least one node.

        Per-axis circular interval intersection: boxes intersect on the
        torus iff their offset intervals intersect modulo the extent on
        every axis.
        """
        for axis in range(3):
            extent = dims[axis]
            a0, alen = self.base[axis] % extent, self.shape[axis]
            b0, blen = other.base[axis] % extent, other.shape[axis]
            if alen >= extent or blen >= extent:
                continue  # full-axis span always intersects on this axis
            # offset of other's start relative to self's start
            delta = (b0 - a0) % extent
            # intervals [0, alen) and [delta, delta+blen) mod extent
            if not (delta < alen or delta + blen > extent):
                return False
        return True

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"Partition(base={self.base}, shape={self.shape}, size={self.size})"
