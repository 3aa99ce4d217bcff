"""Torus dimensions and wrap-around coordinate arithmetic.

Coordinates are plain ``(x, y, z)`` integer tuples in hot paths; the
:class:`TorusDims` value object carries the machine extents and provides
wrapping, linearisation and distance helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import GeometryError

Coord = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class TorusDims:
    """Extents of a 3-D torus.

    Parameters
    ----------
    x, y, z:
        Number of (super)nodes along each axis; all must be positive.
    """

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise GeometryError(f"torus dimensions must be positive, got {self}")

    @property
    def volume(self) -> int:
        """Total number of nodes in the torus."""
        return self.x * self.y * self.z

    def as_tuple(self) -> Coord:
        return (self.x, self.y, self.z)

    def __iter__(self) -> Iterator[int]:
        yield self.x
        yield self.y
        yield self.z

    def __getitem__(self, axis: int) -> int:
        return (self.x, self.y, self.z)[axis]

    def wrap(self, coord: Coord) -> Coord:
        """Map an arbitrary integer coordinate into the torus."""
        return (coord[0] % self.x, coord[1] % self.y, coord[2] % self.z)

    def contains(self, coord: Coord) -> bool:
        """True when ``coord`` already lies within the primary cell."""
        return (
            0 <= coord[0] < self.x
            and 0 <= coord[1] < self.y
            and 0 <= coord[2] < self.z
        )

    def index(self, coord: Coord) -> int:
        """Linearise a (wrapped) coordinate to a node id in ``[0, volume)``.

        Row-major (C) order so ids match ``numpy.ndarray.ravel`` on the
        occupancy grid.
        """
        cx, cy, cz = self.wrap(coord)
        return (cx * self.y + cy) * self.z + cz

    def coord(self, index: int) -> Coord:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.volume:
            raise GeometryError(f"node index {index} out of range [0, {self.volume})")
        cz = index % self.z
        rest = index // self.z
        cy = rest % self.y
        cx = rest // self.y
        return (cx, cy, cz)

    def fits_shape(self, shape: Coord) -> bool:
        """True when a rectangular block of ``shape`` fits in the torus."""
        return shape[0] <= self.x and shape[1] <= self.y and shape[2] <= self.z

    def axis_distance(self, a: int, b: int, axis: int) -> int:
        """Shortest wrap-around distance between positions on one axis."""
        extent = self[axis]
        d = abs(a - b) % extent
        return min(d, extent - d)


#: The scheduler's view of the full BlueGene/L system: a 4x4x8 torus of
#: 512-node supernodes (the paper's 128-supernode machine).
BGL_SUPERNODE_DIMS = TorusDims(4, 4, 8)


def manhattan_torus_distance(dims: TorusDims, a: Coord, b: Coord) -> int:
    """Manhattan distance between two nodes with per-axis wrap-around.

    The scalar reference the tests check the burst generator's
    vectorised ``_neighbourhood`` against; the scheduler itself never
    needs distances.
    """
    return (
        dims.axis_distance(a[0], b[0], 0)
        + dims.axis_distance(a[1], b[1], 1)
        + dims.axis_distance(a[2], b[2], 2)
    )
