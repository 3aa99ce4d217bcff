"""Exhaustive reference partition finder.

This is the strategy the paper's appendix describes as the naive
``O(M^9)``-class search: enumerate every base location and every box shape
that fits the torus, test each node of each candidate individually, and
keep those of the requested size.  It exists purely as a correctness
oracle for the faster finders and for asymptotic comparison benchmarks;
never use it inside the simulator loop.
"""

from __future__ import annotations

from repro.geometry.partition import Partition
from repro.geometry.torus import FREE, Torus
from repro.allocation.base import PartitionFinder


class NaiveFinder(PartitionFinder):
    """Pure-Python exhaustive search over all bases and shapes.

    The triple shape loop visits ``(a, b, c)`` in ascending lexicographic
    order, which coincides with :func:`shapes_for_size`'s divisor order —
    so the enumeration-order contract of :class:`PartitionFinder` holds
    here too, and the test suite's ``CrossValidator`` can compare
    ordered outputs across all finders.
    """

    name = "naive"

    def find_free(self, torus: Torus, size: int) -> list[Partition]:
        self._check_size(torus, size)
        dims = torus.dims
        grid = torus.grid
        out: list[Partition] = []
        for a in range(1, dims.x + 1):
            for b in range(1, dims.y + 1):
                for c in range(1, dims.z + 1):
                    if a * b * c != size:
                        continue
                    for bx in range(dims.x):
                        for by in range(dims.y):
                            for bz in range(dims.z):
                                if self._box_free(grid, dims, bx, by, bz, a, b, c):
                                    out.append(Partition((bx, by, bz), (a, b, c)))
        return out

    @staticmethod
    def _box_free(grid, dims, bx: int, by: int, bz: int, a: int, b: int, c: int) -> bool:
        for i in range(a):
            cx = (bx + i) % dims.x
            for j in range(b):
                cy = (by + j) % dims.y
                for k in range(c):
                    if grid[cx, cy, (bz + k) % dims.z] != FREE:
                        return False
        return True
