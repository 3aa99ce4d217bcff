"""The paper's Appendix-9 partition finder.

The algorithm enumerates only the shapes whose volume equals the job size
(via divisor factorisation, ``f(s)^3``-bounded) and scans base locations
with early skipping past blocking nodes — ``O(M^3 · s^3 · f(s)^3)`` on an
empty torus versus POP's ``O(M^5)``.

Two interchangeable implementations are provided:

* ``FastFinder(vectorized=True)`` (default) replaces the base scan with a
  circular box-sum over the free mask; identical output, and on machines
  this small the NumPy kernel is the fastest of all finders.
* ``FastFinder(vectorized=False)`` is the paper-faithful scan: bases are
  visited in increasing ``(x, y, z)`` and, whenever a candidate box is
  blocked, the scan skips the z cursor just past the nearest blocking
  node instead of advancing by one.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.partition import Partition
from repro.geometry.shapes import shapes_for_size
from repro.geometry.torus import FREE, Torus, circular_window_sum
from repro.allocation.base import PartitionFinder, partitions_from_bases


class FastFinder(PartitionFinder):
    """Divisor-driven shape enumeration with skip-scan or box-sum bases."""

    name = "fast"

    def __init__(self, vectorized: bool = True) -> None:
        self.vectorized = vectorized

    def find_free(self, torus: Torus, size: int) -> list[Partition]:
        self._check_size(torus, size)
        if self.vectorized:
            return self._find_vectorized(torus, size)
        return self._find_scan(torus, size)

    # ------------------------------------------------------------------
    def _find_vectorized(self, torus: Torus, size: int) -> list[Partition]:
        dims = torus.dims
        busy = (torus.grid != FREE).astype(np.int64)
        out: list[Partition] = []
        for shape in shapes_for_size(size, dims):
            blocked = circular_window_sum(busy, shape)
            out.extend(partitions_from_bases(np.argwhere(blocked == 0), shape))
        return out

    # ------------------------------------------------------------------
    def _find_scan(self, torus: Torus, size: int) -> list[Partition]:
        dims = torus.dims
        grid = torus.grid
        out: list[Partition] = []
        for shape in shapes_for_size(size, dims):
            a, b, c = shape
            for bx in range(dims.x):
                for by in range(dims.y):
                    bz = 0
                    while bz < dims.z:
                        skip = self._first_block_offset(grid, dims, bx, by, bz, a, b, c)
                        if skip is None:
                            out.append(Partition((bx, by, bz), shape))
                            bz += 1
                        else:
                            # Any base in (bz, bz+skip] still covers the
                            # blocking node, so jump straight past it.
                            bz += skip + 1
        return out

    @staticmethod
    def _first_block_offset(grid, dims, bx, by, bz, a, b, c) -> int | None:
        """Smallest z-offset of a busy node in the box, or None if free."""
        best: int | None = None
        for i in range(a):
            cx = (bx + i) % dims.x
            for j in range(b):
                cy = (by + j) % dims.y
                for k in range(c):
                    if best is not None and k >= best:
                        break
                    if grid[cx, cy, (bz + k) % dims.z] != FREE:
                        best = k
                        break
        return best
