"""Common interface for free-partition finders."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import GeometryError
from repro.geometry.coords import Coord
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus


def partitions_from_bases(bases: np.ndarray, shape: Coord) -> list[Partition]:
    """Materialise ``np.argwhere``-style base rows into partitions.

    Shared by the vectorised finders; rows arrive in row-major (x, y, z)
    order from ``argwhere``, which is the enumeration order the finder
    contract promises.
    """
    return [
        Partition((int(bx), int(by), int(bz)), shape) for bx, by, bz in bases
    ]


class PartitionFinder(abc.ABC):
    """Finds all free, contiguous, rectangular partitions of a given size.

    Implementations must return *every* free partition of exactly
    ``size`` nodes, as ``Partition`` objects whose bases lie inside the
    primary torus cell.  Duplicated node sets (shapes spanning a full
    axis) are permitted in the raw output; :meth:`find_free_unique`
    deduplicates canonically.

    Enumeration order is part of the contract (tie-breaking policies and
    cross-validation depend on it): shapes in
    :func:`~repro.geometry.shapes.shapes_for_size` order (divisor order —
    ascending first extent, then second), bases row-major ``(x, y, z)``
    within each shape.  Every shipped finder honours this, which is
    verified by the test suite's ``CrossValidator``.
    """

    #: Short name used in cross-validation messages and bench records.
    name: str = "abstract"

    @abc.abstractmethod
    def find_free(self, torus: Torus, size: int) -> list[Partition]:
        """Return all free partitions of exactly ``size`` nodes."""

    def find_free_unique(self, torus: Torus, size: int) -> list[Partition]:
        """Like :meth:`find_free` but with one partition per node set.

        Canonicalises bases along fully-spanned axes and drops duplicates,
        preserving first-seen order.
        """
        seen: set[Partition] = set()
        out: list[Partition] = []
        for part in self.find_free(torus, size):
            canon = part.canonical(torus.dims)
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
        return out

    @staticmethod
    def _check_size(torus: Torus, size: int) -> None:
        if size < 1:
            raise GeometryError(f"partition size must be positive, got {size}")
        if size > torus.dims.volume:
            raise GeometryError(
                f"partition size {size} exceeds machine {torus.dims.volume}"
            )
