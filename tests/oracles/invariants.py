"""Torus occupancy-grid invariant oracles.

Two checkers re-derive the machine state from the allocation map, each
by a different mechanism than the torus's own mutation path (flat node
ids of a cached wrapped box): :func:`check_rebuilt_grid` rebuilds the
whole expected grid with ``np.ix_`` boxes, and :class:`InvariantChecker`
works over linear node-index sets.  Three independent implementations
of the same bookkeeping make a silent agreement-by-shared-bug much less
likely.

Checked invariants:

* **No overlap** — the node-index sets of all allocated partitions are
  pairwise disjoint.
* **Node-count conservation** — the ``free_count`` counter, the number
  of free grid cells and ``volume − Σ sizes`` agree, as does ``busy_count``.
* **Grid/map agreement** — every node of every allocated partition holds
  exactly its owner's job id in the grid, and every node outside all
  partitions is :data:`~repro.geometry.torus.FREE`.
* **Well-formedness** — partitions fit the machine and job ids are
  non-negative; the grid contains no ids missing from the map.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError, PartitionOverlapError
from repro.geometry.torus import FREE, Torus
from tests.oracles.errors import InvariantViolationError


def check_rebuilt_grid(torus: Torus) -> None:
    """Assert the occupancy grid and the allocation map agree.

    Rebuilds the expected grid from the map and checks node-count
    conservation (``free_count == free grid cells == volume − Σ sizes``).
    The richer, node-index-set form is :class:`InvariantChecker`.
    """
    dims = torus.dims
    expected = np.full(dims.as_tuple(), FREE, dtype=np.int64)
    allocated_total = 0
    for job_id, partition in torus.allocations():
        sel = np.ix_(*partition.axis_ranges(dims))
        if (expected[sel] != FREE).any():
            raise PartitionOverlapError(
                f"allocation map has overlapping partitions at job {job_id}"
            )
        expected[sel] = job_id
        allocated_total += partition.size
    if not np.array_equal(expected, torus.grid):
        raise GeometryError("occupancy grid disagrees with allocation map")
    scanned = int(np.count_nonzero(torus.grid == FREE))
    if not torus.free_count == scanned == dims.volume - allocated_total:
        raise GeometryError(
            f"node-count conservation broken: free={torus.free_count}, "
            f"free grid cells={scanned}, allocated={allocated_total}, "
            f"volume={dims.volume}"
        )


class InvariantChecker:
    """Stateless validator for one :class:`~repro.geometry.torus.Torus`.

    Instances count how many checks they ran (``checks_run``) so test
    harnesses can assert the oracle was actually exercised.
    """

    __slots__ = ("checks_run",)

    def __init__(self) -> None:
        self.checks_run = 0

    def check(self, torus: Torus) -> None:
        """Validate ``torus``; raise :class:`InvariantViolationError` on
        the first inconsistency found."""
        self.checks_run += 1
        dims = torus.dims
        volume = dims.volume
        flat = torus.grid.ravel()
        if flat.size != volume:
            raise InvariantViolationError(
                f"grid has {flat.size} cells but dims say {volume}"
            )

        covered = np.zeros(volume, dtype=bool)
        allocated_total = 0
        for job_id, partition in torus.allocations():
            if job_id < 0:
                raise InvariantViolationError(f"negative job id {job_id} in map")
            partition.validate(dims)
            indices = partition.node_indices(dims)
            if indices.size != partition.size:
                raise InvariantViolationError(
                    f"job {job_id}: partition {partition} covers "
                    f"{indices.size} distinct nodes, expected {partition.size}"
                )
            if covered[indices].any():
                clash = int(indices[covered[indices]][0])
                raise InvariantViolationError(
                    f"job {job_id}: partition {partition} overlaps an "
                    f"earlier allocation at node {clash}"
                )
            covered[indices] = True
            allocated_total += partition.size
            owners = flat[indices]
            if (owners != job_id).any():
                bad = int(indices[owners != job_id][0])
                raise InvariantViolationError(
                    f"job {job_id}: grid node {bad} holds "
                    f"{int(flat[bad])} instead of the owning job id"
                )

        outside = flat[~covered]
        if (outside != FREE).any():
            stray = int(np.flatnonzero(~covered)[outside != FREE][0])
            raise InvariantViolationError(
                f"grid node {stray} holds job id {int(flat[stray])} "
                f"but no allocation covers it"
            )

        free = torus.free_count
        scanned = int(np.count_nonzero(flat == FREE))
        if not free == scanned == volume - allocated_total:
            raise InvariantViolationError(
                f"free-count mismatch: free_count={free}, {scanned} free grid "
                f"cells, volume - Σ sizes = {volume - allocated_total}"
            )
        if torus.busy_count != allocated_total:
            raise InvariantViolationError(
                f"busy-count mismatch: busy_count={torus.busy_count} but "
                f"Σ partition sizes = {allocated_total}"
            )
