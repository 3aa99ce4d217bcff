"""Random torus states and deliberate corruption, for property tests.

:func:`random_torus` rejection-samples random rectangular allocations
onto a fresh machine — the workhorse generator behind the hypothesis
cross-validation suite.  :func:`corrupt_random_node` breaks a torus on
purpose (negative tests must prove the oracles actually *fire*).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import FREE, Torus
from tests.oracles.errors import OracleError


def random_partition(dims: TorusDims, rng: np.random.Generator) -> Partition:
    """A uniformly random base and random fitting shape (may wrap)."""
    base = (
        int(rng.integers(0, dims.x)),
        int(rng.integers(0, dims.y)),
        int(rng.integers(0, dims.z)),
    )
    shape = (
        int(rng.integers(1, dims.x + 1)),
        int(rng.integers(1, dims.y + 1)),
        int(rng.integers(1, dims.z + 1)),
    )
    return Partition(base, shape)


def random_torus(
    dims: TorusDims,
    rng: np.random.Generator | int | None = None,
    attempts: int = 12,
) -> Torus:
    """A torus with a random set of non-overlapping allocations.

    ``attempts`` random partitions are drawn; each is allocated iff it is
    still free, so occupancy ranges from empty to heavily fragmented.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    torus = Torus(dims)
    job_id = 0
    for _ in range(attempts):
        part = random_partition(dims, rng)
        if torus.is_free(part):
            torus.allocate(job_id, part)
            job_id += 1
    return torus


def corrupt_random_node(torus: Torus, rng: np.random.Generator | int | None = None) -> int:
    """Flip one grid cell to an inconsistent value; returns the node id.

    A free node is stamped with a bogus job id; an occupied node is
    stamped FREE.  Either way the grid now disagrees with the allocation
    map, so every occupancy oracle must raise.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    flat = torus.grid.ravel()
    node = int(rng.integers(0, flat.size))
    if flat[node] == FREE:
        bogus = max((jid for jid, _ in torus.allocations()), default=0) + 999
        flat[node] = bogus
    else:
        flat[node] = FREE
    return node


def assert_raises_oracle(fn, *args, **kwargs) -> OracleError:
    """Run ``fn`` and return the :class:`OracleError` it must raise.

    Small helper for negative tests outside pytest contexts (e.g. the
    README example and example scripts).
    """
    try:
        fn(*args, **kwargs)
    except OracleError as exc:
        return exc
    raise AssertionError(f"{fn!r} did not raise an OracleError")
