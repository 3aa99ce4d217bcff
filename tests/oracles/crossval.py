"""Cross-validation of the three partition finders.

The paper ships three independent algorithms that must agree on *every*
machine state: the naive exhaustive search, the Krevat-style POP
dynamic program and the Appendix-9 fast finder (in both its vectorised
and paper-faithful skip-scan forms).  :class:`CrossValidator` runs any
set of finders against one torus state and asserts they produce

* identical canonical partition sets (node-set equality after
  :meth:`~repro.geometry.partition.Partition.canonical`),
* only genuinely free partitions of exactly the requested size, and
* duplicate-free ``find_free_unique`` output in identical enumeration
  order (all shipped finders enumerate shape-major, base row-major).
"""

from __future__ import annotations

from typing import Sequence

from repro.allocation.base import PartitionFinder
from repro.allocation.fast import FastFinder
from repro.allocation.naive import NaiveFinder
from repro.allocation.pop import POPFinder
from repro.geometry.partition import Partition
from repro.geometry.shapes import schedulable_sizes
from repro.geometry.torus import Torus
from tests.oracles.errors import CrossValidationError


def default_finders() -> list[PartitionFinder]:
    """The shipped finder set: naive, POP, fast (both variants)."""
    return [NaiveFinder(), POPFinder(), FastFinder(vectorized=True), FastFinder(vectorized=False)]


def _label(finder: PartitionFinder) -> str:
    if isinstance(finder, FastFinder):
        return "fast-vectorized" if finder.vectorized else "fast-scan"
    return finder.name


class CrossValidator:
    """Runs several finders on one torus state and demands agreement."""

    __slots__ = ("finders", "labels", "comparisons_run")

    def __init__(self, finders: Sequence[PartitionFinder] | None = None) -> None:
        self.finders = list(finders) if finders is not None else default_finders()
        if len(self.finders) < 2:
            raise CrossValidationError("cross-validation needs at least two finders")
        self.labels = [_label(f) for f in self.finders]
        self.comparisons_run = 0

    # ------------------------------------------------------------------
    def canonical_sets(
        self, torus: Torus, size: int
    ) -> dict[str, frozenset[Partition]]:
        """Canonical free-partition set of each finder, keyed by label."""
        return {
            label: frozenset(
                p.canonical(torus.dims) for p in finder.find_free(torus, size)
            )
            for label, finder in zip(self.labels, self.finders)
        }

    def compare(self, torus: Torus, size: int) -> frozenset[Partition]:
        """Assert all finders agree on ``size``; return the agreed set.

        Raises :class:`CrossValidationError` naming the first finder that
        deviates from the reference (the first finder in the list).
        """
        self.comparisons_run += 1
        dims = torus.dims
        reference_label = self.labels[0]
        reference_list: list[Partition] | None = None
        reference: frozenset[Partition] | None = None
        for label, finder in zip(self.labels, self.finders):
            unique = finder.find_free_unique(torus, size)
            canon = frozenset(unique)
            if len(canon) != len(unique):
                raise CrossValidationError(
                    f"{label}: find_free_unique returned duplicates for size {size}"
                )
            for part in unique:
                if part != part.canonical(dims):
                    raise CrossValidationError(
                        f"{label}: non-canonical partition {part} in unique output"
                    )
                if part.size != size:
                    raise CrossValidationError(
                        f"{label}: partition {part} has size {part.size}, "
                        f"requested {size}"
                    )
                if not torus.is_free(part):
                    raise CrossValidationError(
                        f"{label}: partition {part} is not actually free"
                    )
            if reference is None:
                reference_list, reference = unique, canon
            elif canon != reference:
                missing = sorted(map(str, reference - canon))
                extra = sorted(map(str, canon - reference))
                raise CrossValidationError(
                    f"finder disagreement at size {size}: {label} vs "
                    f"{reference_label}; missing={missing} extra={extra}"
                )
            elif unique != reference_list:
                raise CrossValidationError(
                    f"enumeration-order disagreement at size {size}: {label} "
                    f"vs {reference_label} return the same set in a "
                    f"different order"
                )
        assert reference is not None
        return reference

    def compare_all_sizes(self, torus: Torus) -> dict[int, frozenset[Partition]]:
        """Cross-validate every schedulable size on this machine."""
        return {
            size: self.compare(torus, size)
            for size in schedulable_sizes(torus.dims)
        }
