#!/usr/bin/env python3
"""ASCII rendition of the paper's Figures 1-2: the MFP heuristic and
fault-aware placement.

Figure 1: placing a job so it leaves the larger maximal free partition.
Figure 2: between two placements of equal MFP loss, prefer the one the
predictor considers stable.

Uses a small 6x6x1 torus so the grids print as 2-D maps.

Run:  python examples/placement_illustration.py
"""

from __future__ import annotations

from repro.allocation import PlacementIndex
from repro.failures.events import FailureEvent, FailureLog
from repro.geometry.coords import TorusDims
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus
from repro.prediction import BalancingPredictor

DIMS = TorusDims(6, 6, 1)


def render(torus: Torus, flagged: set[tuple[int, int, int]] = frozenset()) -> str:
    """Top-down map: '.' free, letters jobs, 'X' predicted-to-fail."""
    lines = []
    for y in range(DIMS.y - 1, -1, -1):
        row = []
        for x in range(DIMS.x):
            owner = torus.owner((x, y, 0))
            if (x, y, 0) in flagged and owner is None:
                row.append("X")
            elif owner is None:
                row.append(".")
            else:
                row.append(chr(ord("A") + owner % 26))
        lines.append(" ".join(row))
    return "\n".join(lines)


def l_mfp(index: PlacementIndex, size: int) -> dict[Partition, int]:
    """Every free placement of ``size`` nodes with its ``L_MFP``, in the
    index's enumeration order."""
    batch, losses = index.batch_mfp_losses(size)
    return dict(zip(batch.partitions(), losses.tolist()))


def figure1() -> None:
    print("=" * 60)
    print("Figure 1 - the MFP heuristic")
    print("=" * 60)
    torus = Torus(DIMS)
    torus.allocate(0, Partition((0, 0, 0), (6, 2, 1)))  # job A strip
    torus.allocate(1, Partition((2, 2, 0), (1, 1, 1)))  # stray job B
    index = PlacementIndex(torus)
    print("\nMachine with jobs A and B (MFP =", index.mfp_size(), "):")
    print(render(torus))

    # Score every placement of a 4-node job and keep the extremes the
    # paper's Figure 1 contrasts: the placement that butchers the MFP
    # versus the one that preserves it.
    scored = l_mfp(index, 4)
    worst = max(scored.items(), key=lambda pl: pl[1])
    best = min(scored.items(), key=lambda pl: pl[1])
    for label, (part, loss) in (("(a) worst", worst), ("(b) best", best)):
        print(
            f"\nPlacement {label}: base {part.base[:2]}, shape "
            f"{part.shape[:2]}, L_MFP = {loss} "
            f"(MFP after = {index.mfp_size() - loss})"
        )
    print("\nThe scheduler prefers (b): it leaves the larger MFP intact.")


def figure2() -> None:
    print()
    print("=" * 60)
    print("Figure 2 - breaking ties with fault prediction")
    print("=" * 60)
    torus = Torus(DIMS)
    torus.allocate(0, Partition((0, 0, 0), (6, 2, 1)))
    failing = (1, 3, 0)
    log = FailureLog(DIMS.volume, [FailureEvent(500.0, DIMS.index(failing))])
    predictor = BalancingPredictor(log, confidence=0.9)
    scored = l_mfp(PlacementIndex(torus), 4)

    print("\nSame machine; node marked X is predicted to fail soon:")
    print(render(torus, flagged={failing}))

    c = Partition((0, 2, 0), (2, 2, 1))  # contains the X node
    d = Partition((4, 2, 0), (2, 2, 1))  # symmetric, stable
    for label, part in (("(c) over the X node", c), ("(d) stable twin", d)):
        p_f = predictor.partition_failure_probability(part, DIMS, 0.0, 1000.0)
        print(
            f"\nPlacement {label}: L_MFP = {scored[part]}, "
            f"P_f = {p_f:.2f}, "
            f"E_loss = {scored[part] + p_f * part.size:.2f}"
        )
    print(
        "\nEqual MFP loss -> the failure term decides: the scheduler takes"
        "\n(d), exactly the tie the paper's tie-breaking algorithm targets."
    )


if __name__ == "__main__":
    figure1()
    figure2()
