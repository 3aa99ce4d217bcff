"""Torus geometry substrate.

BlueGene/L's job scheduler sees the machine as a small 3-D torus of
*supernodes* (8x8x8 blocks of 512 compute nodes each); for the full
64Ki-node system that view is a ``4 x 4 x 8`` torus of 128 supernodes.
This subpackage provides the coordinate arithmetic, shape enumeration,
partition objects and occupancy grid every other layer builds on.
"""

from __future__ import annotations

from repro.geometry.coords import TorusDims, BGL_SUPERNODE_DIMS, manhattan_torus_distance
from repro.geometry.shapes import (
    divisors,
    shapes_for_size,
    all_shapes,
)
from repro.geometry.partition import Partition
from repro.geometry.torus import Torus, circular_window_sum

__all__ = [
    "TorusDims",
    "BGL_SUPERNODE_DIMS",
    "manhattan_torus_distance",
    "divisors",
    "shapes_for_size",
    "all_shapes",
    "Partition",
    "Torus",
    "circular_window_sum",
]
