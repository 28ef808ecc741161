"""Synthetic MDT dataset generation for a 21-cell macro scenario.

Builds the network geometry, per-cell lognormal shadowing fields and the
dominance map, then drives an event simulator (A2/A3 measurement
events, handovers, and the random-access failure of the sleeping cell)
to produce normal / problematic / reference datasets with ground truth.
"""

from .layout import Cell, GridSpec, NetworkLayout, macro21_layout, pathloss_db
from .fields import ShadowingField, make_shadowing
from .dominance import (
    DominanceMap,
    RadioMap,
    build_radio_map,
    derive_adjacency,
    layout_adjacency,
)
from .engine import SimConfig, simulate
from .suite import (
    DatasetSuite,
    derive_seeds,
    generate_dataset_suite,
    load_suite,
    write_suite,
)

__all__ = [
    "Cell",
    "GridSpec",
    "NetworkLayout",
    "macro21_layout",
    "pathloss_db",
    "ShadowingField",
    "make_shadowing",
    "DominanceMap",
    "RadioMap",
    "build_radio_map",
    "derive_adjacency",
    "layout_adjacency",
    "SimConfig",
    "simulate",
    "DatasetSuite",
    "derive_seeds",
    "generate_dataset_suite",
    "load_suite",
    "write_suite",
]
