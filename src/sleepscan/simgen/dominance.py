"""Per-cell RSRP grids and the strongest-cell dominance map.

RSRP at a pixel is tx power minus macro path loss plus sector gain,
maximized over the site's wrap-around images, plus the cell's shadowing
value at that pixel.  The dominance map holds the argmax cell per pixel
(ties to the lowest cell id) and is the single source of truth for both
the simulator's radio model and event-location attribution.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from .fields import ShadowingField
from .layout import GridSpec, NetworkLayout, pathloss_db, sector_gain_db


@dataclass(frozen=True)
class DominanceMap:
    grid_spec: GridSpec
    grid: np.ndarray  # (ny, nx) cell ids

    def cell_at(self, x, y):
        iy, ix = self.grid_spec.indices_for(x, y)
        return self.grid[iy, ix]

    def share_of(self, cell_id: int) -> float:
        return float(np.mean(self.grid == cell_id))


@dataclass(frozen=True)
class RadioMap:
    """Everything the simulator needs to hear the network at a pixel."""

    grid_spec: GridSpec
    cell_ids: np.ndarray        # (n_cells,)
    rsrp_dbm: np.ndarray        # (n_cells, ny, nx)
    total_dbm: np.ndarray       # (ny, nx) total received power
    dominance: DominanceMap


def _rsrp_grid(layout: NetworkLayout, shadowing: ShadowingField) -> np.ndarray:
    grid = shadowing.grid
    if shadowing.fields.shape[0] != len(layout.cells):
        raise ConfigError("shadowing field count does not match layout cells")
    xs, ys = grid.pixel_centers()
    px = xs[None, :]  # (1, nx)
    py = ys[:, None]  # (ny, 1)
    offsets = layout.wrap_image_offsets()
    rsrp = np.empty((len(layout.cells), grid.ny, grid.nx))
    for idx, cell in enumerate(layout.cells):
        best = np.full((grid.ny, grid.nx), -np.inf)
        for ox, oy in offsets:
            dx = px - (cell.site_x + ox)
            dy = py - (cell.site_y + oy)
            dist = np.hypot(dx, dy)
            level = cell.tx_power_dbm - pathloss_db(dist)
            if cell.azimuth_deg is not None:
                angle = np.degrees(np.arctan2(dy, dx)) - cell.azimuth_deg
                level = level + sector_gain_db(angle)
            np.maximum(best, level, out=best)
        rsrp[idx] = best + shadowing.fields[idx]
    return rsrp


def build_radio_map(layout: NetworkLayout, shadowing: ShadowingField) -> RadioMap:
    rsrp = _rsrp_grid(layout, shadowing)
    cell_ids = np.asarray(layout.cell_ids, dtype=np.int64)
    dominant = cell_ids[np.argmax(rsrp, axis=0)]  # first max = lowest cell id
    total_dbm = 10.0 * np.log10(np.sum(np.power(10.0, rsrp / 10.0), axis=0))
    return RadioMap(
        grid_spec=shadowing.grid,
        cell_ids=cell_ids,
        rsrp_dbm=rsrp,
        total_dbm=total_dbm,
        dominance=DominanceMap(grid_spec=shadowing.grid, grid=dominant),
    )


def build_dominance_map(layout: NetworkLayout, shadowing: ShadowingField) -> DominanceMap:
    return build_radio_map(layout, shadowing).dominance


def derive_adjacency(dmap: DominanceMap) -> dict[int, frozenset[int]]:
    """Cells whose dominance areas share a pixel border (toroidal grid)."""
    grid = dmap.grid
    pairs = set()
    for a, b in ((grid, np.roll(grid, 1, axis=0)), (grid, np.roll(grid, 1, axis=1))):
        diff = a != b
        pairs.update(zip(a[diff].tolist(), b[diff].tolist()))
    adjacency: dict[int, set[int]] = {int(c): set() for c in np.unique(grid)}
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return {c: frozenset(n) for c, n in adjacency.items()}


def layout_adjacency(layout: NetworkLayout, grid: GridSpec) -> dict[int, frozenset[int]]:
    """Planned neighbor relation: adjacency of the zero-shadow wedge map.

    Shadowing carves small dominance islands that would make nearly every
    cell pair "adjacent"; the planned relation uses pure geometry instead.
    """
    zero = ShadowingField.zeros(grid, len(layout.cells))
    return derive_adjacency(build_dominance_map(layout, zero))


def write_dominance_csv(dmap: DominanceMap, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DOMINANCE_HEADER.split(","))
        ny, nx = dmap.grid.shape
        for iy in range(ny):
            for ix in range(nx):
                writer.writerow([ix, iy, int(dmap.grid[iy, ix])])


DOMINANCE_HEADER = "x_index,y_index,cell_id"


def load_dominance_csv(path, grid_spec: GridSpec) -> DominanceMap:
    """Read a dominance map written by `write_dominance_csv`; every pixel once."""
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        if header != DOMINANCE_HEADER:
            raise DataError(f"{path}: dominance map header must be {DOMINANCE_HEADER!r}, got {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: fails the coverage check
                rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: malformed dominance map row ({exc})") from None
    if not rows.size:
        rows = rows.reshape(0, 3)
    if rows.shape[1] != 3:
        raise DataError(f"{path}: dominance map rows must hold 3 columns")
    ny, nx = grid_spec.ny, grid_spec.nx
    ix, iy = rows[:, 0], rows[:, 1]
    inside = (ix >= 0) & (ix < nx) & (iy >= 0) & (iy < ny)
    if not inside.all():
        raise DataError(f"{path}: dominance map pixel outside the {nx}x{ny} grid")
    grid = np.zeros((ny, nx), dtype=np.int64)
    seen = np.zeros((ny, nx), dtype=np.int64)
    grid[iy, ix] = rows[:, 2]
    np.add.at(seen, (iy, ix), 1)
    if not (seen >= 1).all():
        raise DataError(f"{path}: dominance map does not cover the grid")
    if (seen > 1).any():
        raise DataError(f"{path}: dominance map lists a pixel more than once")
    return DominanceMap(grid_spec=grid_spec, grid=grid)
