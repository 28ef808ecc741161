"""Per-cell RSRP grids and the strongest-cell dominance map.

RSRP at a pixel is tx power minus macro path loss plus sector gain,
maximized over the site's wrap-around images, plus the cell's shadowing
value at that pixel.  The dominance map holds the argmax cell per pixel
(ties to the lowest cell id) and is the single source of truth for both
the simulator's radio model and event-location attribution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, DataError
from ..mdtlog import opened, sorted_unique
from .layout import GridSpec, NetworkLayout, pathloss_db, sector_gain_db

if TYPE_CHECKING:
    from .fields import ShadowingField


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


def path_gain(layout: NetworkLayout, grid: GridSpec) -> np.ndarray:
    """(n_cells, ny, nx) tx power minus path loss plus sector gain, max over site images.

    Distance, path loss and bearing depend only on the site, so each site
    image computes them once for all of the site's sectors.
    """
    xs, ys = grid.pixel_centers()
    px = xs[None, :]  # (1, nx)
    py = ys[:, None]  # (ny, 1)
    offsets = layout.wrap_image_offsets()
    sites: dict[tuple[float, float], list[int]] = {}
    for idx, cell in enumerate(layout.cells):
        sites.setdefault((cell.site_x, cell.site_y), []).append(idx)
    gain = np.full((len(layout.cells), grid.ny, grid.nx), -np.inf)
    for (site_x, site_y), members in sites.items():
        for ox, oy in offsets:
            dx = px - (site_x + ox)
            dy = py - (site_y + oy)
            loss = pathloss_db(np.hypot(dx, dy))
            bearing = np.degrees(np.arctan2(dy, dx))
            for idx in members:
                cell = layout.cells[idx]
                level = cell.tx_power_dbm - loss
                if cell.azimuth_deg is not None:
                    level = level + sector_gain_db(bearing - cell.azimuth_deg)
                np.maximum(gain[idx], level, out=gain[idx])
    return gain


def _dominance(grid: GridSpec, cell_ids: np.ndarray, rsrp: np.ndarray) -> DominanceMap:
    # argmax keeps the first maximum, so ties go to the lowest cell id
    return DominanceMap(grid_spec=grid, grid=cell_ids[np.argmax(rsrp, axis=0)])


def build_radio_map(
    layout: NetworkLayout, shadowing: ShadowingField, gain: np.ndarray | None = None
) -> RadioMap:
    """The radio map of one shadowing draw; gain is `path_gain` of the layout, if already known."""
    if shadowing.fields.shape[0] != len(layout.cells):
        raise ConfigError("shadowing field count does not match layout cells")
    if gain is None:
        gain = path_gain(layout, shadowing.grid)
    rsrp = gain + shadowing.fields
    cell_ids = np.asarray(layout.cell_ids, dtype=np.int64)
    total_dbm = 10.0 * np.log10(np.sum(np.power(10.0, rsrp / 10.0), axis=0))
    return RadioMap(
        grid_spec=shadowing.grid,
        cell_ids=cell_ids,
        rsrp_dbm=rsrp,
        total_dbm=total_dbm,
        dominance=_dominance(shadowing.grid, cell_ids, rsrp),
    )


def derive_adjacency(dmap: DominanceMap) -> dict[int, frozenset[int]]:
    """Cells whose dominance areas share a pixel border (toroidal grid)."""
    grid = dmap.grid
    pairs = set()
    for a, b in ((grid, np.roll(grid, 1, axis=0)), (grid, np.roll(grid, 1, axis=1))):
        diff = a != b
        pairs.update(zip(a[diff].tolist(), b[diff].tolist()))
    adjacency: dict[int, set[int]] = {int(c): set() for c in sorted_unique(grid)}
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return {c: frozenset(n) for c, n in adjacency.items()}


def layout_adjacency(
    layout: NetworkLayout, grid: GridSpec, gain: np.ndarray | None = None
) -> dict[int, frozenset[int]]:
    """Planned neighbor relation: adjacency of the zero-shadow wedge map.

    Shadowing carves small dominance islands that would make nearly every
    cell pair "adjacent"; the planned relation uses pure geometry instead,
    the argmax of the path gain (`path_gain`, computed here if not given).
    """
    if gain is None:
        gain = path_gain(layout, grid)
    cell_ids = np.asarray(layout.cell_ids, dtype=np.int64)
    return derive_adjacency(_dominance(grid, cell_ids, gain))


def write_dominance_csv(dmap: DominanceMap, *paths) -> None:
    """One `x_index,y_index,cell_id` row per pixel, row-major, CRLF line ends.

    The map is formatted once and the same text written to every path.
    """
    lines = [DOMINANCE_HEADER + "\r\n"]
    for iy, row in enumerate(dmap.grid.tolist()):
        lines.extend(f"{ix},{iy},{cell}\r\n" for ix, cell in enumerate(row))
    text = "".join(lines)
    for path in paths:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


DOMINANCE_HEADER = "x_index,y_index,cell_id"


def load_dominance_csv(path, grid_spec: GridSpec) -> DominanceMap:
    """Read a dominance map as `write_dominance_csv` writes it: the exact header, then every pixel once, row-major.

    The rows are streamed from the open file by one `np.loadtxt` call, so
    the file's whole text is never held.
    """
    with opened(path) as fh:
        header = fh.readline().removesuffix("\n")
        if header != DOMINANCE_HEADER:
            raise DataError(f"{path}: dominance map header must be {DOMINANCE_HEADER!r}, got {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: fails the pixel check
                rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
        except UnicodeDecodeError:
            raise  # opened() names the file as not UTF-8
        except ValueError as exc:
            raise DataError(f"{path}: malformed dominance map row ({exc})") from None
    ny, nx = grid_spec.ny, grid_spec.nx
    pixels = rows.reshape(ny, nx, 3) if rows.shape == (ny * nx, 3) else None
    if pixels is None or (pixels[..., 0] != np.arange(nx)).any() or (pixels[..., 1] != np.arange(ny)[:, None]).any():
        raise DataError(f"{path}: dominance map rows must list every pixel of the {nx}x{ny} grid once, row-major")
    return DominanceMap(grid_spec=grid_spec, grid=np.ascontiguousarray(pixels[..., 2]))
