"""Per-cell RSRP grids and the strongest-cell dominance map.

RSRP at a pixel is tx power minus macro path loss plus sector gain,
maximized over the site's wrap-around images, plus the cell's shadowing
value at that pixel.  The dominance map holds the argmax cell per pixel
(ties to the lowest cell id) and is the single source of truth for both
the simulator's radio model and event-location attribution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError, DataError, ParseError
from ..mdtlog import JSON_INT, opened, sorted_unique
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


def write_dominance_csv(dmap: DominanceMap, path) -> None:
    """One `x_index,y_index,cell_id` row per pixel, row-major, CRLF line ends, in one write."""
    lines = [DOMINANCE_HEADER + "\r\n"]
    for iy, row in enumerate(dmap.grid.tolist()):
        lines.extend(f"{ix},{iy},{cell}\r\n" for ix, cell in enumerate(row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


DOMINANCE_HEADER = "x_index,y_index,cell_id"


# Rows `load_dominance_csv` parses at a time: it holds one block of lines and its parsed rows, never the whole map.
DOMINANCE_BLOCK_ROWS = 1024


def load_dominance_csv(path, grid_spec: GridSpec) -> DominanceMap:
    """Read a dominance map as `write_dominance_csv` writes it: the exact header, then every pixel once, row-major.

    The rows are read from the open file `DOMINANCE_BLOCK_ROWS` lines at
    a time.  Each block is matched against the writer's `ix,iy,cell`
    line, parsed by `np.loadtxt`, its index columns checked against the
    pixels' row-major positions and its cell column copied into the
    grid.  So neither the file's text nor its (pixels, 3) rows are ever
    held whole.  A line that is not a row as the writer writes it (other
    spacing, a sign, an empty line, no final newline) is a ParseError
    naming it, counted from the top of the file.
    """
    ny, nx = grid_spec.ny, grid_spec.nx
    misplaced = f"{path}: dominance map rows must list every pixel of the {nx}x{ny} grid once, row-major"
    cells = np.empty(ny * nx, dtype=np.int64)
    filled, lineno = 0, 2  # pixels read so far; the file line of the block's first line
    with opened(path) as fh:
        header = fh.readline().removesuffix("\n")
        if header != DOMINANCE_HEADER:
            raise DataError(f"{path}: dominance map header must be {DOMINANCE_HEADER!r}, got {header!r}")
        while lines := list(islice(fh, DOMINANCE_BLOCK_ROWS)):
            rows = _dominance_rows(path, lineno, lines)
            stop = filled + len(rows)
            pixel = np.arange(filled, stop)
            if stop > len(cells) or (rows[:, 0] != pixel % nx).any() or (rows[:, 1] != pixel // nx).any():
                raise DataError(misplaced)
            cells[filled:stop] = rows[:, 2]
            filled, lineno = stop, lineno + len(lines)
    if filled < len(cells):
        raise DataError(misplaced)
    return DominanceMap(grid_spec=grid_spec, grid=cells.reshape(ny, nx))


# A line `write_dominance_csv` writes after its header, read with universal newlines.
_INDEX = JSON_INT.removeprefix("-?")  # a non-negative JSON integer
_DOMINANCE_ROW = re.compile(rf"^{_INDEX},{_INDEX},{JSON_INT}\n", re.MULTILINE | re.ASCII)


def _dominance_rows(path, lineno, lines) -> np.ndarray:
    """The (rows, 3) int64 array of a block of a dominance map's lines, whose first is line lineno of path.

    Every line must be a row as `write_dominance_csv` writes it: the
    first that is not is a ParseError naming it.  An integer outside 64
    bits is a DataError.
    """
    if len(_DOMINANCE_ROW.findall("".join(lines))) < len(lines):  # each match is one whole line
        k = next(k for k, line in enumerate(lines) if not _DOMINANCE_ROW.fullmatch(line))
        row = lines[k].removesuffix("\n")
        raise ParseError(path, lineno + k, f"malformed dominance map row: {row[:60]!r}")
    try:
        return np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except ValueError:  # the pattern admits only integers: one is outside 64 bits
        raise DataError(f"{path}: integer field outside the 64-bit range") from None
