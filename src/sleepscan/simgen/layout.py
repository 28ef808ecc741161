"""Scenario geometry: hexagonal site grid, sector cells, wrap-around.

The default scenario is 7 three-sector macro sites (21 cells) with
500 m inter-site distance.  Wrap-around is approximated by mirroring
each site across the cluster lattice: signal paths use the strongest
of the site's seven images, which removes the network edge for both
the dominance map and the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Macro path loss, distance floored to keep the near field finite.
PATHLOSS_MIN_DISTANCE_M = 35.0
# Sector antenna pattern: 3 dB beamwidth and the attenuation floor behind the sector.
SECTOR_THETA_3DB_DEG = 65.0
SECTOR_MAX_ATTENUATION_DB = 30.0


def pathloss_db(distance_m):
    """128.1 + 37.6 log10(d_km) macro path loss, d floored at 35 m."""
    d_km = np.maximum(np.asarray(distance_m, dtype=np.float64), PATHLOSS_MIN_DISTANCE_M) / 1000.0
    return 128.1 + 37.6 * np.log10(d_km)


def sector_gain_db(angle_off_boresight_deg):
    """Parabolic 3-sector antenna pattern, 0 dB at boresight."""
    theta = np.mod(np.asarray(angle_off_boresight_deg, dtype=np.float64) + 180.0, 360.0) - 180.0
    return -np.minimum(12.0 * (theta / SECTOR_THETA_3DB_DEG) ** 2, SECTOR_MAX_ATTENUATION_DB)


@dataclass(frozen=True)
class Cell:
    cell_id: int
    site_x: float
    site_y: float
    azimuth_deg: float | None  # None = omnidirectional (used in tests)
    tx_power_dbm: float


@dataclass(frozen=True)
class GridSpec:
    """Pixel grid shared by shadowing fields, RSRP maps and the dominance map."""

    origin_x: float
    origin_y: float
    resolution_m: float  # > 0, as RunConfig's map_resolution_m is
    nx: int
    ny: int

    def pixel_centers(self):
        xs = self.origin_x + (np.arange(self.nx) + 0.5) * self.resolution_m
        ys = self.origin_y + (np.arange(self.ny) + 0.5) * self.resolution_m
        return xs, ys

    def indices_for(self, x, y):
        """Clipped (iy, ix) pixel indices for coordinates."""
        ix = np.clip(((np.asarray(x) - self.origin_x) / self.resolution_m).astype(np.int64), 0, self.nx - 1)
        iy = np.clip(((np.asarray(y) - self.origin_y) / self.resolution_m).astype(np.int64), 0, self.ny - 1)
        return iy, ix

    @property
    def extent(self):
        return (
            self.origin_x,
            self.origin_x + self.nx * self.resolution_m,
            self.origin_y,
            self.origin_y + self.ny * self.resolution_m,
        )


@dataclass
class NetworkLayout:
    cells: list[Cell]  # at least one, with contiguous ids in ascending order, as `macro21_layout` builds them
    inter_site_distance: float
    wrap_around: bool

    @property
    def cell_ids(self) -> list[int]:
        return [c.cell_id for c in self.cells]

    def index_of(self, cell_id: int) -> int:
        return cell_id - self.cells[0].cell_id

    def wrap_image_offsets(self) -> np.ndarray:
        """Site image displacements: origin plus, when wrapped, the six
        cluster-lattice translations of length ISD*sqrt(7)."""
        if not self.wrap_around:
            return np.zeros((1, 2))
        isd = self.inter_site_distance
        base = np.array([2.5 * isd, math.sqrt(3.0) / 2.0 * isd])
        offsets = [np.zeros(2)]
        for rot in range(6):
            ang = math.radians(60.0 * rot)
            c, s = math.cos(ang), math.sin(ang)
            offsets.append(np.array([c * base[0] - s * base[1], s * base[0] + c * base[1]]))
        return np.stack(offsets)


def macro21_layout(
    inter_site_distance: float, tx_power_dbm: float, cell_id_base: int, wrap_around: bool
) -> NetworkLayout:
    """Seven 3-sector sites: one central, six on a ring at the ISD."""
    sites = [(0.0, 0.0)]
    for k in range(6):
        ang = math.radians(60.0 * k)
        sites.append((inter_site_distance * math.cos(ang), inter_site_distance * math.sin(ang)))
    cells = []
    for s, (sx, sy) in enumerate(sites):
        for sector in range(3):
            cells.append(
                Cell(
                    cell_id=cell_id_base + 3 * s + sector,
                    site_x=sx,
                    site_y=sy,
                    azimuth_deg=120.0 * sector,
                    tx_power_dbm=tx_power_dbm,
                )
            )
    return NetworkLayout(cells=cells, inter_site_distance=inter_site_distance, wrap_around=wrap_around)
