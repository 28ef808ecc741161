"""Per-cell lognormal (in dB) slow-fading fields on the scenario grid.

Fields are spatially correlated white noise, gaussian-smoothed with
wrap-around boundary and renormalized per cell to exactly zero mean and
the configured standard deviation over the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layout import GridSpec, NetworkLayout


@dataclass(frozen=True)
class ShadowingField:
    grid: GridSpec
    sigma_db: float
    seed: int
    fields: np.ndarray  # (n_cells, ny, nx) dB

    @classmethod
    def zeros(cls, grid: GridSpec, n_cells: int, seed: int = 0) -> "ShadowingField":
        return cls(grid=grid, sigma_db=0.0, seed=seed, fields=np.zeros((n_cells, grid.ny, grid.nx)))


def make_shadowing(
    layout: NetworkLayout,
    grid: GridSpec,
    sigma_db: float = 8.0,
    correlation_m: float = 40.0,
    seed: int = 0,
) -> ShadowingField:
    # Imported here: scipy takes longer to import than detect takes to run.
    from scipy.ndimage import gaussian_filter

    n_cells = len(layout.cells)
    if sigma_db == 0.0:
        return ShadowingField.zeros(grid, n_cells, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma_px = max(correlation_m / grid.resolution_m, 1e-6)
    fields = np.empty((n_cells, grid.ny, grid.nx))
    for c in range(n_cells):
        noise = rng.standard_normal((grid.ny, grid.nx))
        smooth = gaussian_filter(noise, sigma=sigma_px, mode="wrap")
        smooth -= smooth.mean()
        std = smooth.std()
        fields[c] = smooth * (sigma_db / std)
    return ShadowingField(grid=grid, sigma_db=sigma_db, seed=seed, fields=fields)
