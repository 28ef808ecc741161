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


def gaussian_filter_wrap(values: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing with periodic boundaries along every axis, in order.

    The same arithmetic, in the same order, as scipy.ndimage's
    `gaussian_filter(mode="wrap")`: a kernel exp(-x^2 / 2 sigma^2) of
    radius int(4 sigma + 0.5) normalized by its sum, and each output the
    center term plus (left + right) * weight from the outermost pair in.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x**2)
    weights = weights / weights.sum()
    out = np.asarray(values, dtype=np.float64)
    for axis in range(out.ndim):
        n = out.shape[axis]
        padded = np.take(out, np.arange(-radius, n + radius) % n, axis=axis)

        def shifted(j):
            index = [slice(None)] * padded.ndim
            index[axis] = slice(radius + j, radius + j + n)
            return padded[tuple(index)]

        out = out * weights[radius]
        pair = np.empty_like(out)
        for j in range(radius, 0, -1):
            np.add(shifted(-j), shifted(j), out=pair)
            pair *= weights[radius - j]
            out += pair
    return out


def make_shadowing(
    layout: NetworkLayout,
    grid: GridSpec,
    sigma_db: float = 8.0,
    correlation_m: float = 40.0,
    seed: int = 0,
) -> ShadowingField:
    n_cells = len(layout.cells)
    if sigma_db == 0.0:
        return ShadowingField.zeros(grid, n_cells, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma_px = max(correlation_m / grid.resolution_m, 1e-6)
    fields = np.empty((n_cells, grid.ny, grid.nx))
    for c in range(n_cells):
        noise = rng.standard_normal((grid.ny, grid.nx))
        smooth = gaussian_filter_wrap(noise, sigma_px)
        smooth -= smooth.mean()
        std = smooth.std()
        fields[c] = smooth * (sigma_db / std)
    return ShadowingField(grid=grid, sigma_db=sigma_db, seed=seed, fields=fields)
