"""Minor-component embedding of the 2-gram feature space.

The training matrix is column-centered, its covariance eigendecomposed,
and rows are projected onto the eigenvectors with the smallest
eigenvalues.  Test data is always projected with the training mean and
basis.  The number of retained components comes from the eigenvalue-gap
variance-ratio statistic (sorte_select) or a fixed configuration value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

EIGENVALUE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EigenBasis:
    """Training-set covariance spectrum: mean, eigenvalues (descending), eigenvectors."""

    mean: np.ndarray          # (p,)
    eigenvalues: np.ndarray   # (p,) descending, >= 0
    eigenvectors: np.ndarray  # (p, p) columns aligned with eigenvalues

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def fit_basis(train: np.ndarray) -> EigenBasis:
    """Eigendecompose the covariance of the training rows.

    Covariance uses the unbiased (rows - 1) divisor; tiny negative
    eigenvalues from symmetric-matrix numerics are clamped to zero.
    """
    X = np.asarray(train, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] < 2:
        raise DataError("basis fit needs a 2-D matrix with at least 2 columns")
    rows = X.shape[0]
    if rows < 2:
        raise DataError(f"basis fit needs at least 2 rows, got {rows}")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (rows - 1)
    values, vectors = np.linalg.eigh(cov)  # ascending
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    if values[-1] < -EIGENVALUE_TOLERANCE:
        raise DataError(f"covariance eigenvalue {values[-1]:g} below tolerance")
    np.clip(values, 0.0, None, out=values)
    return EigenBasis(mean=mean, eigenvalues=values, eigenvectors=vectors)


def sorte_select(eigenvalues) -> int:
    """Component count from the gap-variance-ratio statistic.

    For a descending spectrum with gaps g_i = lambda_i - lambda_{i+1},
    Var_k is the population variance of g_k..g_{p-1} (1-based), and the
    score at k is Var_{k+1} / Var_k.  k with the smallest score wins
    (smallest k on ties); k where both variances vanish are excluded.
    A spectrum with no valid k (e.g. all eigenvalues equal) returns
    min(6, p).
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    p = len(values)
    if p < 4:
        raise DataError(
            "component selection needs at least 4 eigenvalues; "
            "configure a fixed component count instead"
        )
    gaps = values[:-1] - values[1:]  # g_1..g_{p-1}, 0-based index i-1

    def var_from(k: int) -> float:
        tail = gaps[k - 1 :]
        return float(np.mean((tail - tail.mean()) ** 2))

    best_k = None
    best_score = np.inf
    for k in range(1, p - 2):  # k = 1..p-3
        var_k = var_from(k)
        var_next = var_from(k + 1)
        if var_k > 0.0:
            score = var_next / var_k
        elif var_next > 0.0:
            score = np.inf
        else:
            continue
        if score < best_score:
            best_score = score
            best_k = k
    if best_k is None:
        return min(6, p)
    return best_k


def project_minor(basis: EigenBasis, X: np.ndarray, d: int) -> np.ndarray:
    """Project rows onto the d smallest-eigenvalue directions.

    X has the basis's columns and 1 <= d <= basis.dim, as `run_fold`
    gives them.  Columns are ordered from the smallest eigenvalue up.
    """
    X = np.asarray(X, dtype=np.float64)
    minor = basis.eigenvectors[:, ::-1][:, :d]  # smallest eigenvalue first
    return (X - basis.mean) @ minor
