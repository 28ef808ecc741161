"""Semi-supervised k-NN anomaly scoring with percentile thresholding.

Every sub-call gets the sum of Euclidean distances to its k nearest
training rows in the embedded space; the decision threshold is the
95th percentile of the training scores and classification is strictly
greater-than, so a constant-score training set flags nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Threshold", "knn_scores", "fit_threshold", "classify"]

DEFAULT_K = 35
DEFAULT_PERCENTILE = 95.0
_BLOCK_ROWS = 512  # query rows per distance block, to bound its memory


@dataclass(frozen=True)
class Threshold:
    value: float
    percentile: float = DEFAULT_PERCENTILE


def knn_scores(train_emb, query_emb, k: int = DEFAULT_K, exclude_self: bool = False) -> np.ndarray:
    """Sum of Euclidean distances to the k nearest training rows, per query row.

    With exclude_self=True, query must be the training matrix itself
    (row-aligned); the zero self-distance of row i is skipped.  The
    squared distance accumulates one dimension at a time and the k
    smallest distances are summed in ascending order, so the scores
    equal a per-pair Python loop bit for bit.
    """
    train = np.ascontiguousarray(train_emb, dtype=np.float64)
    query = np.ascontiguousarray(query_emb, dtype=np.float64)
    if train.ndim != 2 or query.ndim != 2:
        raise ValueError("train and query must be 2-D")
    if train.shape[1] != query.shape[1]:
        raise ValueError(
            f"dimension mismatch: train has {train.shape[1]} columns, "
            f"query has {query.shape[1]}"
        )
    if exclude_self and query.shape[0] != train.shape[0]:
        raise ValueError("exclude_self requires query to be the training set itself")
    k = int(k)
    available = train.shape[0] - 1 if exclude_self else train.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > available:
        raise ValueError(f"k={k} exceeds available neighbors ({available})")

    n_train, dim = train.shape
    n_query = query.shape[0]
    out = np.empty(n_query, dtype=np.float64)
    for start in range(0, n_query, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_query)
        block = query[start:stop]
        d2 = np.zeros((stop - start, n_train), dtype=np.float64)
        for j in range(dim):
            diff = block[:, j, None] - train[None, :, j]
            d2 += diff * diff
        if exclude_self:
            d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        smallest = np.partition(d2, k - 1, axis=1)[:, :k]
        smallest.sort(axis=1)
        out[start:stop] = np.cumsum(np.sqrt(smallest), axis=1)[:, -1]
    return out


def fit_threshold(train_scores, percentile: float = DEFAULT_PERCENTILE) -> Threshold:
    """Nearest-rank percentile of the training scores."""
    scores = np.sort(np.asarray(train_scores, dtype=np.float64))
    if scores.size == 0:
        raise ValueError("cannot fit a threshold on empty scores")
    rank = math.ceil(percentile / 100.0 * scores.size)
    rank = min(max(rank, 1), scores.size)
    return Threshold(value=float(scores[rank - 1]), percentile=percentile)


def classify(scores, threshold: Threshold) -> np.ndarray:
    """Anomalous iff score strictly exceeds the threshold."""
    return np.asarray(scores, dtype=np.float64) > threshold.value
