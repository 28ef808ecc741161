"""Semi-supervised k-NN anomaly scoring with percentile thresholding.

Every sub-call gets the sum of Euclidean distances to its k nearest
training rows in the embedded space; the decision threshold is a
percentile of the training scores (k and the percentile are the run's
`knn_k` and `threshold_percentile`, 35 and the 95th by default) and
classification is strictly greater-than, so a constant-score training
set flags nothing.

Sub-calls are short n-gram count vectors, so most embedded rows repeat.
The scorer works on the distinct rows (`distinct_rows`): each distinct
query row is scored once against the distinct training rows, each
training distance standing for as many neighbours as the training set
holds copies of that row, and the score is copied back to every query
row with the same bytes.  Rows with equal bytes go through identical
float operations, so the scores are those of the all-pairs computation
bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["knn_scores", "distinct_rows", "fit_threshold", "classify"]

_BLOCK_ROWS = 512  # query rows per distance block, to bound its memory


def knn_scores(train_emb, query_emb, k: int, exclude_self: bool = False, train_distinct=None) -> np.ndarray:
    """Sum of Euclidean distances to the k nearest training rows, per query row.

    With exclude_self=True, query must be the training matrix itself
    (row-aligned); the zero self-distance of row i is skipped.
    train_distinct, if given, is `distinct_rows` of the training matrix,
    so that a fold scoring its training and testing rows finds the
    distinct training rows once.

    Train and query rows are deduplicated by their bytes.  The squared
    distance between a distinct query row and a distinct training row
    accumulates one dimension at a time; the k nearest are taken from
    the smallest distinct distances, each repeated as often as its
    training row occurs (one copy fewer for the query's own row under
    exclude_self), and their square roots are summed in ascending order.
    A duplicate row gets the same float operations as its first copy,
    and a repeated distance is added as often as it occurs, never
    multiplied, so the scores equal a per-pair Python loop bit for bit.
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
    if exclude_self and (query.shape != train.shape or not np.array_equal(query, train, equal_nan=True)):
        raise ValueError("exclude_self requires query to be the training set itself")
    k = int(k)
    available = train.shape[0] - 1 if exclude_self else train.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > available:
        raise ValueError(f"k={k} exceeds available neighbors ({available})")

    train_rows, train_of, train_counts = distinct_rows(train) if train_distinct is None else train_distinct
    if exclude_self:
        query_rows, query_of = train_rows, train_of
    else:
        query_rows, query_of, _ = distinct_rows(query)
    n_train, dim = train_rows.shape
    n_query = query_rows.shape[0]
    # Under exclude_self one candidate may be the query's own row with
    # no copy left; one more candidate still leaves at least k copies.
    n_cand = min(k + int(exclude_self), n_train)
    out = np.empty(n_query, dtype=np.float64)
    for start in range(0, n_query, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_query)
        block = query_rows[start:stop]
        d2 = np.zeros((stop - start, n_train), dtype=np.float64)
        for j in range(dim):
            diff = block[:, j, None] - train_rows[None, :, j]
            d2 += diff * diff
        cand = np.argpartition(d2, n_cand - 1, axis=1)[:, :n_cand]
        cand = np.take_along_axis(cand, np.take_along_axis(d2, cand, axis=1).argsort(axis=1), axis=1)
        copies = train_counts[cand]
        if exclude_self:
            copies -= cand == np.arange(start, stop)[:, None]
        before = np.cumsum(copies, axis=1) - copies
        take = np.clip(k - before, 0, copies)
        dist = np.sqrt(np.take_along_axis(d2, cand, axis=1))
        nearest = np.repeat(dist.ravel(), take.ravel()).reshape(stop - start, k)
        out[start:stop] = np.cumsum(nearest, axis=1)[:, -1]
    return out[query_of]


def distinct_rows(rows):
    """The distinct rows of a 2-D float64 array by their bits, the index of
    each row's distinct row, and each distinct row's count.

    Rows are keyed by a sort on their int64 bit columns; the distinct
    rows come in that sort's order, which no score depends on.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n, dim = rows.shape
    if dim == 0:  # no bits to compare: every row is the same empty row
        return rows[:1], np.zeros(n, dtype=np.intp), np.full(min(n, 1), n)
    bits = rows.view(np.int64)
    order = np.lexsort(bits.T)
    ordered = bits[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    return rows[order[first]], inverse, np.diff(np.append(first, n))


def fit_threshold(train_scores, percentile: float) -> float:
    """Nearest-rank percentile of the training scores."""
    scores = np.sort(np.asarray(train_scores, dtype=np.float64))
    if scores.size == 0:
        raise ValueError("cannot fit a threshold on empty scores")
    rank = math.ceil(percentile / 100.0 * scores.size)
    rank = min(max(rank, 1), scores.size)
    return float(scores[rank - 1])


def classify(scores, threshold: float) -> np.ndarray:
    """Anomalous iff score strictly exceeds the threshold."""
    return np.asarray(scores, dtype=np.float64) > threshold
