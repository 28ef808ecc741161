"""Per-cell sleeping-cell scores from anomalous sub-calls.

Four post-processing methods convert anomaly decisions into a score per
cell, each normalized by the distinct-UE count of its dataset
chunk so scores do not depend on dataset size:

  dominance sub-call deviation    anomalous sub-calls per dominance cell,
                                  testing minus training rate
  dominance 2-gram deviation      per-(cell, event-pair) rate change,
                                  each pair split 0.5/0.5 between the
                                  dominance cells of its two events
  2-gram symmetry deviation       change in the directed imbalance of
                                  border 2-grams between adjacent cells
  target-cell sub-calls           distinct target cells of anomalous
                                  sub-calls (needs no location data)

The symmetry method supports two direction semantics.  The default
("handover") directs a 2-gram ending in HO COMMAND from its serving to
its target cell, so a cell that stops accepting handovers while traffic
keeps flowing out of its area skews every border ratio toward it.  The
alternative ("location") directs a 2-gram from the dominance cell of
its first event to that of its second; it is retained for comparison
but pure mobility keeps those counts nearly symmetric.

Amplification divides each cell's score by the summed score of its
non-neighbors, normalization rescales to a sum of 100, and combination
re-normalizes a weighted mean of the normalized methods.  Every score
vector is a plain float array ordered like the suite's `cell_ids`; the
3-sigma labels are set in `pipeline.aggregate_method`.

The methods read columnar chunks (`mdtlog.Chunk`), whose records carry
their dominance-cell index, and sub-calls given as (start, stop) record
ranges into them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import DataError
from .featurize import decode_gram, gram_codes, gram_positions
from .mdtlog import NO_TARGET, Chunk, EventId, lookup_index

AMPLIFY_EPSILON = 1e-9

METHOD_NAMES = ("subcall", "gram", "symmetry", "target")


def _empty(cell_ids) -> np.ndarray:
    return np.zeros(len(cell_ids), dtype=np.float64)


def _index(cell_ids) -> dict[int, int]:
    return {c: i for i, c in enumerate(cell_ids)}


def _windows_per_cell(rows, cells, n_cells: int) -> np.ndarray:
    """Per cell, the number of distinct window rows paired with it."""
    pairs = np.unique(rows * n_cells + cells)
    return np.bincount(pairs % n_cells, minlength=n_cells).astype(np.float64)


def sc_dominance_subcall_deviation(
    cell_ids,
    train: Chunk,
    train_anom_windows,
    train_ue_count: int,
    test: Chunk,
    test_anom_windows,
    test_ue_count: int,
) -> np.ndarray:
    """Rate of anomalous sub-calls touching each cell, testing minus training.

    A sub-call touches the dominance cells of its records' locations; the
    windows are (start, stop) record ranges into their chunk.
    """

    def rates(chunk, windows, ue_count):
        rows, pos = gram_positions(windows, 1)
        return _windows_per_cell(rows, chunk.cell[pos], len(cell_ids)) / max(ue_count, 1)

    f_train = rates(train, train_anom_windows, train_ue_count)
    f_test = rates(test, test_anom_windows, test_ue_count)
    return np.maximum(f_test - f_train, 0.0)


def _gram_cell_rates(chunk: Chunk, windows, ue_count: int, n_cells: int) -> dict[tuple, np.ndarray]:
    """Per 2-gram, per cell: attributed instance count / distinct UEs.

    Each instance credits 0.5 to the dominance cell of each of its two
    event locations.  Keys are (event, event) tuples in order of first
    occurrence, so that iterating a set of them is reproducible.
    """
    _, pos = gram_positions(windows, 2)
    keys, first, column = np.unique(
        gram_codes(chunk.log.event, pos, 2), return_index=True, return_inverse=True
    )
    slots = np.concatenate([column * n_cells + chunk.cell[pos], column * n_cells + chunk.cell[pos + 1]])
    credits = np.bincount(slots, minlength=len(keys) * n_cells).reshape(len(keys), n_cells)
    rates = credits * 0.5 / max(ue_count, 1)
    return {decode_gram(keys[k], 2): rates[k] for k in np.argsort(first)}


def sc_dominance_2gram_deviation(
    cell_ids,
    train: Chunk,
    train_windows,
    train_ue_count: int,
    test: Chunk,
    test_anom_windows,
    test_ue_count: int,
) -> np.ndarray:
    """Sum over 2-grams of |testing rate - training rate| per cell.

    Training rates run over all training sub-calls; testing rates over the
    anomalous testing sub-calls (configurable upstream by passing all of
    them instead).
    """
    f_train = _gram_cell_rates(train, train_windows, train_ue_count, len(cell_ids))
    f_test = _gram_cell_rates(test, test_anom_windows, test_ue_count, len(cell_ids))
    scores = _empty(cell_ids)
    # Summed in set order, one key at a time: the float sum depends on it.
    for key in set(f_train) | set(f_test):
        a = f_test.get(key)
        b = f_train.get(key)
        if a is None:
            scores += np.abs(b)
        elif b is None:
            scores += np.abs(a)
        else:
            scores += np.abs(a - b)
    return scores


def _directed_crossings(chunk: Chunk, cell_ids) -> dict[tuple[int, int], int]:
    """Counts of consecutive events of a call whose dominance cells differ."""
    if len(chunk.log) < 2:
        return {}
    same_call = np.ones(len(chunk.log) - 1, dtype=bool)
    same_call[chunk.call_bounds[1:-1] - 1] = False
    a, b = chunk.cell[:-1], chunk.cell[1:]
    keep = same_call & (a != b)
    ids = np.asarray(cell_ids)
    return Counter(zip(ids[a[keep]].tolist(), ids[b[keep]].tolist()))


def _directed_handovers(chunk: Chunk) -> dict[tuple[int, int], int]:
    """Counts of 2-grams ending in HO COMMAND, directed serving -> target."""
    log = chunk.log
    keep = (log.event == int(EventId.HO_COMMAND)) & (log.target != NO_TARGET) & (log.serving != log.target)
    keep[chunk.call_bounds[:-1]] = False  # a call's first event ends no 2-gram
    return Counter(zip(log.serving[keep].tolist(), log.target[keep].tolist()))


def _imbalance(counts, a: int, b: int) -> float:
    forward = counts.get((a, b), 0)
    backward = counts.get((b, a), 0)
    total = forward + backward
    if total == 0:
        return 0.0
    return (forward - backward) / total


def sc_2gram_symmetry_deviation(
    cell_ids,
    train: Chunk,
    test: Chunk,
    adjacency: dict[int, frozenset[int]],
    mode: str = "handover",
) -> np.ndarray:
    """Change in the directed imbalance of border 2-grams, summed over neighbors.

    Profiles the full fold logs (not only flagged rows): for adjacent
    cells A and B, the imbalance is (n(A->B) - n(B->A)) / (n(A->B) + n(B->A)).
    mode selects the direction semantics (see module docstring).
    """
    if mode == "handover":
        train_counts = _directed_handovers(train)
        test_counts = _directed_handovers(test)
    elif mode == "location":
        train_counts = _directed_crossings(train, cell_ids)
        test_counts = _directed_crossings(test, cell_ids)
    else:
        raise DataError(f"unknown symmetry mode {mode!r}")
    scores = _empty(cell_ids)
    idx = _index(cell_ids)
    for cell in cell_ids:
        total = 0.0
        for other in sorted(adjacency.get(cell, ())):
            total += abs(
                _imbalance(test_counts, cell, other) - _imbalance(train_counts, cell, other)
            )
        scores[idx[cell]] = total
    return scores


def sc_target_cell_subcalls(
    cell_ids,
    test: Chunk,
    test_anom_windows,
    test_ue_count: int,
) -> np.ndarray:
    """Distinct target cells per anomalous sub-call; no location data needed."""
    rows, pos = gram_positions(test_anom_windows, 1)
    target = lookup_index(test.log.target[pos], cell_ids)
    known = target >= 0
    scores = _windows_per_cell(rows[known], target[known], len(cell_ids))
    return scores / max(test_ue_count, 1)


def amplify(
    scores: np.ndarray,
    cell_ids,
    adjacency: dict[int, frozenset[int]],
    epsilon: float = AMPLIFY_EPSILON,
) -> np.ndarray:
    """Divide each score by the summed score of its non-neighbor cells."""
    total = float(scores.sum())
    values = scores.tolist()
    out = np.empty_like(scores)
    for i, cell in enumerate(cell_ids):
        excluded = {cell} | set(adjacency.get(cell, ()))
        # A sequential sum in cell order: the float result depends on it.
        non_neighbor = total - sum(v for v, c in zip(values, cell_ids) if c in excluded)
        out[i] = scores[i] / (non_neighbor + epsilon)
    return out


def normalize(scores: np.ndarray) -> np.ndarray:
    """Rescale to sum 100; an all-zero score vector becomes uniform."""
    total = float(scores.sum())
    if total <= 0.0:
        return np.full(len(scores), 100.0 / len(scores))
    return 100.0 * scores / total


def combine(parts, weights=None) -> np.ndarray:
    """Weighted per-cell mean of normalized score vectors, re-normalized."""
    if not parts:
        raise DataError("nothing to combine")
    if weights is None:
        weights = [1.0] * len(parts)
    if len(weights) != len(parts):
        raise DataError("one weight per score vector required")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise DataError("weights must sum to a positive value")
    return normalize(sum(w * p for w, p in zip(weights, parts)) / wsum)
