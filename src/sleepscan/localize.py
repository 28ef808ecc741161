"""Per-cell sleeping-cell scores from anomalous sub-calls.

Four post-processing methods convert anomaly decisions into a histogram
over cells, each normalized by the distinct-UE count of its dataset
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
non-neighbors, normalization rescales to a sum of 100, and labeling
flags cells more than three pooled standard deviations above the mean.

The methods read columnar chunks (`mdtlog.Chunk`), whose records carry
their dominance-cell index, and sub-calls given as (start, stop) record
ranges into them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .featurize import decode_gram, gram_codes, gram_positions
from .mdtlog import NO_TARGET, Chunk, EventId, lookup_index

AMPLIFY_EPSILON = 1e-9

METHOD_NAMES = ("subcall", "gram", "symmetry", "target")


@dataclass(frozen=True)
class SleepingCellHistogram:
    cell_ids: tuple[int, ...]
    scores: np.ndarray
    stage: str  # raw | amplified | normalized

    def __post_init__(self):
        if len(self.cell_ids) != len(self.scores):
            raise DataError("histogram cell/score length mismatch")

    def score_of(self, cell_id: int) -> float:
        return float(self.scores[self.cell_ids.index(cell_id)])

    def argmax_cell(self) -> int:
        return self.cell_ids[int(np.argmax(self.scores))]


@dataclass(frozen=True)
class CellLabels:
    cell_ids: tuple[int, ...]
    abnormal: tuple[bool, ...]
    mean: float
    sigma: float

    def abnormal_cells(self) -> list[int]:
        return [c for c, flag in zip(self.cell_ids, self.abnormal) if flag]


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
) -> SleepingCellHistogram:
    """Rate of anomalous sub-calls touching each cell, testing minus training.

    A sub-call touches the dominance cells of its records' locations; the
    windows are (start, stop) record ranges into their chunk.
    """

    def rates(chunk, windows, ue_count):
        rows, pos = gram_positions(windows, 1)
        return _windows_per_cell(rows, chunk.cell[pos], len(cell_ids)) / max(ue_count, 1)

    f_train = rates(train, train_anom_windows, train_ue_count)
    f_test = rates(test, test_anom_windows, test_ue_count)
    return SleepingCellHistogram(tuple(cell_ids), np.maximum(f_test - f_train, 0.0), "raw")


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
) -> SleepingCellHistogram:
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
    return SleepingCellHistogram(tuple(cell_ids), scores, "raw")


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
) -> SleepingCellHistogram:
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
    return SleepingCellHistogram(tuple(cell_ids), scores, "raw")


def sc_target_cell_subcalls(
    cell_ids,
    test: Chunk,
    test_anom_windows,
    test_ue_count: int,
) -> SleepingCellHistogram:
    """Distinct target cells per anomalous sub-call; no location data needed."""
    rows, pos = gram_positions(test_anom_windows, 1)
    target = lookup_index(test.log.target[pos], cell_ids)
    known = target >= 0
    scores = _windows_per_cell(rows[known], target[known], len(cell_ids))
    return SleepingCellHistogram(tuple(cell_ids), scores / max(test_ue_count, 1), "raw")


def amplify(
    h: SleepingCellHistogram,
    adjacency: dict[int, frozenset[int]],
    epsilon: float = AMPLIFY_EPSILON,
) -> SleepingCellHistogram:
    """Divide each score by the summed score of its non-neighbor cells."""
    total = float(h.scores.sum())
    out = np.empty_like(h.scores)
    for i, cell in enumerate(h.cell_ids):
        excluded = {cell} | set(adjacency.get(cell, ()))
        non_neighbor = total - sum(
            h.scores[j] for j, c in enumerate(h.cell_ids) if c in excluded
        )
        out[i] = h.scores[i] / (non_neighbor + epsilon)
    return SleepingCellHistogram(h.cell_ids, out, "amplified")


def normalize(h: SleepingCellHistogram) -> SleepingCellHistogram:
    """Rescale to sum 100; an all-zero histogram becomes uniform."""
    total = float(h.scores.sum())
    if total <= 0.0:
        scores = np.full(len(h.cell_ids), 100.0 / len(h.cell_ids))
    else:
        scores = 100.0 * h.scores / total
    return SleepingCellHistogram(h.cell_ids, scores, "normalized")


def combine(histograms, weights=None) -> SleepingCellHistogram:
    """Weighted per-cell mean of normalized histograms, re-normalized."""
    if not histograms:
        raise DataError("nothing to combine")
    cell_ids = histograms[0].cell_ids
    for h in histograms:
        if h.cell_ids != cell_ids:
            raise DataError("histograms cover different cell sets")
    if weights is None:
        weights = [1.0] * len(histograms)
    if len(weights) != len(histograms):
        raise DataError("one weight per histogram required")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise DataError("weights must sum to a positive value")
    mean = sum(w * h.scores for w, h in zip(weights, histograms)) / wsum
    return normalize(SleepingCellHistogram(cell_ids, mean, "raw"))


def pooled_stats(score_runs) -> tuple[float, float]:
    """Mean and population standard deviation over all (run, cell) scores."""
    pooled = np.concatenate([np.asarray(s, dtype=np.float64) for s in score_runs])
    return float(pooled.mean()), float(pooled.std())


def label_cells(cell_ids, score_runs, stats: tuple[float, float] | None = None) -> CellLabels:
    """Abnormal iff the per-cell mean exceeds mean + 3 sigma of pooled scores.

    stats may carry externally pooled (mean, sigma), e.g. pooled over both
    the problematic and reference pairings.
    """
    if not score_runs:
        raise DataError("labeling needs at least one run")
    matrix = np.vstack([np.asarray(s, dtype=np.float64) for s in score_runs])
    mean, sigma = pooled_stats(score_runs) if stats is None else stats
    threshold = mean + 3.0 * sigma
    per_cell_mean = matrix.mean(axis=0)
    return CellLabels(
        cell_ids=tuple(cell_ids),
        abnormal=tuple(bool(v) for v in per_cell_mean > threshold),
        mean=mean,
        sigma=sigma,
    )


def label_single_runs(cell_ids, score_runs, stats: tuple[float, float]) -> list[CellLabels]:
    """Per-run labels against an externally pooled 3 sigma threshold."""
    mean, sigma = stats
    threshold = mean + 3.0 * sigma
    out = []
    for run in score_runs:
        run = np.asarray(run, dtype=np.float64)
        out.append(
            CellLabels(
                cell_ids=tuple(cell_ids),
                abnormal=tuple(bool(v) for v in run > threshold),
                mean=mean,
                sigma=sigma,
            )
        )
    return out
