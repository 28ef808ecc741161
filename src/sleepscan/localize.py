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

The neighbor relation is one (cells, cells) boolean matrix per run
(`adjacency_matrix`) in `cell_ids` order, which ascends, since the layout
numbers its cells from `cell_id_base` up: symmetry and amplification add
a matrix row left to right, the same floats in the same order as a loop
over sorted neighbor ids.

Work is split by what it depends on:

  per run    the neighbor matrix (`adjacency_matrix`)
  per chunk  `chunk_tables` reads a columnar chunk (`mdtlog.Chunk`), whose
             records carry their dominance-cell index, and its sub-calls,
             (start, stop) record ranges into it: the symmetry imbalance,
             the distinct (sub-call, dominance cell) and (sub-call, target
             cell) pairs, and the 2-gram rates over all sub-calls
  per fold   the four `sc_*` comparisons of a training and a testing
             chunk's tables, given each chunk's anomalous sub-calls as a
             bool mask; only the 2-gram rates of the anomalous testing
             sub-calls are counted per fold, from the testing chunk's records

A fold's sub-call and target counts are one `bincount` over the pairs
whose sub-call is anomalous: the integers, and so the floats, of
counting the anomalous sub-calls themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featurize import decode_gram, gram_codes, gram_positions
from .mdtlog import Chunk, EventId, lookup_index, sorted_unique

AMPLIFY_EPSILON = 1e-9

METHOD_NAMES = ("subcall", "gram", "symmetry", "target")


def adjacency_matrix(adjacency, cell_ids) -> np.ndarray:
    """(cells, cells) flags ordered like cell_ids: row i marks the cells
    listed as neighbors of cell_ids[i], each one of cell_ids (`load_suite`
    checks a suite's adjacency)."""
    adjacent = np.zeros((len(cell_ids), len(cell_ids)), dtype=bool)
    for i, cell in enumerate(cell_ids):
        adjacent[i, lookup_index(np.fromiter(adjacency.get(cell, ()), dtype=np.int64), cell_ids)] = True
    return adjacent


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Per row, the sum of its entries added one by one from the left."""
    return np.cumsum(values, axis=1)[:, -1]


@dataclass(frozen=True, eq=False)
class ChunkTables:
    """One chunk's side of every localizer comparison, whatever fold it is in.

    Built once per chunk (`chunk_tables`) and shared by every fold that
    uses the chunk.  A fold selects the chunk's anomalous windows with a
    bool mask over `windows`.
    """

    chunk: Chunk | None       # kept only without gram_rates, for the 2-grams of a fold's anomalous windows
    windows: np.ndarray       # (W, 2) record ranges [start, stop): the chunk's sub-calls
    ue_count: int
    n_cells: int
    imbalance: np.ndarray     # (cells, cells) imbalance of directed border 2-grams over the whole chunk
    cell_pairs: np.ndarray    # (P, 2) int32 distinct (window, dominance cell index) pairs
    target_pairs: np.ndarray | None  # (Q, 2) int32 distinct (window, target cell index) pairs, if built
    gram_rates: dict[tuple, np.ndarray] | None  # `_gram_cell_rates` over all windows, if built


def chunk_tables(chunk: Chunk, windows, ue_count: int, cell_ids, symmetry_mode: str,
                 targets: bool = True, gram_rates: bool = True) -> ChunkTables:
    """The tables of a chunk whose sub-calls are windows.

    A testing chunk needs its target pairs, and its 2-gram rates over all
    windows only when the 2-gram deviation scores every testing sub-call;
    a training chunk needs its 2-gram rates but no target pairs.  Tables
    without the rates keep the chunk, whose records each fold reads for
    the rates of its anomalous windows; the others hold no record.
    """
    n_cells = len(cell_ids)
    windows = np.asarray(windows, dtype=np.int64).reshape(-1, 2)
    rows, pos = gram_positions(windows, 1)
    target_pairs = None
    if targets:
        target = lookup_index(chunk.log.target[pos], cell_ids)
        known = target >= 0
        target_pairs = _distinct_pairs(rows[known], target[known], n_cells)
    return ChunkTables(
        chunk=None if gram_rates else chunk,
        windows=windows,
        ue_count=ue_count,
        n_cells=n_cells,
        imbalance=_imbalance(_directed_counts(chunk, cell_ids, symmetry_mode)),
        cell_pairs=_distinct_pairs(rows, chunk.cell[pos], n_cells),
        target_pairs=target_pairs,
        gram_rates=_gram_cell_rates(chunk, windows, ue_count, n_cells) if gram_rates else None,
    )


def _distinct_pairs(rows, cells, n_cells: int) -> np.ndarray:
    """The distinct (window row, cell) pairs, as a (pairs, 2) int32 array."""
    pairs = sorted_unique(rows * n_cells + cells)
    return np.stack((pairs // n_cells, pairs % n_cells), axis=1).astype(np.int32)


def _windows_per_cell(pairs: np.ndarray, selected: np.ndarray, n_cells: int) -> np.ndarray:
    """Per cell, the number of selected windows paired with it."""
    return np.bincount(pairs[selected[pairs[:, 0]], 1], minlength=n_cells).astype(np.float64)


def sc_dominance_subcall_deviation(
    train: ChunkTables, train_anomalous: np.ndarray, test: ChunkTables, test_anomalous: np.ndarray
) -> np.ndarray:
    """Rate of anomalous sub-calls touching each cell, testing minus training.

    A sub-call touches the dominance cells of its records' locations; the
    anomalous arguments are bool masks over each chunk's windows.
    """

    def rates(tables, anomalous):
        return _windows_per_cell(tables.cell_pairs, anomalous, tables.n_cells) / max(tables.ue_count, 1)

    return np.maximum(rates(test, test_anomalous) - rates(train, train_anomalous), 0.0)


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
    train: ChunkTables, test: ChunkTables, test_anomalous: np.ndarray | None = None
) -> np.ndarray:
    """Sum over 2-grams of |testing rate - training rate| per cell.

    Training rates run over all training sub-calls (the table's
    `gram_rates`); testing rates over the anomalous testing sub-calls, a
    bool mask over test's windows, or with test_anomalous None over all
    of them (test's `gram_rates`).
    """
    f_train = train.gram_rates
    if test_anomalous is None:
        f_test = test.gram_rates
    else:
        f_test = _gram_cell_rates(test.chunk, test.windows[test_anomalous], test.ue_count, test.n_cells)
    zero = np.zeros(test.n_cells, dtype=np.float64)
    scores = zero
    # Summed in set order, one key at a time: the float sum depends on it.
    for key in set(f_train) | set(f_test):
        scores = scores + np.abs(f_test.get(key, zero) - f_train.get(key, zero))
    return scores


def _directed_counts(chunk: Chunk, cell_ids, mode: str) -> np.ndarray:
    """(cells, cells) counts of directed border 2-grams, from row to column cell.

    "handover": 2-grams ending in HO COMMAND, serving -> target cell;
    "location": consecutive events of a call, dominance cell -> dominance cell.
    """
    log = chunk.log
    starts_call = np.zeros(len(log), dtype=bool)  # a call's first event ends no 2-gram
    starts_call[chunk.call_bounds[:-1]] = True
    if mode == "handover":
        src, dst = lookup_index(log.serving, cell_ids), lookup_index(log.target, cell_ids)
        keep = (log.event == int(EventId.HO_COMMAND)) & ~starts_call & (src >= 0) & (dst >= 0)
    else:
        src, dst = chunk.cell[:-1], chunk.cell[1:]
        keep = ~starts_call[1:]
    n = len(cell_ids)
    return np.bincount(src[keep] * n + dst[keep], minlength=n * n).reshape(n, n)


def _imbalance(counts: np.ndarray) -> np.ndarray:
    """(C - Cᵀ)/(C + Cᵀ) per cell pair: 0 where neither direction occurs and on the diagonal."""
    total = counts + counts.T
    return np.divide(counts - counts.T, total, out=np.zeros(total.shape), where=total > 0)


def sc_2gram_symmetry_deviation(train: ChunkTables, test: ChunkTables, adjacent: np.ndarray) -> np.ndarray:
    """Change in the directed imbalance of border 2-grams, summed over neighbors.

    Profiles the full fold logs (not only flagged rows): for adjacent
    cells A and B, the imbalance is (n(A->B) - n(B->A)) / (n(A->B) + n(B->A)),
    counted in the symmetry mode the tables were built with (see module
    docstring); adjacent is the `adjacency_matrix` of cell_ids.
    """
    return _row_sums(np.where(adjacent, np.abs(test.imbalance - train.imbalance), 0.0))


def sc_target_cell_subcalls(test: ChunkTables, test_anomalous: np.ndarray) -> np.ndarray:
    """Distinct target cells per anomalous sub-call; no location data needed."""
    return _windows_per_cell(test.target_pairs, test_anomalous, test.n_cells) / max(test.ue_count, 1)


def amplify(scores: np.ndarray, adjacent: np.ndarray) -> np.ndarray:
    """Divide each score by the summed score of its non-neighbor cells, plus AMPLIFY_EPSILON."""
    excluded = adjacent | np.eye(len(scores), dtype=bool)  # a cell and its neighbors
    return scores / (scores.sum() - _row_sums(np.where(excluded, scores, 0.0)) + AMPLIFY_EPSILON)


def normalize(scores: np.ndarray) -> np.ndarray:
    """Rescale to sum 100; an all-zero score vector becomes uniform."""
    total = float(scores.sum())
    if total <= 0.0:
        return np.full(len(scores), 100.0 / len(scores))
    return 100.0 * scores / total


def combine(parts, weights) -> np.ndarray:
    """Weighted per-cell mean of normalized score vectors, re-normalized: one weight per part, as
    `RunConfig.weights` holds them, non-negative with a positive sum."""
    return normalize(sum(w * p for w, p in zip(weights, parts)) / float(sum(weights)))
