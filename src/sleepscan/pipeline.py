"""Fold-level detection pipeline and cross-fold aggregation.

One fold pairs a normal training chunk with a problematic or reference
testing chunk: build the fold's feature matrices, fit the
minor-component basis on the training rows, score everything with k-NN,
threshold on the training 95th percentile, and run the four localization
methods plus their combination.  Aggregation pools the 72 fold
histograms into 3-sigma labels per pairing.

`run_detect` does all of this for a suite.  Work is done once at the
level it depends on:

  per run    the cell ids, the neighbor matrix and the fold pairs
             (`fold_inputs_from_suite`, into the `DetectPlan`)
  per chunk  parse a chunk, featurize it (`featurize.featurize_chunk`) and
             build its localizer tables (`localize.chunk_tables`): once
             for each normal chunk, in the plan, before any task runs, and
             once for each test chunk, in its task (`run_task`), which
             drops them when it ends
  per fold   the vocabulary, feature matrices, embedding, k-NN scores and
             threshold, which depend on both chunks through the fold's
             vocabulary, and the four localizer comparisons (`run_fold`)

A task runs the folds of one test chunk, hands their outputs to the
fold writer, and returns only a `FoldRecord` of each fold, its pair and
histograms: a fold's rows, scores and flags go once they are written.
The tasks run in order in this process, or in forked workers that
inherit everything built before them and send back only the records;
either way the records are put back in `make_fold_pairs` order before
they are aggregated.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import detect, embed, featurize, localize
from .config import RunConfig
from .errors import DataError
from .localize import METHOD_NAMES
from .mdtlog import Chunk, FoldPair, make_fold_pairs
from .simgen.suite import ChunkLoader

ALL_METHODS = METHOD_NAMES + ("combined",)
STAGES = ("raw", "amplified", "normalized_raw", "normalized")
COMBINED_STAGES = STAGES[2:]  # the combination exists only normalized
# (method, stage) of each histogram of a fold, in the order of the rows of its histograms array and of histograms.csv.
HISTOGRAM_STAGES = tuple(
    (m, stage) for m in ALL_METHODS for stage in sorted(COMBINED_STAGES if m == "combined" else STAGES)
)
HISTOGRAM_ROW = {key: row for row, key in enumerate(HISTOGRAM_STAGES)}  # (method, stage) -> its row


@dataclass
class FoldOutput:
    pair: FoldPair
    threshold: float
    selected_components: int
    train_rows: np.ndarray  # (n, 2) int64 (ue, offset) per sub-call
    test_rows: np.ndarray
    train_scores: np.ndarray
    test_scores: np.ndarray
    train_anomalous: np.ndarray
    test_anomalous: np.ndarray
    test_affected: np.ndarray  # per test sub-call ground truth
    histograms: np.ndarray  # (len(HISTOGRAM_STAGES), cells): row HISTOGRAM_ROW[method, stage], cells in cell_ids order


@dataclass
class FoldRecord:
    """What a detect run keeps of a fold once its files are written: what `aggregate_folds` reads."""

    pair: FoldPair
    histograms: np.ndarray  # the FoldOutput's own array


def run_fold(
    plan: DetectPlan, pair: FoldPair, test: featurize.ChunkFeatures, test_tables: localize.ChunkTables
) -> FoldOutput:
    """The fold pair of the plan, tested on test, the features of its test chunk, and its localizer tables."""
    cfg, cell_ids, adjacent, train = plan.cfg, plan.cell_ids, plan.adjacent, plan.train[pair.train_index]
    train_tables = plan.train_tables[pair.train_index]
    if not len(train) or not len(test):
        raise DataError(
            f"fold {pair}: empty sub-call set "
            f"(train {len(train)}, test {len(test)})"
        )
    vocab = featurize.NGramVocabulary.from_subcalls(train, test)
    train_counts = featurize.build_feature_matrix(train, vocab)
    test_counts = featurize.build_feature_matrix(test, vocab)

    basis = embed.fit_basis(train_counts)
    if cfg.minor_components == "auto":
        d = embed.sorte_select(basis.eigenvalues, fallback=min(6, basis.dim))
    else:
        d = cfg.minor_components
    d = min(d, basis.dim)
    train_emb = embed.project_minor(basis, train_counts, d)
    test_emb = embed.project_minor(basis, test_counts, d)

    if len(train) <= cfg.knn_k:
        raise DataError(
            f"fold {pair}: {len(train)} training sub-calls cannot "
            f"support k={cfg.knn_k} neighbors"
        )
    distinct = detect.distinct_rows(train_emb)
    train_scores = detect.knn_scores(train_emb, train_emb, k=cfg.knn_k, exclude_self=True, train_distinct=distinct)
    test_scores = detect.knn_scores(train_emb, test_emb, k=cfg.knn_k, train_distinct=distinct)
    threshold = detect.fit_threshold(train_scores, percentile=cfg.threshold_percentile)
    train_anom = detect.classify(train_scores, threshold)
    test_anom = detect.classify(test_scores, threshold)

    raw = {
        "subcall": localize.sc_dominance_subcall_deviation(train_tables, train_anom, test_tables, test_anom),
        "gram": localize.sc_dominance_2gram_deviation(
            train_tables, test_tables, test_anom if cfg.gram_scope == "anomalous" else None
        ),
        "symmetry": localize.sc_2gram_symmetry_deviation(train_tables, test_tables, adjacent),
        "target": localize.sc_target_cell_subcalls(test_tables, test_anom),
    }

    histograms = np.empty((len(HISTOGRAM_STAGES), len(cell_ids)))
    for name, scores in raw.items():
        amped = localize.amplify(scores, adjacent)
        for stage, values in zip(STAGES, (scores, amped, localize.normalize(scores), localize.normalize(amped))):
            histograms[HISTOGRAM_ROW[name, stage]] = values
    for stage in COMBINED_STAGES:
        histograms[HISTOGRAM_ROW["combined", stage]] = localize.combine(
            [histograms[HISTOGRAM_ROW[name, stage]] for name in METHOD_NAMES], list(cfg.weights)
        )

    return FoldOutput(
        pair=pair,
        threshold=threshold,
        selected_components=d,
        train_rows=train.rows,
        test_rows=test.rows,
        train_scores=train_scores,
        test_scores=test_scores,
        train_anomalous=train_anom,
        test_anomalous=test_anom,
        test_affected=test.affected,
        histograms=histograms,
    )


@dataclass
class DetectPlan:
    """What every fold of a detect run shares, built once before any task runs.

    A task is one test chunk and the folds that test it, in
    `make_fold_pairs` order; forked workers inherit the plan and only read it.
    """

    cfg: RunConfig
    cell_ids: list[int]
    adjacent: np.ndarray  # localize.adjacency_matrix of cell_ids
    pairs: list[FoldPair]  # every fold of the run, in make_fold_pairs order
    train: dict[int, featurize.ChunkFeatures]  # normal chunk index -> its features
    train_tables: dict[int, localize.ChunkTables]  # normal chunk index -> its localizer tables
    tasks: list[tuple[ChunkLoader | None, list[FoldPair]]]  # per test chunk: its loader, until run, and its folds
    write_folds: Callable[[list[FoldOutput]], None]  # takes the outputs of one task


def fold_inputs_from_suite(
    manifest, roles, cfg: RunConfig, write_folds: Callable[[list[FoldOutput]], None], limit: int | None = None
) -> DetectPlan:
    """The plan of the first limit folds of normal x problematic and normal x reference, written by write_folds.

    roles maps a role name to its chunk loaders, as
    `simgen.suite.load_suite` returns them.  Each normal chunk a fold
    uses is parsed and featurized here, once; each test chunk a fold uses
    becomes one task.
    """
    cell_ids = manifest["cell_ids"]
    adjacent = localize.adjacency_matrix({int(c): v for c, v in manifest["adjacency"].items()}, cell_ids)
    pairs = make_fold_pairs(cfg.n_chunks)[:limit]
    train, train_tables = {}, {}
    for index in sorted({pair.train_index for pair in pairs}):  # the chunk's records go once these are built
        chunk = roles["normal"][index]()
        train[index] = _featurize(chunk, cfg)
        train_tables[index] = localize.chunk_tables(
            chunk, train[index].windows, train[index].ue_count, cell_ids, cfg.symmetry_mode, targets=False
        )
    tasks: dict[tuple[str, int], list[FoldPair]] = {}
    for pair in pairs:
        tasks.setdefault((pair.test_role, pair.test_index), []).append(pair)
    return DetectPlan(
        cfg=cfg, cell_ids=cell_ids, adjacent=adjacent, pairs=pairs, train=train, train_tables=train_tables,
        tasks=[(roles[role][index], folds) for (role, index), folds in tasks.items()], write_folds=write_folds,
    )


def _featurize(chunk: Chunk, cfg: RunConfig) -> featurize.ChunkFeatures:
    return featurize.featurize_chunk(chunk, m=cfg.window_m, n=cfg.window_n, ngram_n=cfg.ngram_n)


def run_task(plan: DetectPlan, index: int) -> list[FoldRecord]:
    """Task index of the plan: parse and featurize its test chunk, build its
    localizer tables, then run and write each of its folds; the record of each."""
    load, pairs = plan.tasks[index]
    plan.tasks[index] = (None, pairs)  # with a role's last loader go its truth arrays and dominance map
    chunk = load()
    del load
    test = _featurize(chunk, plan.cfg)
    test_tables = localize.chunk_tables(
        chunk, test.windows, test.ue_count, plan.cell_ids, plan.cfg.symmetry_mode,
        gram_rates=plan.cfg.gram_scope == "all",
    )
    del chunk  # the tables keep it only where each fold reads its records
    outputs = [run_fold(plan, pair, test, test_tables) for pair in pairs]
    plan.write_folds(outputs)
    return [FoldRecord(out.pair, out.histograms) for out in outputs]


@dataclass
class MethodAggregate:
    """One method's fold scores pooled per pairing; arrays are ordered by cell_ids."""

    method: str
    stage: str  # the stage the labels were computed on
    pooled_mean: float
    pooled_sigma: float
    threshold: float  # pooled_mean + 3 pooled_sigma: a cell above it is labeled abnormal
    mean_stages: dict[str, dict[str, np.ndarray]]  # pairing -> stage -> per-cell mean
    labels: dict[str, np.ndarray]  # pairing -> per-cell flag of the mean
    run_labels: dict[str, np.ndarray]  # pairing -> (runs, cells) flags of each run


def aggregate_method(method: str, runs_by_pairing: dict[str, list[np.ndarray]], stage: str) -> MethodAggregate:
    """Pool one method's fold histograms into labels per pairing.

    runs_by_pairing maps a pairing to the histograms arrays of its folds.
    The 3-sigma statistics pool every (run, cell) score of `stage` across
    both pairings; each pairing is then labeled on its per-cell mean, and
    each individual run on its own scores, against the same threshold.
    """
    stacked = {
        pairing: {st: np.stack([run[row] for run in runs]) for (m, st), row in HISTOGRAM_ROW.items() if m == method}
        for pairing, runs in runs_by_pairing.items()
    }
    pooled = np.concatenate([m[stage].ravel() for m in stacked.values()])
    mean, sigma = float(pooled.mean()), float(pooled.std())
    threshold = mean + 3.0 * sigma
    mean_stages = {
        pairing: {st: m.mean(axis=0) for st, m in stages.items()} for pairing, stages in stacked.items()
    }
    return MethodAggregate(
        method=method,
        stage=stage,
        pooled_mean=mean,
        pooled_sigma=sigma,
        threshold=threshold,
        mean_stages=mean_stages,
        labels={pairing: means[stage] > threshold for pairing, means in mean_stages.items()},
        run_labels={pairing: stages[stage] > threshold for pairing, stages in stacked.items()},
    )


def aggregate_folds(folds, cfg: RunConfig) -> dict[str, MethodAggregate]:
    """Aggregate all folds per method, grouped by test pairing: FoldRecords or FoldOutputs, which hold the same."""
    if not folds:
        raise DataError("no fold outputs to aggregate")
    stage = "normalized" if cfg.amplify else "normalized_raw"
    by_pairing: dict[str, list[np.ndarray]] = {}
    for out in folds:
        by_pairing.setdefault(out.pair.test_role, []).append(out.histograms)
    return {m: aggregate_method(m, by_pairing, stage) for m in ALL_METHODS}


_FORKED_PLAN: DetectPlan | None = None  # set only while a pool's workers fork from this process


def _run_forked_task(index: int) -> list[FoldRecord]:
    return run_task(_FORKED_PLAN, index)


def run_detect(
    manifest, roles, cfg: RunConfig, write_folds: Callable[[list[FoldOutput]], None], limit: int | None = None,
    jobs: int = 1,
) -> tuple[list[FoldRecord], dict[str, MethodAggregate]]:
    """(fold records, aggregates per method) of the suite's first limit folds.

    The tasks of `fold_inputs_from_suite` run in order in this process,
    or with jobs > 1 in up to jobs forked workers, which inherit the plan
    and send back only their records.  write_folds is called where a
    task runs, on the outputs of its folds; nothing else keeps a fold's
    rows and scores.  Records come back in `make_fold_pairs` order, which
    the aggregate sums depend on.

    roles is emptied once the plan is built: the plan then holds the
    only loader of each test chunk, and drops it once the chunk is
    parsed, so a role's truth arrays and dominance map are freed after
    the last chunk that needs them.
    """
    global _FORKED_PLAN
    plan = fold_inputs_from_suite(manifest, roles, cfg, write_folds, limit=limit)
    roles.clear()
    workers = min(jobs, len(plan.tasks))
    if workers > 1:
        import multiprocessing  # only here: the imports cost every command ~25 ms
        from concurrent.futures import ProcessPoolExecutor

        _FORKED_PLAN = plan
        try:  # a worker that dies breaks the pool, which raises here instead of waiting for its task
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                results = list(pool.map(_run_forked_task, range(len(plan.tasks))))
        finally:
            _FORKED_PLAN = None
    else:
        results = [run_task(plan, index) for index in range(len(plan.tasks))]
    by_pair = {record.pair: record for records in results for record in records}
    records = [by_pair[pair] for pair in plan.pairs]
    return records, aggregate_folds(records, cfg)
