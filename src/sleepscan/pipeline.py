"""Fold-level detection pipeline and cross-fold aggregation.

One fold pairs a normal training chunk with a problematic or reference
testing chunk: build the fold's feature matrices, fit the
minor-component basis on the training rows, score everything with k-NN,
threshold on the training 95th percentile, and run the four localization
methods plus their combination.  Aggregation pools the 72 fold
histograms into 3-sigma labels per pairing.

`run_detect` does all of this for a suite.  It first parses and
featurizes, once, the normal chunks its folds use (`fold_inputs_from_suite`);
then it runs one task per test chunk (`run_task`): parse and featurize
that chunk, run each of its folds and hand each output to the fold
writer.  The tasks run in order in this process, or in forked workers
that inherit everything built before them; either way the outputs are
put back in `make_fold_pairs` order before they are aggregated.
`suite_from_config` generates the dataset suite a configuration
describes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import detect, embed, featurize, localize
from .config import RunConfig
from .errors import DataError
from .localize import METHOD_NAMES
from .mdtlog import Chunk, FoldPair, make_fold_pairs
from .simgen import DatasetSuite, generate_dataset_suite
from .simgen.suite import ChunkLoader

ALL_METHODS = METHOD_NAMES + ("combined",)
STAGES = ("raw", "amplified", "normalized_raw", "normalized")
COMBINED_STAGES = STAGES[2:]  # the combination exists only normalized


def suite_from_config(cfg: RunConfig) -> DatasetSuite:
    """The normal, problematic and reference datasets of one configuration."""
    return generate_dataset_suite(
        cfg.layout(),
        cfg.sim_config(),
        faulty_cell=cfg.faulty_cell,
        master_seed=cfg.master_seed,
        n_chunks=cfg.n_chunks,
        grid=cfg.grid(),
        sigma_db=cfg.shadowing_sigma_db,
        correlation_m=cfg.shadowing_correlation_m,
    )


@dataclass
class FoldInput:
    pair: FoldPair
    train: featurize.ChunkFeatures
    test: featurize.ChunkFeatures
    adjacent: np.ndarray  # localize.adjacency_matrix of cell_ids
    cell_ids: list[int]


@dataclass
class FoldOutput:
    pair: FoldPair
    threshold: float
    selected_components: int
    train_rows: list[tuple[int, int]]  # (ue, offset)
    test_rows: list[tuple[int, int]]
    train_scores: np.ndarray
    test_scores: np.ndarray
    train_anomalous: np.ndarray
    test_anomalous: np.ndarray
    test_affected: np.ndarray  # per test sub-call ground truth
    histograms: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    cell_ids: tuple[int, ...] = ()


def run_fold(fold: FoldInput, cfg: RunConfig) -> FoldOutput:
    train, test = fold.train, fold.test
    if not len(train) or not len(test):
        raise DataError(
            f"fold {fold.pair}: empty sub-call set "
            f"(train {len(train)}, test {len(test)})"
        )
    vocab = featurize.NGramVocabulary.from_subcalls(train, test)
    train_counts = featurize.build_feature_matrix(train, vocab)
    test_counts = featurize.build_feature_matrix(test, vocab)

    basis = embed.fit_basis(train_counts)
    if cfg.minor_components == "auto":
        d = embed.sorte_select(basis.eigenvalues, fallback=min(6, basis.dim))
    else:
        d = int(cfg.minor_components)
    d = min(d, basis.dim)
    train_emb = embed.project_minor(basis, train_counts, d)
    test_emb = embed.project_minor(basis, test_counts, d)

    if len(train) <= cfg.knn_k:
        raise DataError(
            f"fold {fold.pair}: {len(train)} training sub-calls cannot "
            f"support k={cfg.knn_k} neighbors"
        )
    train_scores = detect.knn_scores(train_emb, train_emb, k=cfg.knn_k, exclude_self=True)
    test_scores = detect.knn_scores(train_emb, test_emb, k=cfg.knn_k)
    threshold = detect.fit_threshold(train_scores, percentile=cfg.threshold_percentile)
    train_anom = detect.classify(train_scores, threshold)
    test_anom = detect.classify(test_scores, threshold)

    train_anom_windows = train.windows[train_anom]
    test_anom_windows = test.windows[test_anom]
    gram_test_windows = test_anom_windows if cfg.gram_scope == "anomalous" else test.windows

    cell_ids = list(fold.cell_ids)
    raw = {
        "subcall": localize.sc_dominance_subcall_deviation(
            cell_ids, train.chunk, train_anom_windows, train.ue_count,
            test.chunk, test_anom_windows, test.ue_count,
        ),
        "gram": localize.sc_dominance_2gram_deviation(
            cell_ids, train.chunk, train.windows, train.ue_count,
            test.chunk, gram_test_windows, test.ue_count,
        ),
        "symmetry": localize.sc_2gram_symmetry_deviation(
            cell_ids, train.chunk, test.chunk, fold.adjacent, mode=cfg.symmetry_mode,
        ),
        "target": localize.sc_target_cell_subcalls(
            cell_ids, test.chunk, test_anom_windows, test.ue_count,
        ),
    }

    histograms: dict[str, dict[str, np.ndarray]] = {}
    for name, scores in raw.items():
        amped = localize.amplify(scores, fold.adjacent)
        histograms[name] = {
            "raw": scores,
            "amplified": amped,
            "normalized_raw": localize.normalize(scores),
            "normalized": localize.normalize(amped),
        }
    histograms["combined"] = {
        stage: localize.combine([histograms[name][stage] for name in METHOD_NAMES], list(cfg.weights))
        for stage in COMBINED_STAGES
    }

    return FoldOutput(
        pair=fold.pair,
        threshold=threshold.value,
        selected_components=d,
        train_rows=train.rows,
        test_rows=test.rows,
        train_scores=train_scores,
        test_scores=test_scores,
        train_anomalous=train_anom,
        test_anomalous=test_anom,
        test_affected=test.affected,
        histograms=histograms,
        cell_ids=tuple(cell_ids),
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
    tasks: list[tuple[ChunkLoader | None, list[FoldPair]]]  # per test chunk: its loader, until run, and its folds
    write_fold: Callable[[FoldOutput], None] | None = None


def fold_inputs_from_suite(manifest, roles, cfg: RunConfig, limit: int | None = None) -> DetectPlan:
    """The plan of the first limit folds of normal x problematic and normal x reference.

    roles maps a role name to its chunk loaders, as `simgen.load_suite`
    and `simgen.suite_roles` return them.  Each normal chunk a fold uses
    is parsed and featurized here, once; each test chunk a fold uses
    becomes one task.
    """
    cell_ids = [int(c) for c in manifest["cell_ids"]]
    adjacent = localize.adjacency_matrix({int(c): v for c, v in manifest["adjacency"].items()}, cell_ids)
    pairs = []
    for test_role in ("problematic", "reference"):
        if test_role in roles:
            pairs += make_fold_pairs("normal", roles["normal"], test_role, roles[test_role])
    if limit is not None:
        pairs = pairs[:limit]
    train = {
        index: _featurize(roles["normal"][index](), cfg)
        for index in sorted({pair.train_index for pair in pairs})
    }
    tasks: dict[tuple[str, int], list[FoldPair]] = {}
    for pair in pairs:
        tasks.setdefault((pair.test_role, pair.test_index), []).append(pair)
    return DetectPlan(
        cfg=cfg, cell_ids=cell_ids, adjacent=adjacent, pairs=pairs, train=train,
        tasks=[(roles[role][index], folds) for (role, index), folds in tasks.items()],
    )


def _featurize(chunk: Chunk, cfg: RunConfig) -> featurize.ChunkFeatures:
    return featurize.featurize_chunk(chunk, m=cfg.window_m, n=cfg.window_n, ngram_n=cfg.ngram_n)


def run_task(plan: DetectPlan, index: int) -> list[FoldOutput]:
    """Task index of the plan: parse and featurize its test chunk, then run and write each of its folds."""
    load, pairs = plan.tasks[index]
    plan.tasks[index] = (None, pairs)  # with a role's last loader go its truth arrays and dominance map
    test = _featurize(load(), plan.cfg)
    del load
    outputs = []
    for pair in pairs:
        out = run_fold(FoldInput(pair, plan.train[pair.train_index], test, plan.adjacent, plan.cell_ids), plan.cfg)
        if plan.write_fold is not None:
            plan.write_fold(out)
        outputs.append(out)
    return outputs


@dataclass
class MethodAggregate:
    """One method's fold scores pooled per pairing; arrays are ordered by cell_ids."""

    method: str
    stage: str  # the stage the labels were computed on
    pooled_mean: float
    pooled_sigma: float
    mean_stages: dict[str, dict[str, np.ndarray]]  # pairing -> stage -> per-cell mean
    labels: dict[str, np.ndarray]  # pairing -> per-cell flag of the mean
    run_labels: dict[str, np.ndarray]  # pairing -> (runs, cells) flags of each run


def aggregate_method(
    method: str,
    runs_by_pairing: dict[str, list[dict[str, np.ndarray]]],
    stage: str,
) -> MethodAggregate:
    """Pool one method's fold histograms into labels per pairing.

    The 3-sigma statistics pool every (run, cell) score of `stage` across
    both pairings; each pairing is then labeled on its per-cell mean, and
    each individual run on its own scores, against the same threshold.
    """
    stacked = {
        pairing: {st: np.vstack([stages[st] for stages in runs]) for st in runs[0]}
        for pairing, runs in runs_by_pairing.items()
        if runs
    }
    if not stacked:
        raise DataError(f"no runs to aggregate for method {method}")
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
        mean_stages=mean_stages,
        labels={pairing: means[stage] > threshold for pairing, means in mean_stages.items()},
        run_labels={pairing: stages[stage] > threshold for pairing, stages in stacked.items()},
    )


def aggregate_folds(fold_outputs, cfg: RunConfig) -> dict[str, MethodAggregate]:
    """Aggregate all fold outputs per method, grouped by test pairing."""
    if not fold_outputs:
        raise DataError("no fold outputs to aggregate")
    stage = "normalized" if cfg.amplify else "normalized_raw"
    by_method: dict[str, dict[str, list[dict[str, np.ndarray]]]] = {
        m: {} for m in ALL_METHODS
    }
    for out in fold_outputs:
        pairing = out.pair.test_role
        for method in ALL_METHODS:
            by_method[method].setdefault(pairing, []).append(out.histograms[method])
    return {
        m: aggregate_method(m, runs, stage) for m, runs in by_method.items()
    }


_FORKED_PLAN: DetectPlan | None = None  # set only while a pool's workers fork from this process


def _run_forked_task(index: int) -> list[FoldOutput]:
    return run_task(_FORKED_PLAN, index)


def run_detect(manifest, roles, cfg: RunConfig, limit: int | None = None, jobs: int = 1, write_fold=None):
    """(fold outputs, aggregates per method) of the suite's first limit folds.

    The tasks of `fold_inputs_from_suite` run in order in this process,
    or with jobs > 1 in up to jobs forked workers, which inherit the plan
    and send back only their outputs.  write_fold, if given, is called on
    each fold output where it is computed.  Outputs come back in
    `make_fold_pairs` order, which the aggregate sums depend on.

    roles is emptied once the plan is built: the plan then holds the
    only loader of each test chunk, and drops it once the chunk is
    parsed, so a role's truth arrays and dominance map are freed after
    the last chunk that needs them.
    """
    global _FORKED_PLAN
    plan = fold_inputs_from_suite(manifest, roles, cfg, limit=limit)
    roles.clear()
    plan.write_fold = write_fold
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
    by_pair = {out.pair: out for outputs in results for out in outputs}
    outputs = [by_pair[pair] for pair in plan.pairs]
    return outputs, aggregate_folds(outputs, cfg)
