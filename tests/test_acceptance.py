"""Acceptance gates for the whole framework.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see
them).  The end-to-end criteria run 20 independently seeded dataset
suites of 72 folds each, so this module takes a few minutes.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sleepscan import evaluate
from sleepscan.config import RunConfig
from sleepscan.detect import fit_threshold, knn_scores
from sleepscan.embed import fit_basis, sorte_select
from sleepscan.errors import DataError
from sleepscan.evaluate import heuristic_distance
from sleepscan.featurize import featurize_chunk, ngram_counts
from sleepscan.localize import normalize
from sleepscan.pipeline import aggregate_folds, fold_inputs_from_suite, run_fold, suite_from_config
from sleepscan.simgen import FaultConfig, SimConfig, macro21_layout, simulate
from sleepscan.simgen.suite import suite_manifest, suite_roles

N_REPS = 20
REP_SEEDS = [42] + [1000 + i for i in range(N_REPS - 1)]


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def _run_suite_rep(seed: int) -> dict:
    """One full repetition: dataset suite, 72 folds, aggregation."""
    cfg = RunConfig().with_overrides(master_seed=seed)
    suite = suite_from_config(cfg)
    folds = fold_inputs_from_suite(suite_manifest(suite), suite_roles(suite), cfg)
    outputs = [run_fold(fold, cfg) for fold in folds]
    aggregates = aggregate_folds(outputs, cfg)

    combined = aggregates["combined"]
    prob_scores = combined.mean_stages["problematic"][combined.stage]
    argmax_cell = suite.cell_ids[int(np.argmax(prob_scores))]
    faulty_index = list(suite.cell_ids).index(cfg.faulty_cell)
    return {
        "seed": seed,
        "argmax_is_faulty": argmax_cell == cfg.faulty_cell,
        "faulty_above_threshold": bool(combined.labels["problematic"][faulty_index]),
        "reference_clean": not combined.labels["reference"].any(),
        "mean_auc": evaluate.mean_auc(evaluate.fold_aucs(outputs)),
        "f_scores": {
            method: evaluate.method_metrics(agg, suite.cell_ids, cfg.faulty_cell)["f_score"]
            for method, agg in aggregates.items()
        },
    }


@pytest.fixture(scope="module")
def suite_reps():
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        reps = list(pool.map(_run_suite_rep, REP_SEEDS))
    print(f"\n[{len(reps)} suite repetitions in {time.perf_counter() - start:.0f}s]")
    return reps


def test_a1_bigram_golden_counts():
    start = time.perf_counter()
    perf = ngram_counts("performance")
    performer = ngram_counts("performer")
    elapsed = time.perf_counter() - start
    expected_perf = {
        ("p", "e"): 1, ("e", "r"): 1, ("r", "f"): 1, ("f", "o"): 1, ("o", "r"): 1,
        ("r", "m"): 1, ("m", "a"): 1, ("a", "n"): 1, ("n", "c"): 1, ("c", "e"): 1,
    }
    ok = (
        perf == expected_perf
        and performer[("e", "r")] == 2
        and performer[("m", "e")] == 1
        and all(performer.get(p, 0) == 0 for p in (("m", "a"), ("a", "n"), ("n", "c"), ("c", "e")))
        and elapsed < 1e-3
    )
    _announce("A1 bigram golden counts", ok, f"exact match, {elapsed * 1e6:.0f}us")
    assert ok


def test_a2_end_to_end_detection(suite_reps):
    argmax_rate = np.mean([r["argmax_is_faulty"] for r in suite_reps])
    above_rate = np.mean([r["faulty_above_threshold"] for r in suite_reps])
    clean_rate = np.mean([r["reference_clean"] for r in suite_reps])
    ok = argmax_rate >= 0.95 and above_rate >= 0.90 and clean_rate >= 0.90
    _announce(
        "A2 end-to-end detection",
        ok,
        f"argmax {argmax_rate:.0%} (>=95%), above 3-sigma {above_rate:.0%} (>=90%), "
        f"reference clean {clean_rate:.0%} (>=90%) over {len(suite_reps)} repetitions",
    )
    assert ok


def test_a3_roc_separability(suite_reps):
    default_rep = next(r for r in suite_reps if r["seed"] == 42)
    mean_auc = default_rep["mean_auc"]
    all_aucs = [r["mean_auc"] for r in suite_reps]
    ok = mean_auc >= 0.95
    _announce(
        "A3 ROC separability",
        ok,
        f"default-suite mean AUC {mean_auc:.4f} (>=0.95); "
        f"across repetitions min {min(all_aucs):.4f}",
    )
    assert ok


def test_a4_method_f_scores(suite_reps):
    default_rep = next(r for r in suite_reps if r["seed"] == 42)
    f = default_rep["f_scores"]
    ok = f["subcall"] >= 0.8 and f["gram"] >= 0.8
    _announce(
        "A4 method F-scores",
        ok,
        "subcall {subcall:.3f}, gram {gram:.3f} (both >=0.8); "
        "symmetry {symmetry:.3f}, target {target:.3f}, combined {combined:.3f}".format(**f),
    )
    assert ok


def test_a5_heuristic_distance_sanity():
    n = 21
    one_hot = np.zeros(n)
    one_hot[0] = 100.0
    uniform = np.full(n, 100.0 / n)
    d_faulty = heuristic_distance(one_hot, "faulty")
    d_clean = heuristic_distance(uniform, "clean")
    d_mixed = heuristic_distance(uniform, "faulty")
    ok = (
        abs(d_faulty) <= 1e-9
        and abs(d_clean) <= 1e-9
        and abs(d_mixed - (100.0 - 100.0 / n)) <= 1e-9
    )
    _announce(
        "A5 heuristic distance sanity",
        ok,
        f"ideal faulty {d_faulty:.2e}, ideal clean {d_clean:.2e}, "
        f"uniform-under-faulty err {abs(d_mixed - (100.0 - 100.0 / n)):.2e}",
    )
    assert ok


def test_a6_oracle_equivalence():
    rng = np.random.default_rng(606)
    train = rng.normal(size=(200, 6))
    query = rng.normal(size=(200, 6))

    def brute(queries, k, exclude_self):
        out = []
        for i, q in enumerate(queries):
            dists = []
            for j, t in enumerate(train):
                if exclude_self and i == j:
                    continue
                sq = 0.0
                for a, b in zip(q, t):
                    d = a - b
                    sq += d * d
                dists.append(np.sqrt(sq))
            dists.sort()
            out.append(sum(dists[:k]))
        return np.array(out)

    knn_ok = True
    for k in (1, 5, 35):
        knn_ok &= np.array_equal(knn_scores(train, query, k=k), brute(query, k, False))
        knn_ok &= np.array_equal(
            knn_scores(train, train, k=k, exclude_self=True), brute(train, k, True)
        )

    X = rng.normal(size=(80, 10)) @ rng.normal(size=(10, 10))
    basis = fit_basis(X)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    rebuilt = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
    eig_err = float(np.linalg.norm(cov - rebuilt))
    eig_ok = eig_err < 1e-6

    hits = 0
    for _ in range(100):
        rank = int(rng.integers(2, 8))
        dim = int(rng.integers(rank + 4, 16))
        signal = np.sort(100.0 * (1.0 + rng.uniform(0, 1, rank)))[::-1]
        noise = np.sort(1.0 + 0.05 * rng.uniform(-1, 1, dim - rank))[::-1]
        if sorte_select(np.concatenate([signal, noise])) == rank:
            hits += 1
    sorte_ok = hits >= 95

    ok = knn_ok and eig_ok and sorte_ok
    _announce(
        "A6 oracle equivalence",
        ok,
        f"k-NN exact for k in (1,5,35), "
        f"covariance rebuilt to {eig_err:.1e} Frobenius, rank recovery {hits}/100",
    )
    assert ok


def test_a7_invariant_suites(tmp_path):
    rng = np.random.default_rng(707)

    # normalized histograms sum to 100
    sums_ok = True
    for _ in range(50):
        sums_ok &= abs(normalize(rng.uniform(0, 5, 21)).sum() - 100.0) < 1e-6

    # every sub-call's bigram total is its length minus one
    window_ok = True
    from sleepscan.mdtlog import Chunk, EventId, EventLog

    for _ in range(30):
        n_events = int(rng.integers(2, 80))
        chunk = Chunk(
            log=EventLog.from_rows([(int(EventId.RLF), 0, i, 0.0, 0.0, 1, -1) for i in range(n_events)]),
            call_bounds=np.array([0, n_events]),
            cell=np.zeros(n_events, dtype=np.int64),
            affected=np.zeros(n_events, dtype=bool),
        )
        feats = featurize_chunk(chunk, m=15, n=10)
        lengths = feats.windows[:, 1] - feats.windows[:, 0]
        window_ok &= bool(np.array_equal(feats.counts.sum(axis=1), lengths - 1))

    # test projection must use the training basis (mutation check)
    train = rng.normal(size=(60, 5))
    basis = fit_basis(train)
    eig_before = basis.eigenvalues.copy()
    from sleepscan.embed import project_minor

    test_a = rng.normal(size=(20, 5))
    test_b = test_a + 100.0
    emb_a = project_minor(basis, test_a, 3)
    emb_b = project_minor(basis, test_b, 3)
    leak_ok = np.array_equal(basis.eigenvalues, eig_before) and not np.allclose(emb_a, emb_b)
    minor = basis.eigenvectors[:, ::-1][:, :3]
    leak_ok &= np.array_equal(emb_b, (test_b - basis.mean) @ minor)

    # determinism: identical seeds give byte-identical logs and manifests
    from sleepscan.mdtlog import write_records
    from sleepscan.simgen import build_radio_map, make_shadowing

    layout = macro21_layout()
    grid = layout.default_grid(resolution_m=10.0)
    radio = build_radio_map(layout, make_shadowing(layout, grid, seed=3))
    sim = SimConfig(ues_per_cell=3, duration_steps=800, rng_seed=5)
    fault = FaultConfig(enabled=True, faulty_cell=1)
    log_a, _ = simulate(layout, sim, fault, radio)
    log_b, _ = simulate(layout, sim, fault, radio)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(log_a, pa)
    write_records(log_b, pb)
    sim_ok = pa.read_bytes() == pb.read_bytes()

    from sleepscan.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"ues_per_cell": 3, "duration_steps": 800, "map_resolution_m": 10.0, "knn_k": 5}'
    )
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(d1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(d2)]) == 0
    cli_ok = (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
    cli_ok &= (d1 / "normal_chunk0.jsonl").read_bytes() == (d2 / "normal_chunk0.jsonl").read_bytes()

    ok = sums_ok and window_ok and leak_ok and sim_ok and cli_ok
    _announce(
        "A7 invariant suites",
        ok,
        f"normalization {sums_ok}, window row-sum {window_ok}, "
        f"basis non-leakage {leak_ok}, sim determinism {sim_ok}, cli determinism {cli_ok}",
    )
    assert ok
