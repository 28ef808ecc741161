import json

import numpy as np
import pytest

from sleepscan.cli import main
from sleepscan.config import RunConfig
from sleepscan.embed import EigenBasis, fit_basis, project_minor, sorte_select
from sleepscan.errors import DataError
from sleepscan.featurize import N_EVENTS, NGramVocabulary, build_feature_matrix, featurize_chunk
from sleepscan.pipeline import run_detect
from sleepscan.simgen.suite import generate_dataset_suite, load_suite, write_suite
from sleepscan.storage import read_run
from test_golden import SMOKE


def test_rank_one_line_has_zero_minor_eigenvalue():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    basis = fit_basis(X)
    assert basis.eigenvalues[0] == pytest.approx(2.0)
    assert basis.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)
    minor = basis.eigenvectors[:, 1]
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(minor @ expected), 1.0, atol=1e-12)


def test_iid_unit_columns_give_unit_eigenvalues():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((1000, 8))
    basis = fit_basis(X)
    # independent eigensolver route: singular values of the centered matrix
    centered = X - X.mean(axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    oracle = np.zeros(8)
    oracle[: len(singular)] = singular**2 / (X.shape[0] - 1)
    assert np.allclose(basis.eigenvalues, np.sort(oracle)[::-1], atol=1e-10)
    assert np.all(np.abs(basis.eigenvalues - 1.0) < 0.3)


def test_covariance_reconstruction():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 12)) @ rng.normal(size=(12, 12))
    basis = fit_basis(X)
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / (X.shape[0] - 1)
    rebuilt = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
    assert np.linalg.norm(cov - rebuilt) < 1e-6
    # orthonormality
    eye = basis.eigenvectors.T @ basis.eigenvectors
    assert np.allclose(eye, np.eye(12), atol=1e-8)


def test_fit_basis_rejects_degenerate_shapes():
    with pytest.raises(DataError):
        fit_basis(np.ones((1, 4)))
    with pytest.raises(DataError):
        fit_basis(np.ones((5, 1)))


def sorte_oracle(values, fallback=6):
    """Direct transcription of the gap-variance-ratio definition."""
    values = np.asarray(values, dtype=float)
    p = len(values)
    gaps = values[:-1] - values[1:]
    best, best_score = None, np.inf
    for k in range(1, p - 2):
        tail_k = gaps[k - 1 :]
        tail_next = gaps[k:]
        var_k = np.mean((tail_k - tail_k.mean()) ** 2)
        var_next = np.mean((tail_next - tail_next.mean()) ** 2)
        if var_k > 0:
            score = var_next / var_k
        elif var_next > 0:
            score = np.inf
        else:
            continue
        if score < best_score:
            best, best_score = k, score
    return fallback if best is None else best


def test_sorte_signal_noise_split():
    values = [10.0, 10.0, 10.0, 1e-6, 1e-6, 1e-6]
    assert sorte_select(values) == 3
    assert sorte_oracle(values) == 3


def test_sorte_flat_spectrum_falls_back():
    assert sorte_select([2.0] * 8) == 6
    assert sorte_select([2.0] * 5) == 5  # never more components than eigenvalues
    assert sorte_select([2.0] * 4) == 4


def test_sorte_needs_four_eigenvalues():
    with pytest.raises(DataError):
        sorte_select([3.0, 2.0, 1.0])


def test_sorte_recovers_planted_rank():
    rng = np.random.default_rng(11)
    hits = 0
    trials = 100
    for _ in range(trials):
        rank, dim, snr = 5, 12, 100.0
        signal = np.sort(snr * (1.0 + rng.uniform(0, 1, rank)))[::-1]
        noise = np.sort(1.0 + 0.05 * rng.uniform(-1, 1, dim - rank))[::-1]
        values = np.concatenate([signal, noise])
        d = sorte_select(values)
        assert d == sorte_oracle(values)
        if d == rank:
            hits += 1
    assert hits >= 95


def test_projection_isometry_at_full_dimension():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(40, 6))
    basis = fit_basis(X)
    emb = project_minor(basis, X, d=6)
    orig = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    proj = np.linalg.norm(emb[:, None, :] - emb[None, :, :], axis=2)
    assert np.allclose(orig, proj, atol=1e-9)


def test_projection_centers_with_training_mean():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(30, 5))
    basis = fit_basis(X)
    mean_row = X.mean(axis=0, keepdims=True)
    assert np.allclose(project_minor(basis, mean_row, d=5), 0.0, atol=1e-12)
    # line data projected on its minor direction carries no variance
    line = np.column_stack([np.arange(5.0), np.arange(5.0)])
    line_basis = fit_basis(line)
    assert np.allclose(project_minor(line_basis, line, d=1), 0.0, atol=1e-12)


def test_minor_projection_variance_matches_eigenvalues():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(200, 7)) * rng.uniform(0.1, 3.0, size=7)
    basis = fit_basis(X)
    emb = project_minor(basis, X, d=7)
    variances = emb.var(axis=0, ddof=1)
    expected = basis.eigenvalues[::-1]  # smallest first
    assert np.allclose(variances, expected, rtol=1e-6, atol=1e-12)


def test_test_data_never_refits_the_basis():
    rng = np.random.default_rng(37)
    train = rng.normal(size=(50, 4))
    basis = fit_basis(train)
    test = rng.normal(size=(20, 4)) + 10.0  # wildly different mean
    emb = project_minor(basis, test, d=2)
    minor = basis.eigenvectors[:, ::-1][:, :2]
    assert np.array_equal(emb, (test - basis.mean) @ minor)
    # mutating the test set leaves the basis untouched
    before = basis.eigenvalues.copy()
    _ = project_minor(basis, test * 5.0, d=2)
    assert np.array_equal(basis.eigenvalues, before)


@pytest.fixture(scope="module")
def smoke_suite(tmp_path_factory):
    """The suite of SMOKE, whose detection settings each test below sets."""
    out = tmp_path_factory.mktemp("suite")
    write_suite(generate_dataset_suite(RunConfig.from_dict(SMOKE)), out)
    return out


def fold_inputs(roles, cfg, pair):
    """The training features and the vocabulary of a fold, as `run_fold` builds them from `load_suite`'s roles."""

    def features(role, index):
        return featurize_chunk(roles[role][index](), m=cfg.window_m, n=cfg.window_n, ngram_n=cfg.ngram_n)

    train = features("normal", pair.train_index)
    return train, NGramVocabulary.from_subcalls(train, features(pair.test_role, pair.test_index))


def test_auto_minor_components_follow_each_folds_training_spectrum(smoke_suite):
    """`minor_components: "auto"` runs sorte_select on each fold's own training spectrum."""
    cfg = RunConfig.from_dict({**SMOKE, "minor_components": "auto"})
    manifest, _, roles = load_suite(smoke_suite)
    outputs = []
    run_detect(manifest, roles, cfg, outputs.extend)
    _, _, roles = load_suite(smoke_suite)  # run_detect empties the loaders it is given

    chosen = []
    for out in outputs:
        train, vocab = fold_inputs(roles, cfg, out.pair)
        basis = fit_basis(build_feature_matrix(train, vocab))
        assert out.selected_components == min(sorte_select(basis.eigenvalues), basis.dim)
        chosen.append(out.selected_components)
    assert len(chosen) == 72 and len(set(chosen)) > 1


def test_fixed_minor_components_above_the_vocabulary_keep_every_column(tmp_path, smoke_suite):
    """A fixed count above a fold's vocabulary size is cut to that size, the basis's dimension, before
    the projection (`run_fold`): detect exits 0 and each fold keeps one component per vocabulary column."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMOKE, "minor_components": N_EVENTS**2 + 1}))  # above any 2-gram count
    run = tmp_path / "run"
    assert main(["detect", "--config", str(config), "--data", str(smoke_suite), "--out", str(run)]) == 0
    _, cfg, outputs = read_run(run)
    _, _, roles = load_suite(smoke_suite)
    assert len(outputs) == 72
    for out in outputs:
        _, vocab = fold_inputs(roles, cfg, out.pair)
        assert out.selected_components == len(vocab) < cfg.minor_components
