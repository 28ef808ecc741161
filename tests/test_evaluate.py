import numpy as np
import pytest

from sleepscan.errors import DataError
from sleepscan.evaluate import (
    ConfusionCounts,
    confusion_metrics,
    count_confusion,
    heuristic_distance,
    heuristic_point,
    method_metrics,
    roc,
)
from sleepscan.pipeline import MethodAggregate

N_CELLS = 21
CELLS = np.arange(1, N_CELLS + 1)


def cell_flags(*cell_sets):
    """A (runs, cells) boolean array: run i flags the cells of cell_sets[i]."""
    return np.array([np.isin(CELLS, list(cells)) for cells in cell_sets])


def test_perfect_single_run():
    counts = count_confusion(cell_flags({1}), cell_flags({1}))
    assert counts.total == N_CELLS
    m = confusion_metrics(counts)
    assert m["precision"] == 1.0 and m["recall"] == 1.0 and m["f_score"] == 1.0
    assert m["fpr"] == 0.0 and m["tnr"] == 1.0 and m["accuracy"] == 1.0


def test_everything_flagged():
    counts = count_confusion(cell_flags(set(CELLS)), cell_flags({1}))
    m = confusion_metrics(counts)
    assert m["recall"] == 1.0
    assert m["precision"] == pytest.approx(1 / 21)


def test_degenerate_counts_conventions():
    m = confusion_metrics(ConfusionCounts(tp=0, fp=0, tn=10, fn=0))
    assert m["precision"] == 1.0 and m["recall"] == 1.0
    m = confusion_metrics(ConfusionCounts(tp=0, fp=0, tn=0, fn=5))
    assert m["f_score"] == 0.0 or m["recall"] == 0.0


def test_counts_pool_across_runs():
    labels = cell_flags({1}, {1, 2})
    truths = cell_flags({1}, {1})
    counts = count_confusion(labels, truths)
    assert counts.total == 2 * N_CELLS
    assert counts.tp == 2 and counts.fp == 1
    assert counts.fn == 0 and counts.tn == 2 * N_CELLS - 3
    with pytest.raises(DataError):
        count_confusion(labels, cell_flags({1}))


def test_roc_separable_is_perfect():
    scores = np.array([10.0] * 5 + [1.0] * 20)
    truth = np.array([True] * 5 + [False] * 20)
    curve = roc(scores, truth)
    assert curve.auc == pytest.approx(1.0)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert np.all(np.diff(curve.fpr) >= 0) and np.all(np.diff(curve.tpr) >= 0)


def test_roc_identical_scores_half_auc():
    curve = roc(np.full(10, 3.0), np.array([True] * 4 + [False] * 6))
    assert curve.auc == pytest.approx(0.5)


def test_roc_single_class_is_an_error():
    with pytest.raises(DataError):
        roc(np.arange(5.0), np.ones(5, dtype=bool))


def test_roc_invariant_under_monotone_transform():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=40)
    truth = rng.uniform(size=40) < 0.4
    truth[0] = True
    truth[1] = False
    base = roc(scores, truth).auc
    assert roc(np.exp(scores), truth).auc == pytest.approx(base, abs=1e-12)
    assert roc(3.0 * scores + 7.0, truth).auc == pytest.approx(base, abs=1e-12)


def test_heuristic_ideal_points():
    one_hot = np.zeros(N_CELLS)
    one_hot[0] = 100.0
    assert heuristic_distance(one_hot, "faulty") == pytest.approx(0.0, abs=1e-9)
    uniform = np.full(N_CELLS, 100.0 / N_CELLS)
    assert heuristic_distance(uniform, "clean") == pytest.approx(0.0, abs=1e-9)
    expected = 100.0 - 100.0 / N_CELLS
    assert heuristic_distance(uniform, "faulty") == pytest.approx(expected, abs=1e-9)


def test_heuristic_point_axes():
    scores = np.zeros(N_CELLS)
    scores[2] = 80.0
    scores[3] = 20.0
    spread, peak = heuristic_point(scores)
    assert peak == 80.0
    rest = np.delete(scores, 2)
    assert spread == pytest.approx(float(np.std(rest, ddof=1)))
    with pytest.raises(DataError):
        heuristic_distance(scores, "meh")


def test_method_metrics_take_truth_from_the_pairing():
    # cells (1, 2, 3) with cell 2 faulty: only problematic runs hold a faulty cell
    agg = MethodAggregate(
        method="subcall",
        stage="normalized",
        pooled_mean=0.0,
        pooled_sigma=0.0,
        mean_stages={},
        labels={},
        run_labels={
            "problematic": np.array([[False, True, False], [False, True, False]]),
            "reference": np.array([[False, True, False], [False, False, False], [False, False, False]]),
        },
    )
    m = method_metrics(agg, (1, 2, 3), faulty_cell=2)
    assert (m["tp"], m["fp"], m["fn"], m["tn"]) == (2, 1, 0, 12)
