"""Method comparison: confusion metrics, ROC curves, ideal-point distance.

Confusion counts are cell-level decisions across runs; the ROC sweeps
the sub-call anomaly score against per-sub-call ground truth; the
heuristic point is (spread of the non-argmax scores, maximum score)
measured against the ideal (0, 100) for a faulty scenario and
(0, 100/N) for a clean one.

The run-level functions at the end (`method_metrics`, `fold_aucs`,
`mean_auc`, `pooled_roc`, `heuristic_totals`) take fold outputs and
method aggregates as detect produces them; `sleepscan evaluate` writes
their results, and the acceptance tests check the same values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdtlog import FoldPair
from .pipeline import HISTOGRAM_ROW

# (variant name, histogram stage) pairs scored by heuristic_totals
HEURISTIC_VARIANTS = (("amplified", "normalized"), ("original", "normalized_raw"))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def count_confusion(flagged, faulty) -> ConfusionCounts:
    """Pool cell-level decisions over runs; both are (runs, cells) boolean arrays of one shape."""
    flagged = np.asarray(flagged, dtype=bool)
    faulty = np.asarray(faulty, dtype=bool)
    tp = int(np.count_nonzero(flagged & faulty))
    fp = int(np.count_nonzero(flagged)) - tp
    fn = int(np.count_nonzero(faulty)) - tp
    return ConfusionCounts(tp=tp, fp=fp, tn=flagged.size - tp - fp - fn, fn=fn)


def confusion_metrics(counts: ConfusionCounts) -> dict[str, float]:
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f_score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / counts.total if counts.total else 0.0
    tnr = tn / (tn + fp) if tn + fp else 1.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f_score": f_score,
        "tnr": tnr,
        "fpr": fpr,
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
    }


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc(scores, positive) -> RocCurve:
    """Threshold sweep over distinct score values, AUC by trapezoid rule; positive holds both classes."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positive[order]
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(~sorted_pos)
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    boundary = np.concatenate([distinct, [len(sorted_scores) - 1]])
    tpr = np.concatenate([[0.0], tp[boundary] / n_pos])
    fpr = np.concatenate([[0.0], fp[boundary] / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def heuristic_point(scores) -> tuple[float, float]:
    """(spread of all scores excluding the argmax cell, maximum score)."""
    scores = np.asarray(scores, dtype=np.float64)
    top = int(np.argmax(scores))
    rest = np.delete(scores, top)
    spread = float(rest.std(ddof=1)) if len(rest) > 1 else 0.0
    return spread, float(scores[top])


def heuristic_distance(scores, scenario: str) -> float:
    """Euclidean distance of a per-cell score array to the ideal point of scenario, "faulty" or "clean"."""
    x, y = heuristic_point(scores)
    ideal = (0.0, 100.0) if scenario == "faulty" else (0.0, 100.0 / len(scores))
    return float(np.hypot(x - ideal[0], y - ideal[1]))


def method_metrics(agg, cell_ids, faulty_cell: int) -> dict[str, float]:
    """Confusion metrics of one method's per-run labels, pooled over pairings.

    agg is a `pipeline.MethodAggregate` whose arrays are ordered by
    cell_ids.  A problematic run's truth is the faulty cell; a reference
    run has no faulty cell.
    """
    is_faulty = np.asarray(cell_ids) == faulty_cell
    flagged, faulty = [], []
    for pairing, runs in sorted(agg.run_labels.items()):
        flagged.append(runs)
        faulty.append(np.broadcast_to(is_faulty & (pairing == "problematic"), runs.shape))
    return confusion_metrics(count_confusion(np.vstack(flagged), np.vstack(faulty)))


def fold_aucs(fold_outputs) -> list[tuple[FoldPair, float]]:
    """Sub-call ROC AUC of each problematic fold whose test sub-calls hold both classes."""
    return [
        (out.pair, roc(out.test_scores, out.test_affected).auc)
        for out in fold_outputs
        if out.pair.test_role == "problematic"
        and out.test_affected.any()
        and not out.test_affected.all()
    ]


def mean_auc(aucs: list[tuple[FoldPair, float]]) -> float:
    """Mean of the per-fold AUCs that `fold_aucs` returns, if it returns any."""
    return float(np.mean([auc for _, auc in aucs]))


def pooled_roc(fold_outputs) -> RocCurve | None:
    """ROC of the test sub-calls of all problematic folds together; None unless they hold both
    affected and unaffected sub-calls (as `fold_aucs` skips a fold that holds one class)."""
    problematic = [out for out in fold_outputs if out.pair.test_role == "problematic"]
    affected = np.concatenate([out.test_affected for out in problematic] or [np.zeros(0, dtype=bool)])
    if affected.all() or not affected.any():
        return None
    return roc(np.concatenate([out.test_scores for out in problematic]), affected)


def heuristic_totals(fold_outputs, method: str, stage: str) -> dict[str, tuple[float, int]]:
    """Summed ideal-point distance and run count per test pairing, then "total".

    Each fold's `stage` histogram of `method` is measured against the
    faulty ideal when the fold tests a problematic chunk and against the
    clean ideal otherwise.
    """
    totals = {"problematic": [0.0, 0], "reference": [0.0, 0]}
    for out in fold_outputs:
        scenario = "faulty" if out.pair.test_role == "problematic" else "clean"
        totals[out.pair.test_role][0] += heuristic_distance(out.histograms[HISTOGRAM_ROW[method, stage]], scenario)
        totals[out.pair.test_role][1] += 1
    totals["total"] = [sum(v[0] for v in totals.values()), sum(v[1] for v in totals.values())]
    return {scenario: (dist, runs) for scenario, (dist, runs) in totals.items()}
