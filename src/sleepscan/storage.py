"""The run directory: every file detect and evaluate write, each with its one writer and reader here.

detect_manifest.json  config and its hash, data_dir, faulty_cell, cell_ids,
                      n_folds and methods (`write_run`, `read_detect_manifest`)
folds/<pairing>_<i>x<j>/  one per fold, named by `fold_dir_name`
                      (`write_fold_output`, `read_fold_output`); detect
                      writes each where it is computed, in a worker
                      under --jobs, through the writer `start_run` returns
    fold.json         the FoldPair, threshold, component count and cell_ids
    scores_train.csv  row,ue,offset,score,anomalous
    scores_test.csv   row,ue,offset,score,anomalous,fault_affected
    histograms.csv    method,stage,cell_id,value (long format): one row per
                      cell of each stage in pipeline.STAGES, and of the two
                      normalized stages for "combined"; methods in
                      ALL_METHODS order, stages sorted, cells in cell_ids order
aggregate/            (`write_method_aggregate`)
    labels_<method>.json  pooled mean, sigma and 3-sigma threshold; per
                      pairing the mean scores, abnormal and argmax cells
                      (`read_labels`)
    histogram_<method>_<pairing>.csv  cell_id,raw,amplified,normalized,label
    heatmap_<method>_<pairing>.svg
eval/                 (`write_eval`)
    metrics_<method>.json    one method's confusion metrics
    metrics_summary.csv      method,accuracy,precision,recall,f_score,tnr,fpr
                             (`read_metrics_summary`)
    roc_auc.csv              fold,auc per problematic fold with both classes, then mean
    roc_points.csv           fpr,tpr of the pooled ROC, then "# auc,<auc>"
    heuristic_distances.csv  method,variant,scenario,distance_sum,runs
The normalized column and the heat map show the normalized stage the
labels were computed on: amplified by default, raw under --no-amplify.

A detect run starts with `start_run`, which removes detect's own entries
(folds/, aggregate/, eval/ and detect_manifest.json, nothing else) from
the directory, and ends with `write_run`, which writes the aggregates
and, last, detect_manifest.json: a detect that fails leaves no manifest.
`read_run` reads back exactly the folds detect wrote: n_folds fold
directories, each named for the fold its fold.json describes and over
the manifest's cell_ids; anything else is a DataError naming the file.
All floats are written with repr() so reruns are byte-identical.

Each reader accepts only its writer's lines, in its writer's order.  A
CSV is its exact header, as line 1, then lines that each match one
pattern of the line its writer emits (`mdtlog.line_columns`): integers
in JSON grammar, floats spelled as repr() spells a finite float, flags 0
or 1.  The `row` column counts 0, 1, ... and the (method, stage,
cell_id) keys of histograms.csv are the written sequence.  The first
line that differs is a ParseError naming the file and that line.
fold.json and detect_manifest.json must hold their keys with the JSON
types their writers write.
"""

from __future__ import annotations

import re
import shutil
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluate as ev
from .config import RunConfig
from .errors import ConfigError, DataError, ParseError
from .mdtlog import (
    FLOAT_REPR, JSON_INT, FoldPair, check_rows, finite_check, line_columns, read_json_object, write_json,
)
from .pipeline import ALL_METHODS, COMBINED_STAGES, STAGES, FoldOutput, MethodAggregate

_MANIFEST_KEYS = ("cell_ids", "config", "config_hash", "faulty_cell", "methods", "n_folds")
_PAIR_KEYS = ("train_role", "train_index", "test_role", "test_index")
_SUMMARY_METRICS = ("accuracy", "precision", "recall", "f_score", "tnr", "fpr")
_SUMMARY_HEADER = ",".join(("method",) + _SUMMARY_METRICS)
_SCORES_TRAIN_HEADER = "row,ue,offset,score,anomalous"
_SCORES_TEST_HEADER = "row,ue,offset,score,anomalous,fault_affected"
_HISTOGRAMS_HEADER = "method,stage,cell_id,value"
# (method, stage) of each block of histograms.csv rows, in the order the writer writes them.
_HISTOGRAM_STAGES = tuple(
    (m, stage) for m in ALL_METHODS for stage in sorted(COMBINED_STAGES if m == "combined" else STAGES)
)


def _line(*fields: str) -> re.Pattern:
    """One CSV line of the given field patterns, as `mdtlog.line_columns` takes it."""
    return re.compile("^" + ",".join(fields) + "\n", re.MULTILINE | re.ASCII)


_INT, _FLOAT, _FLAG = f"({JSON_INT})", f"({FLOAT_REPR})", "([01])"
_SCORES_TRAIN_LINE = _line(_INT, _INT, _INT, _FLOAT, _FLAG)
_SCORES_TEST_LINE = _line(_INT, _INT, _INT, _FLOAT, _FLAG, _FLAG)
_HISTOGRAMS_LINE = _line(f"([a-z]+,[a-z_]+,{JSON_INT})", _FLOAT)  # the (method, stage, cell_id) key as one field
_SUMMARY_LINE = _line(f"({'|'.join(ALL_METHODS)})", *[_FLOAT] * len(_SUMMARY_METRICS))


def fold_dir_name(pair: FoldPair) -> str:
    return f"{pair.test_role}_{pair.train_index}x{pair.test_index}"


# What detect owns in its output directory, the manifest first: a run cut short leaves none.
_DETECT_ENTRIES = ("detect_manifest.json", "eval", "aggregate", "folds")


def start_run(out_dir) -> Callable[[FoldOutput], None]:
    """Clear detect's own entries in out_dir, and return the writer of one fold output into it.

    Nothing else in out_dir is touched, so no fold of an earlier run can
    mix with the folds of this one.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in _DETECT_ENTRIES:
            path = out_dir / name
            if path.is_dir() and not path.is_symlink():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot clear {exc.filename}: {exc.strerror}") from None
    return lambda out: write_fold_output(out, out_dir / "folds" / fold_dir_name(out.pair))


def write_run(out_dir, cfg: RunConfig, data_dir, faulty_cell: int, methods, outputs, aggregates) -> None:
    """The end of a detect run whose folds are written: the aggregates of methods, then detect_manifest.json."""
    out_dir = Path(out_dir)
    cell_ids = list(outputs[0].cell_ids)
    layout = cfg.layout()
    for method in methods:
        write_method_aggregate(aggregates[method], cell_ids, out_dir / "aggregate", layout=layout)
    write_json(out_dir / "detect_manifest.json", dict(
        config=cfg.to_dict(), config_hash=cfg.config_hash(), data_dir=str(Path(data_dir)),
        faulty_cell=faulty_cell, cell_ids=cell_ids, n_folds=len(outputs), methods=list(methods),
    ))


def read_detect_manifest(out_dir) -> tuple[dict, RunConfig]:
    """The detect manifest of a run directory and the configuration it records."""
    path = Path(out_dir) / "detect_manifest.json"
    if not path.exists():
        raise DataError(f"no detect_manifest.json in {out_dir}; run detect first")
    manifest = read_json_object(path, _MANIFEST_KEYS)
    if not (
        all(type(manifest[key]) is int for key in ("faulty_cell", "n_folds"))
        and isinstance(manifest["config_hash"], str) and isinstance(manifest["config"], dict)
        and isinstance(manifest["methods"], list) and all(m in ALL_METHODS for m in manifest["methods"])
        and isinstance(manifest["cell_ids"], list) and all(type(c) is int for c in manifest["cell_ids"])
    ):
        raise DataError(f"{path}: needs integer faulty_cell and n_folds, a string config_hash, "
                        f"a config object, methods from {', '.join(ALL_METHODS)} "
                        f"and a list of integer cell_ids")
    try:
        cfg = RunConfig.from_dict(manifest["config"])
    except ConfigError as exc:
        raise DataError(f"{path}: invalid config: {exc}") from None
    return manifest, cfg


def read_run(out_dir) -> tuple[dict, RunConfig, list[FoldOutput]]:
    """The detect manifest, its configuration and the fold outputs of a run directory, in fold name order."""
    manifest, cfg = read_detect_manifest(out_dir)
    folds_root = Path(out_dir) / "folds"
    fold_dirs = sorted(p for p in folds_root.iterdir() if p.is_dir()) if folds_root.is_dir() else []
    if len(fold_dirs) != manifest["n_folds"]:
        raise DataError(f"{folds_root} holds {len(fold_dirs)} fold directories, but detect_manifest.json "
                        f"says n_folds {manifest['n_folds']}; run detect again")
    outputs = []
    for fold_dir in fold_dirs:
        out = read_fold_output(fold_dir, manifest["cell_ids"])
        if fold_dir_name(out.pair) != fold_dir.name:
            raise DataError(f"{fold_dir / 'fold.json'}: describes fold {fold_dir_name(out.pair)}, "
                            f"not the fold of its directory")
        outputs.append(out)
    return manifest, cfg, outputs


def write_fold_output(out: FoldOutput, fold_dir) -> None:
    fold_dir = Path(fold_dir)
    fold_dir.mkdir(parents=True, exist_ok=True)
    write_json(fold_dir / "fold.json", dict(
        asdict(out.pair), threshold=out.threshold,
        selected_components=out.selected_components, cell_ids=list(out.cell_ids),
    ))

    _write_lines(
        fold_dir / "scores_train.csv", _SCORES_TRAIN_HEADER,
        _score_lines(out.train_rows, out.train_scores, out.train_anomalous),
    )
    _write_lines(
        fold_dir / "scores_test.csv", _SCORES_TEST_HEADER,
        _score_lines(out.test_rows, out.test_scores, out.test_anomalous, out.test_affected),
    )
    _write_lines(fold_dir / "histograms.csv", _HISTOGRAMS_HEADER, (
        f"{method},{stage},{cell},{value!r}"
        for method in ALL_METHODS
        for stage in sorted(out.histograms[method])
        for cell, value in zip(out.cell_ids, out.histograms[method][stage].tolist())
    ))


def _score_lines(rows, scores, *flags):
    """The lines of a scores CSV: row, ue, offset, score, then each flag as 0 or 1.

    Scores repeat as the embedded rows do, so each distinct bit pattern
    is formatted once.
    """
    bits, index = np.unique(
        np.ascontiguousarray(scores, dtype=np.float64).view(np.int64), return_inverse=True
    )
    text = list(map(repr, bits.view(np.float64).tolist()))
    columns = [
        (f"{i},{ue},{offset}" for i, (ue, offset) in enumerate(rows)),
        map(text.__getitem__, index.tolist()),
        *(map(str, np.asarray(flag, dtype=np.uint8).tolist()) for flag in flags),
    ]
    return map(",".join, zip(*columns))


def _write_lines(path: Path, header: str, lines) -> None:
    """The header and the lines, each ending in a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *lines, ""]))


def _order_check(column, expected):
    """The `check_rows` check that column, the entries of some rows, is expected, what the writer writes there.

    expected may be shorter than column: a row past its end is one the writer does not write.
    """
    column, expected = tuple(column), tuple(expected)
    flags = np.zeros(len(column), dtype=bool)
    if column != expected:  # one comparison; only a damaged file is compared entry by entry
        flags[:] = [row >= len(expected) or entry != expected[row] for row, entry in enumerate(column)]
    return flags, lambda row: (
        f"the writer writes {expected[row]!r} here" if row < len(expected) else "a line the writer does not write"
    )


def read_fold_output(fold_dir, cell_ids) -> FoldOutput:
    """The fold output `write_fold_output` wrote in fold_dir; its fold.json must hold the run's cell_ids."""
    fold_dir = Path(fold_dir)
    path = fold_dir / "fold.json"
    meta = read_json_object(path, (*_PAIR_KEYS, "threshold", "selected_components", "cell_ids"))
    pair = FoldPair(**{key: meta[key] for key in _PAIR_KEYS})
    if not (pair.train_role == "normal" and pair.test_role in ("problematic", "reference")
            and all(type(v) is int for v in (pair.train_index, pair.test_index, meta["selected_components"]))
            and min(pair.train_index, pair.test_index) >= 0 and type(meta["threshold"]) is float
            and isinstance(meta["cell_ids"], list) and all(type(c) is int for c in meta["cell_ids"])):
        raise DataError(f"{path}: needs train_role normal, test_role problematic or reference, non-negative "
                        f"integer chunk indices, integer selected_components, a float threshold "
                        f"and a list of integer cell_ids")
    if meta["cell_ids"] != list(cell_ids):  # every histogram must follow one cell order
        raise DataError(f"{path}: cell_ids differ from those of detect_manifest.json")

    def score_arrays(path, lineno, row, ue, offset, score, *flags):
        scores = np.array(score, dtype=np.float64)
        written_rows = tuple(map(str, range(lineno - 2, lineno - 2 + len(row))))  # the header is line 1
        check_rows(path, lineno, _order_check(row, written_rows), finite_check(score, scores))
        flags = [np.array([value == "1" for value in flag], dtype=bool) for flag in flags]
        return np.array(ue, dtype=np.int64), np.array(offset, dtype=np.int64), scores, *flags

    def read_scores(name, header, line):
        ue, offset, scores, *flags = line_columns(line, fold_dir / name, score_arrays, header)
        return list(zip(ue.tolist(), offset.tolist())), scores, *flags

    train_rows, train_scores, train_anom = read_scores("scores_train.csv", _SCORES_TRAIN_HEADER, _SCORES_TRAIN_LINE)
    test_rows, test_scores, test_anom, affected = read_scores(
        "scores_test.csv", _SCORES_TEST_HEADER, _SCORES_TEST_LINE
    )

    written_keys = tuple(f"{m},{st},{c}" for m, st in _HISTOGRAM_STAGES for c in cell_ids)

    def histogram_values(path, lineno, keys, value):
        values = np.array(value, dtype=np.float64)
        start = lineno - 2
        check_rows(path, lineno, _order_check(keys, written_keys[start:start + len(keys)]), finite_check(value, values))
        return (values,)

    path = fold_dir / "histograms.csv"
    values, = line_columns(_HISTOGRAMS_LINE, path, histogram_values, _HISTOGRAMS_HEADER)
    if len(values) < len(written_keys):
        raise ParseError(path, len(values) + 2, f"the writer writes {written_keys[len(values)]!r} here")
    histograms: dict[str, dict[str, np.ndarray]] = {}
    rows = values.reshape(len(_HISTOGRAM_STAGES), len(cell_ids))
    for (method, stage), scores in zip(_HISTOGRAM_STAGES, rows):
        histograms.setdefault(method, {})[stage] = scores

    return FoldOutput(
        pair=pair,
        threshold=meta["threshold"],
        selected_components=meta["selected_components"],
        train_rows=train_rows,
        test_rows=test_rows,
        train_scores=train_scores,
        test_scores=test_scores,
        train_anomalous=train_anom,
        test_anomalous=test_anom,
        test_affected=affected,
        histograms=histograms,
        cell_ids=tuple(cell_ids),
    )


def write_method_aggregate(
    agg: MethodAggregate, cell_ids, out_dir, layout=None
) -> None:
    """labels JSON, per-pairing mean-histogram CSV, and heat maps."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "method": agg.method,
        "pooled_mean": agg.pooled_mean,
        "pooled_sigma": agg.pooled_sigma,
        "threshold": agg.pooled_mean + 3.0 * agg.pooled_sigma,
        "pairings": {},
    }
    for pairing, labels in agg.labels.items():
        stages = agg.mean_stages[pairing]
        norm = stages[agg.stage]  # the stage the labels were computed on
        doc["pairings"][pairing] = {
            "mean_scores": {str(c): float(v) for c, v in zip(cell_ids, norm)},
            "abnormal_cells": [c for c, flag in zip(cell_ids, labels) if flag],
            "argmax_cell": int(cell_ids[int(np.argmax(norm))]),
            "runs": len(agg.run_labels[pairing]),
        }
    write_json(out_dir / f"labels_{agg.method}.json", doc)

    for pairing, labels in agg.labels.items():
        stages = agg.mean_stages[pairing]
        raw = stages.get("raw")
        amped = stages.get("amplified")
        norm = stages[agg.stage]
        path = out_dir / f"histogram_{agg.method}_{pairing}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("cell_id,raw,amplified,normalized,label\n")
            for i, cell in enumerate(cell_ids):
                raw_v = "" if raw is None else repr(float(raw[i]))
                amp_v = "" if amped is None else repr(float(amped[i]))
                fh.write(f"{cell},{raw_v},{amp_v},{float(norm[i])!r},{int(labels[i])}\n")
        if layout is not None:
            from .heatmap import write_heatmap

            write_heatmap(
                layout,
                norm,
                cell_ids,
                out_dir / f"heatmap_{agg.method}_{pairing}.svg",
                title=f"{agg.method} / {pairing}",
            )


def read_labels(out_dir, method: str) -> dict | None:
    """The labels JSON of one method, or None if detect did not write it."""
    path = Path(out_dir) / "aggregate" / f"labels_{method}.json"
    if not path.exists():
        return None
    doc = read_json_object(path, ("threshold", "pairings"))
    entries = doc["pairings"]
    if not (
        isinstance(doc["threshold"], (int, float))
        and isinstance(entries, dict)
        and all(isinstance(e, dict) and {"argmax_cell", "abnormal_cells"} <= e.keys() for e in entries.values())
    ):
        raise DataError(f"{path}: threshold must be a number and pairings map to argmax_cell, abnormal_cells")
    return doc


def write_eval(out_dir, manifest: dict, methods, outputs, aggregates) -> tuple[dict, float | None]:
    """eval/ of a run: each method's metrics, the fold and pooled ROC, and heuristic distances.

    Returns the metrics of each method and the mean fold AUC (None if no
    problematic fold holds both classes).
    """
    eval_dir = Path(out_dir) / "eval"
    eval_dir.mkdir(exist_ok=True)
    metrics = {m: ev.method_metrics(aggregates[m], manifest["cell_ids"], manifest["faulty_cell"]) for m in methods}
    for method, values in metrics.items():
        write_json(eval_dir / f"metrics_{method}.json", {"method": method, **values})
    _write_lines(eval_dir / "metrics_summary.csv", _SUMMARY_HEADER, (
        ",".join([method, *(repr(values[k]) for k in _SUMMARY_METRICS)]) for method, values in metrics.items()
    ))
    aucs = ev.fold_aucs(outputs)
    mean_auc = ev.mean_auc(aucs) if aucs else None
    _write_lines(eval_dir / "roc_auc.csv", "fold,auc", [
        *(f"{fold_dir_name(pair)},{auc!r}" for pair, auc in aucs),
        *([] if mean_auc is None else [f"mean,{mean_auc!r}"]),
    ])
    curve = ev.pooled_roc(outputs)
    if curve is not None:
        _write_lines(eval_dir / "roc_points.csv", "fpr,tpr", [
            *(f"{x!r},{y!r}" for x, y in zip(curve.fpr.tolist(), curve.tpr.tolist())),
            f"# auc,{curve.auc!r}",
        ])
    _write_lines(eval_dir / "heuristic_distances.csv", "method,variant,scenario,distance_sum,runs", (
        f"{method},{variant},{scenario},{dist!r},{runs}"
        for method in methods
        for variant, stage in ev.HEURISTIC_VARIANTS
        for scenario, (dist, runs) in ev.heuristic_totals(outputs, method, stage).items()
    ))
    return metrics, mean_auc


def read_metrics_summary(out_dir) -> list[tuple[str, list[float]]] | None:
    """(method, metric values in summary column order) rows of eval/metrics_summary.csv, or None before evaluate."""
    path = Path(out_dir) / "eval" / "metrics_summary.csv"
    if not path.exists():
        return None
    methods, *columns = line_columns(_SUMMARY_LINE, path, _summary_arrays, _SUMMARY_HEADER)
    methods = methods.tolist()
    check_rows(path, 2, _order_check(methods, [m for m in ALL_METHODS if m in methods]))
    return list(zip(methods, np.array(columns).T.tolist()))


def _summary_arrays(path, lineno, methods, *metrics) -> tuple[np.ndarray, ...]:
    values = [np.array(column, dtype=np.float64) for column in metrics]
    check_rows(path, lineno, *map(finite_check, metrics, values))
    return np.array(methods, dtype=str), *values
