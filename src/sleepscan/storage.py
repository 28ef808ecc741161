"""The run directory: every file detect and evaluate write, each with its one writer and reader here.

detect_manifest.json  config, data_dir, n_folds, and what the config fixes
                      (`_run_facts`): config_hash, faulty_cell, cell_ids and
                      methods (`write_run`, `read_detect_manifest`)
folds/<pairing>_<i>x<j>/  one per fold, named by `fold_dir_name`
                      (`write_fold_output`, `read_fold_output`); detect
                      writes the folds of each test chunk where they are
                      computed, in a worker under --jobs, through the
                      writer `start_run` returns
    fold.json         the FoldPair, threshold, component count and cell_ids
    scores_train.csv  row,ue,offset,score,anomalous
    scores_test.csv   row,ue,offset,score,anomalous,fault_affected
    histograms.csv    method,stage,cell_id,value: the fold's histograms array
                      in long format, one line per cell of each row in
                      pipeline.HISTOGRAM_STAGES order (methods in
                      ALL_METHODS order, stages sorted, "combined" only
                      normalized), cells in cell_ids order
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
labels were computed on: amplified, or raw when the config sets amplify false.

A detect run starts with `start_run`, which removes detect's own entries
(folds/, aggregate/, eval/ and detect_manifest.json, nothing else) from
the directory, and ends with `write_run`, which writes the aggregates
and, last, detect_manifest.json: a detect that fails leaves no manifest.
`read_run` reads back exactly the folds detect wrote: the first n_folds
of `make_fold_pairs`, in that order, each from the directory
`fold_dir_name` names.  folds/ holding any other set of directories is
a DataError naming folds/, and a fold.json that describes another fold
or other cell_ids than the manifest's a DataError naming the file.
Each CSV is written, header and lines, in one `_write_lines` call.  All
floats are written with repr() so reruns are byte-identical.

Each reader accepts only its writer's lines, in its writer's order.  A
CSV is its exact header, as line 1, then lines that each match one
pattern of the line its writer emits (`mdtlog.line_columns`): integers
in JSON grammar, floats spelled as repr() spells a finite float, flags 0
or 1.  The `row` column counts 0, 1, ... and the (method, stage,
cell_id) keys of histograms.csv are the written sequence.  The first
line that differs is a ParseError naming the file and that line.
fold.json must hold its fold's pair and the run's cell_ids as its writer
writes them (`mdtlog.check_entries`: 1 is not true or 1.0), an integer
selected_components and a float threshold; detect_manifest.json a valid
config, an integer n_folds, and exactly the `_run_facts` of that config;
a labels JSON a float threshold and, per problematic or reference
pairing, an argmax cell of cell_ids and its abnormal cells in cell_ids
order.
"""

from __future__ import annotations

import re
import shutil
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import DataError, ParseError
from .heatmap import write_heatmap
from .mdtlog import (
    FLOAT_REPR, JSON_INT, FoldPair, check_entries, check_rows, finite_check, is_json_int, line_columns,
    make_fold_pairs, read_json_object, write_json,
)
from .pipeline import ALL_METHODS, HISTOGRAM_STAGES, FoldOutput, MethodAggregate

_SUMMARY_METRICS = ("accuracy", "precision", "recall", "f_score", "tnr", "fpr")
_SUMMARY_HEADER = ",".join(("method",) + _SUMMARY_METRICS)
_SCORES_TRAIN_HEADER = "row,ue,offset,score,anomalous"
_SCORES_TEST_HEADER = "row,ue,offset,score,anomalous,fault_affected"
_HISTOGRAMS_HEADER = "method,stage,cell_id,value"


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


def start_run(out_dir, cell_ids) -> Callable[[list[FoldOutput]], None]:
    """Clear detect's own entries in out_dir, and return the writer of one task's fold outputs into it,
    over the run's cell_ids.

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

    def write_task(outputs: list[FoldOutput]) -> None:
        for out in outputs:
            write_fold_output(out, out_dir / "folds" / fold_dir_name(out.pair), cell_ids)

    return write_task


def _run_facts(cfg: RunConfig) -> dict:
    """The detect manifest entries cfg alone fixes: what `write_run` writes and `read_detect_manifest` requires."""
    return {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "faulty_cell": cfg.faulty_cell,
        "cell_ids": list(cfg.layout().cell_ids),
        "methods": list(ALL_METHODS),
    }


def write_run(out_dir, cfg: RunConfig, data_dir, folds, aggregates) -> None:
    """The end of a detect run whose folds are written: the aggregate of each method, then detect_manifest.json."""
    out_dir = Path(out_dir)
    facts = _run_facts(cfg)
    layout = cfg.layout()
    try:
        for method in ALL_METHODS:
            write_method_aggregate(aggregates[method], facts["cell_ids"], out_dir / "aggregate", layout)
        manifest = {**facts, "data_dir": str(Path(data_dir)), "n_folds": len(folds)}
        write_json(out_dir / "detect_manifest.json", manifest)
    except OSError as exc:
        raise _write_error(exc, out_dir) from None


def read_detect_manifest(out_dir) -> tuple[dict, RunConfig]:
    """The detect manifest of a run directory and the configuration it records, which gives its `_run_facts`."""
    path = Path(out_dir) / "detect_manifest.json"
    if not path.exists():
        raise DataError(f"no detect_manifest.json in {out_dir}; run detect first")
    manifest = read_json_object(path, ("config", "n_folds"))
    if type(manifest["n_folds"]) is not int:
        raise DataError(f"{path}: n_folds must be an integer")
    cfg = RunConfig.from_manifest(manifest, path)
    check_entries(path, manifest, _run_facts(cfg), "detect")
    return manifest, cfg


def read_run(out_dir) -> tuple[dict, RunConfig, list[FoldOutput]]:
    """The detect manifest, its configuration and the fold outputs of a run directory.

    The folds are the first n_folds of `make_fold_pairs`, the folds detect
    wrote, read by `fold_dir_name` and returned in that order, the order
    of the records `pipeline.run_detect` returns.
    """
    manifest, cfg = read_detect_manifest(out_dir)
    n_folds, folds_root = manifest["n_folds"], Path(out_dir) / "folds"
    every = make_fold_pairs(cfg.n_chunks)
    pairs = every[:n_folds]
    found = sorted(p.name for p in folds_root.iterdir() if p.is_dir()) if folds_root.is_dir() else []
    if len(pairs) != n_folds or sorted(map(fold_dir_name, pairs)) != found:
        raise DataError(f"{folds_root} must hold the first n_folds ({n_folds}) of the {len(every)} folds "
                        f"of its config, each in its own directory, and nothing else; run detect again")
    return manifest, cfg, [
        read_fold_output(folds_root / fold_dir_name(pair), pair, manifest["cell_ids"]) for pair in pairs
    ]


def write_fold_output(out: FoldOutput, fold_dir, cell_ids) -> None:
    """The files of one fold of a run over cell_ids in fold_dir."""
    fold_dir = Path(fold_dir)
    try:
        fold_dir.mkdir(parents=True, exist_ok=True)
        write_json(fold_dir / "fold.json", dict(
            asdict(out.pair), threshold=out.threshold,
            selected_components=out.selected_components, cell_ids=list(cell_ids),
        ))
        _write_lines(
            fold_dir / "scores_train.csv", _SCORES_TRAIN_HEADER,
            _score_lines(out.train_rows, out.train_scores, out.train_anomalous),
        )
        _write_lines(
            fold_dir / "scores_test.csv", _SCORES_TEST_HEADER,
            _score_lines(out.test_rows, out.test_scores, out.test_anomalous, out.test_affected),
        )
        keys = [f"{m},{st},{c}," for m, st in HISTOGRAM_STAGES for c in cell_ids]
        values = out.histograms.ravel().tolist()
        _write_lines(fold_dir / "histograms.csv", _HISTOGRAMS_HEADER, map(str.__add__, keys, map(repr, values)))
    except OSError as exc:
        raise _write_error(exc, fold_dir) from None


def _write_error(exc: OSError, path) -> DataError:
    """A failed write of path, as the DataError (exit 3) that names the file."""
    return DataError(f"cannot write {exc.filename or path}: {exc.strerror}")


def _score_lines(rows, scores, *flags):
    """The lines of a scores CSV: row (0, 1, ...), each rows column (ue, offset), score, then each flag as 0 or 1.

    Scores repeat as the embedded rows do, so each distinct bit pattern
    is formatted once.
    """
    bits, index = np.unique(
        np.ascontiguousarray(scores, dtype=np.float64).view(np.int64), return_inverse=True
    )
    text = list(map(repr, bits.view(np.float64).tolist()))
    columns = [
        map(str, range(len(rows))),
        *(map(str, column) for column in rows.T.tolist()),
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


def read_fold_output(fold_dir, pair: FoldPair, cell_ids) -> FoldOutput:
    """The fold output `write_fold_output` wrote in fold_dir for the fold pair of a run over cell_ids.

    Its fold.json must hold that pair and those cell_ids, as JSON values
    of the types its writer writes (`mdtlog.check_entries`).
    """
    fold_dir = Path(fold_dir)
    path = fold_dir / "fold.json"
    meta = read_json_object(path, ("threshold", "selected_components"))
    check_entries(path, meta, {**asdict(pair), "cell_ids": list(cell_ids)}, "detect")
    if not (is_json_int(meta["selected_components"]) and type(meta["threshold"]) is float):
        raise DataError(f"{path}: needs integer selected_components and a float threshold")

    def score_arrays(path, lineno, row, ue, offset, score, *flags):
        scores = np.array(score, dtype=np.float64)
        written_rows = tuple(map(str, range(lineno - 2, lineno - 2 + len(row))))  # the header is line 1
        check_rows(path, lineno, _order_check(row, written_rows), finite_check(score, scores))
        flags = [np.array([value == "1" for value in flag], dtype=bool) for flag in flags]
        return np.stack((np.array(ue, dtype=np.int64), np.array(offset, dtype=np.int64)), axis=1), scores, *flags

    train_rows, train_scores, train_anom = line_columns(
        _SCORES_TRAIN_LINE, fold_dir / "scores_train.csv", score_arrays, _SCORES_TRAIN_HEADER
    )
    test_rows, test_scores, test_anom, affected = line_columns(
        _SCORES_TEST_LINE, fold_dir / "scores_test.csv", score_arrays, _SCORES_TEST_HEADER
    )

    written_keys = tuple(f"{m},{st},{c}" for m, st in HISTOGRAM_STAGES for c in cell_ids)

    def histogram_values(path, lineno, keys, value):
        values = np.array(value, dtype=np.float64)
        start = lineno - 2
        check_rows(path, lineno, _order_check(keys, written_keys[start:start + len(keys)]), finite_check(value, values))
        return (values,)

    path = fold_dir / "histograms.csv"
    values, = line_columns(_HISTOGRAMS_LINE, path, histogram_values, _HISTOGRAMS_HEADER)
    if len(values) < len(written_keys):
        raise ParseError(path, len(values) + 2, f"the writer writes {written_keys[len(values)]!r} here")
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
        histograms=values.reshape(len(HISTOGRAM_STAGES), len(cell_ids)),
    )


def write_method_aggregate(agg: MethodAggregate, cell_ids, out_dir, layout) -> None:
    """labels JSON, per-pairing mean-histogram CSV, and heat maps."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "method": agg.method,
        "pooled_mean": agg.pooled_mean,
        "pooled_sigma": agg.pooled_sigma,
        "threshold": agg.threshold,
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
        norm = stages[agg.stage]
        columns = [
            [""] * len(cell_ids) if values is None else [repr(float(v)) for v in values]
            for values in (stages.get("raw"), stages.get("amplified"), norm)
        ]
        _write_lines(out_dir / f"histogram_{agg.method}_{pairing}.csv", "cell_id,raw,amplified,normalized,label", map(
            ",".join, zip(map(str, cell_ids), *columns, (str(int(flag)) for flag in labels))
        ))
        write_heatmap(
            layout, norm, cell_ids, out_dir / f"heatmap_{agg.method}_{pairing}.svg", title=f"{agg.method} / {pairing}"
        )


def read_labels(out_dir, method: str, cell_ids) -> dict:
    """The labels JSON detect wrote for one method of a run over cell_ids."""
    path = Path(out_dir) / "aggregate" / f"labels_{method}.json"
    doc = read_json_object(path, ("threshold", "pairings"))
    entries = doc["pairings"]

    def is_entry(e) -> bool:
        abnormal = e.get("abnormal_cells") if isinstance(e, dict) else None
        return (
            isinstance(abnormal, list) and all(map(is_json_int, abnormal))
            and abnormal == [c for c in cell_ids if c in abnormal]
            and is_json_int(e.get("argmax_cell")) and e["argmax_cell"] in cell_ids
        )

    if not (type(doc["threshold"]) is float and isinstance(entries, dict) and entries
            and entries.keys() <= {"problematic", "reference"} and all(map(is_entry, entries.values()))):
        raise DataError(f"{path}: needs a float threshold and problematic or reference pairings, each with an "
                        f"argmax_cell of the run's cell_ids and abnormal_cells, a list of those ids in their order")
    return doc


def write_eval(out_dir, manifest: dict, outputs, aggregates) -> tuple[dict, float | None]:
    """eval/ of a run: each method's metrics, the fold and pooled ROC, and heuristic distances.

    Returns the metrics of each method and the mean fold AUC (None if no
    problematic fold holds both classes).
    """
    from . import evaluate as ev  # only here: detect and report load no evaluation code

    eval_dir = Path(out_dir) / "eval"
    methods = manifest["methods"]
    metrics = {m: ev.method_metrics(aggregates[m], manifest["cell_ids"], manifest["faulty_cell"]) for m in methods}
    aucs = ev.fold_aucs(outputs)
    mean_auc = ev.mean_auc(aucs) if aucs else None
    curve = ev.pooled_roc(outputs)
    distances = [
        f"{method},{variant},{scenario},{dist!r},{runs}"
        for method in methods
        for variant, stage in ev.HEURISTIC_VARIANTS
        for scenario, (dist, runs) in ev.heuristic_totals(outputs, method, stage).items()
    ]
    try:
        eval_dir.mkdir(exist_ok=True)
        for method, values in metrics.items():
            write_json(eval_dir / f"metrics_{method}.json", {"method": method, **values})
        _write_lines(eval_dir / "metrics_summary.csv", _SUMMARY_HEADER, (
            ",".join([method, *(repr(values[k]) for k in _SUMMARY_METRICS)]) for method, values in metrics.items()
        ))
        _write_lines(eval_dir / "roc_auc.csv", "fold,auc", [
            *(f"{fold_dir_name(pair)},{auc!r}" for pair, auc in aucs),
            *([] if mean_auc is None else [f"mean,{mean_auc!r}"]),
        ])
        if curve is not None:
            _write_lines(eval_dir / "roc_points.csv", "fpr,tpr", [
                *(f"{x!r},{y!r}" for x, y in zip(curve.fpr.tolist(), curve.tpr.tolist())),
                f"# auc,{curve.auc!r}",
            ])
        _write_lines(eval_dir / "heuristic_distances.csv", "method,variant,scenario,distance_sum,runs", distances)
    except OSError as exc:
        raise _write_error(exc, eval_dir) from None
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
