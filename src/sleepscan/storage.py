"""On-disk formats for detection outputs and their evaluation inputs.

Per fold (out_dir/folds/<pairing>_<i>x<j>/):
    fold.json         pairing, chunk indices, threshold, component count
    scores_train.csv  row,ue,offset,score,anomalous
    scores_test.csv   row,ue,offset,score,anomalous,fault_affected
    histograms.csv    method,stage,cell_id,value (long format): one row per
                      cell of each stage in pipeline.STAGES, and of the two
                      normalized stages for "combined"; the reader requires
                      exactly these rows

Aggregates (out_dir/aggregate/):
    labels_<method>.json  pooled mean, sigma and 3-sigma threshold; per
                          pairing the mean scores, abnormal and argmax cells
    histogram_<method>_<pairing>.csv  cell_id,raw,amplified,normalized,label
    heatmap_<method>_<pairing>.svg
The normalized column and the heat map show the normalized stage the
labels were computed on: amplified by default, raw under --no-amplify.

All floats are written with repr() so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

from .errors import DataError
from .mdtlog import FoldPair, lookup_index
from .pipeline import ALL_METHODS, COMBINED_STAGES, STAGES, FoldOutput, MethodAggregate


_SCORES_TRAIN_HEADER = "row,ue,offset,score,anomalous"
_SCORES_TEST_HEADER = "row,ue,offset,score,anomalous,fault_affected"
_HISTOGRAMS_HEADER = "method,stage,cell_id,value"


def fold_dir_name(pair: FoldPair) -> str:
    return f"{pair.test_role}_{pair.train_index}x{pair.test_index}"


def write_fold_output(out: FoldOutput, fold_dir) -> None:
    fold_dir = Path(fold_dir)
    fold_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "train_role": out.pair.train_role,
        "train_index": out.pair.train_index,
        "test_role": out.pair.test_role,
        "test_index": out.pair.test_index,
        "threshold": out.threshold,
        "selected_components": out.selected_components,
        "cell_ids": list(out.cell_ids),
    }
    with open(fold_dir / "fold.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")

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


@contextlib.contextmanager
def _parsing(path: Path):
    """Turn a missing or malformed output file into a DataError naming it."""
    try:
        yield
    except FileNotFoundError:
        raise DataError(f"missing {path}") from None
    except (KeyError, ValueError, TypeError, OverflowError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"malformed {path}: {exc!r}") from None


def csv_columns(path: Path, header: str) -> list[tuple[str, ...]]:
    """The fields of a CSV file as written here, column by column, as strings.

    The file must start with header and hold as many fields on every
    other line; anything else is a DataError naming the file.
    """
    with _parsing(path), open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise DataError(f"malformed {path}: the header is not {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise DataError(f"malformed {path}: a row without {width} fields")
    return list(zip(*rows)) or [()] * width


def read_fold_output(fold_dir) -> FoldOutput:
    fold_dir = Path(fold_dir)
    with _parsing(fold_dir / "fold.json"):
        with open(fold_dir / "fold.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        pair = FoldPair(
            train_role=meta["train_role"],
            train_index=meta["train_index"],
            test_role=meta["test_role"],
            test_index=meta["test_index"],
        )
        cell_ids = tuple(int(c) for c in meta["cell_ids"])
        threshold = float(meta["threshold"])
        selected_components = int(meta["selected_components"])
    if not (pair.train_role == "normal" and pair.test_role in ("problematic", "reference")
            and all(type(i) is int and i >= 0 for i in (pair.train_index, pair.test_index))):
        raise DataError(f"malformed {fold_dir / 'fold.json'}: unknown roles or chunk indices")

    def read_scores(name, header):
        path = fold_dir / name
        columns = csv_columns(path, header)
        with _parsing(path):
            ue, offset = (np.array(column, dtype=np.int64) for column in columns[1:3])
            scores = np.array(columns[3], dtype=np.float64)
            flags = [np.array(column, dtype=np.int64) != 0 for column in columns[4:]]
        return list(zip(ue.tolist(), offset.tolist())), scores, *flags

    train_rows, train_scores, train_anom = read_scores("scores_train.csv", _SCORES_TRAIN_HEADER)
    test_rows, test_scores, test_anom, affected = read_scores("scores_test.csv", _SCORES_TEST_HEADER)

    # Exactly the stages the writer writes, each (method, stage, cell) once.
    keys = [(m, st) for m in ALL_METHODS for st in sorted(COMBINED_STAGES if m == "combined" else STAGES)]
    key_index = {key: k for k, key in enumerate(keys)}
    path = fold_dir / "histograms.csv"
    methods, stages, cells, values = csv_columns(path, _HISTOGRAMS_HEADER)
    with _parsing(path):
        cell = lookup_index(np.array(cells, dtype=np.int64), cell_ids)
        values = np.array(values, dtype=np.float64)
    if (cell < 0).any():
        raise DataError(f"malformed {path}: a cell id missing from fold.json")
    key = np.array([key_index.get(k, -1) for k in zip(methods, stages)], dtype=np.int64)
    slot = key * len(cell_ids) + cell  # negative for an unknown method or stage
    order = np.argsort(slot, kind="stable")
    if not np.array_equal(slot[order], np.arange(len(keys) * len(cell_ids))):
        raise DataError(f"malformed {path}: not one row per method, stage and cell")
    histograms: dict[str, dict[str, np.ndarray]] = {}
    for (method, stage), scores in zip(keys, values[order].reshape(len(keys), len(cell_ids))):
        histograms.setdefault(method, {})[stage] = scores

    return FoldOutput(
        pair=pair,
        threshold=threshold,
        selected_components=selected_components,
        train_rows=train_rows,
        test_rows=test_rows,
        train_scores=train_scores,
        test_scores=test_scores,
        train_anomalous=train_anom,
        test_anomalous=test_anom,
        test_affected=affected,
        histograms=histograms,
        cell_ids=cell_ids,
    )


def list_fold_dirs(out_dir) -> list[Path]:
    folds_root = Path(out_dir) / "folds"
    if not folds_root.is_dir():
        raise DataError(f"no folds directory under {out_dir}; run detect first")
    return sorted(p for p in folds_root.iterdir() if p.is_dir())


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
    with open(out_dir / f"labels_{agg.method}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

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
