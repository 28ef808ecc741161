"""Round trips through the run-directory writers and readers: every float comes back bit for bit."""

from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocks import BLOCK_SIZES, bits, damaged, outcome
from sleepscan import evaluate, storage
from sleepscan.errors import ParseError
from sleepscan.mdtlog import FoldPair
from sleepscan.pipeline import ALL_METHODS, HISTOGRAM_STAGES, FoldOutput

# Spellings of repr() a reader must take: subnormal, short exponents, the largest float, negative zero.
AWKWARD = [5e-324, 1e-05, 1e16, 1.7976931348623157e308, -0.0, 0.1, 100.0]
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(AWKWARD)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def fold_outputs(draw) -> tuple[FoldOutput, list[int]]:
    """A fold output and the cell_ids of its run."""
    cell_ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True))
    n_train, n_test = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = st.tuples(st.integers(0, 2**40), st.integers(0, 2**20))

    def row_array(n):
        return st.lists(rows, min_size=n, max_size=n).map(lambda r: np.array(r, dtype=np.int64).reshape(n, 2))

    flags = st.lists(st.booleans(), min_size=n_test, max_size=n_test)
    n_values = len(HISTOGRAM_STAGES) * len(cell_ids)
    return FoldOutput(
        pair=FoldPair("normal", draw(st.integers(0, 5)), draw(st.sampled_from(["problematic", "reference"])),
                      draw(st.integers(0, 5))),
        threshold=draw(finite),
        selected_components=draw(st.integers(1, 8)),
        train_rows=draw(row_array(n_train)),
        test_rows=draw(row_array(n_test)),
        train_scores=np.array(draw(st.lists(finite, min_size=n_train, max_size=n_train)), dtype=np.float64),
        test_scores=np.array(draw(st.lists(finite, min_size=n_test, max_size=n_test)), dtype=np.float64),
        train_anomalous=np.array(draw(st.lists(st.booleans(), min_size=n_train, max_size=n_train)), dtype=bool),
        test_anomalous=np.array(draw(flags), dtype=bool),
        test_affected=np.array(draw(flags), dtype=bool),
        histograms=np.array(draw(st.lists(finite, min_size=n_values, max_size=n_values))).reshape(-1, len(cell_ids)),
    ), cell_ids


@settings(max_examples=60, deadline=None)
@given(fold_outputs())
def test_fold_output_round_trips_bit_for_bit(tmp_path_factory, fold):
    out, cell_ids = fold
    fold_dir = tmp_path_factory.mktemp("fold") / "fold"
    storage.write_fold_output(out, fold_dir, cell_ids)
    back = storage.read_fold_output(fold_dir, out.pair, cell_ids)
    assert (back.pair, back.selected_components) == (out.pair, out.selected_components)
    assert _bits([back.threshold]) == _bits([out.threshold])
    assert bits([back.train_rows, back.test_rows]) == bits([out.train_rows, out.test_rows])
    for name in ("train_scores", "test_scores"):
        assert _bits(getattr(back, name)) == _bits(getattr(out, name))
    for name in ("train_anomalous", "test_anomalous", "test_affected"):
        assert getattr(back, name).tolist() == getattr(out, name).tolist()
    assert bits(back.histograms) == bits(out.histograms)


@settings(max_examples=60, deadline=None)
@given(st.lists(finite, min_size=len(ALL_METHODS) * 6, max_size=len(ALL_METHODS) * 6))
@example((AWKWARD * 5)[: len(ALL_METHODS) * 6])
def test_metrics_summary_round_trips_bit_for_bit(tmp_path_factory, values):
    """write_eval's summary as read_metrics_summary reads it; the metrics themselves come from a stub."""
    methods = list(ALL_METHODS)
    written = {m: dict(zip(storage._SUMMARY_METRICS, values[6 * k: 6 * k + 6])) for k, m in enumerate(methods)}
    run = tmp_path_factory.mktemp("run")
    with mock.patch.object(evaluate, "method_metrics", lambda agg, cells, faulty: written[agg]), \
            mock.patch.object(evaluate, "fold_aucs", lambda outputs: []), \
            mock.patch.object(evaluate, "pooled_roc", lambda outputs: None), \
            mock.patch.object(evaluate, "heuristic_totals", lambda outputs, method, stage: {}):
        storage.write_eval(run, {"cell_ids": [1], "faulty_cell": 1, "methods": methods}, [], {m: m for m in methods})
    summary = storage.read_metrics_summary(Path(run))
    assert [method for method, _ in summary] == methods
    for method, row in summary:
        assert _bits(row) == _bits([written[method][k] for k in storage._SUMMARY_METRICS])


SMALL_CELLS = [4, 7, 9]
SMALL_PAIR = FoldPair("normal", 0, "problematic", 1)


def _small_fold() -> FoldOutput:
    """A fold of a run over SMALL_CELLS; each of its histograms is 0, 1, 2."""
    scores = np.array([0.5, 1e-05, 2.0])
    flags = np.array([False, True, False])
    return FoldOutput(
        pair=SMALL_PAIR, threshold=1.5, selected_components=2,
        train_rows=np.array([(0, 0), (0, 10), (3, 0)]), test_rows=np.array([(1, 0), (2, 0), (2, 10)]),
        train_scores=scores, test_scores=scores, train_anomalous=flags, test_anomalous=flags, test_affected=flags,
        histograms=np.tile(np.arange(len(SMALL_CELLS), dtype=np.float64), (len(HISTOGRAM_STAGES), 1)),
    )


@pytest.mark.parametrize(
    "name,edit,lineno",
    [
        ("scores_train.csv", lambda lines: [lines[0].upper()] + lines[1:], 1),
        ("scores_test.csv", lambda lines: lines[:2] + [lines[2].replace(",", ",,", 1)] + lines[3:], 3),
        ("scores_test.csv", lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:], 2),
        ("scores_test.csv", lambda lines: lines[:3] + [lines[3].replace(",0", ",-0", 1)], 4),
        ("histograms.csv", lambda lines: lines[:-1], 55),
        ("histograms.csv", lambda lines: lines + lines[-1:], 56),
        ("histograms.csv", lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:], 2),
    ],
    ids=["header", "bad_line", "rows_swapped", "flag_spelled_-0", "histogram_row_missing",
         "histogram_row_repeated", "histogram_rows_swapped"],
)
def test_damaged_fold_csv_names_its_file_line(tmp_path, name, edit, lineno):
    """The header is line 1; the first line the writer would not write there is the one named."""
    storage.write_fold_output(_small_fold(), tmp_path, SMALL_CELLS)
    path = tmp_path / name
    assert len(path.read_text().splitlines()) == (55 if name == "histograms.csv" else 4)  # 18 stages x 3 cells
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ParseError) as err:
        storage.read_fold_output(tmp_path, SMALL_PAIR, SMALL_CELLS)
    assert (err.value.path, err.value.lineno) == (str(path), lineno)


# Line edits of a fold CSV (each returns the lines that replace its line); "1e+400" parses to infinity.
CSV_EDITS = [
    lambda line: ["x,y"],
    lambda line: [",".join(line.split(",")[:3] + ["1e+400"] + line.split(",")[4:])],
    lambda line: [",".join(["7"] + line.split(",")[1:])],
    lambda line: [],
    lambda line: [line, line],
]


@settings(max_examples=60, deadline=None)
@given(fold_outputs(), st.sampled_from(["scores_train.csv", "scores_test.csv", "histograms.csv"]),
       st.lists(st.tuples(st.integers(0, 1000), st.integers(0, len(CSV_EDITS) - 1)), max_size=3),
       st.booleans(), st.booleans(), st.integers(1, 20))
def test_fold_read_in_small_blocks_is_read_as_in_one(tmp_path_factory, fold, name, edits, cut, crlf, block_lines):
    """The same fold bit for bit, or the same ParseError line and reason, however its CSVs are cut into blocks."""
    out, cell_ids = fold
    fold_dir = tmp_path_factory.mktemp("fold")
    storage.write_fold_output(out, fold_dir, cell_ids)
    path = fold_dir / name
    path.write_bytes(damaged(path.read_text(encoding="utf-8"), edits, CSV_EDITS, cut, crlf).encode())
    read = partial(storage.read_fold_output, pair=out.pair, cell_ids=cell_ids)
    assert outcome(read, fold_dir, block_lines) == outcome(read, fold_dir)


@pytest.mark.parametrize("block_lines", BLOCK_SIZES)
def test_header_only_scores_read_as_no_rows(tmp_path, block_lines):
    fold = _small_fold()
    fold.train_rows, fold.train_scores = np.zeros((0, 2), dtype=np.int64), np.zeros(0)
    fold.train_anomalous = np.zeros(0, dtype=bool)
    storage.write_fold_output(fold, tmp_path, SMALL_CELLS)
    assert (tmp_path / "scores_train.csv").read_text() == storage._SCORES_TRAIN_HEADER + "\n"
    back = outcome(partial(storage.read_fold_output, pair=SMALL_PAIR, cell_ids=SMALL_CELLS), tmp_path, block_lines)
    assert back["train_rows"] == ("<i8", (0, 2), b"") and back["train_scores"] == ("<f8", (0,), b"")
    assert back["train_anomalous"] == ("|b1", (0,), b"")
    assert back["test_rows"] == bits(np.array([(1, 0), (2, 0), (2, 10)], dtype=np.int64))


@pytest.mark.parametrize("name", ["scores_train.csv", "histograms.csv"])
def test_empty_fold_csv_names_its_missing_header(tmp_path, name):
    storage.write_fold_output(_small_fold(), tmp_path, SMALL_CELLS)
    (tmp_path / name).write_bytes(b"")
    with pytest.raises(ParseError) as err:
        storage.read_fold_output(tmp_path, SMALL_PAIR, SMALL_CELLS)
    assert (err.value.path, err.value.lineno) == (str(tmp_path / name), 1)
    assert err.value.reason.startswith("the header line is not")
