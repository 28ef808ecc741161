import json
import pickle
import re
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocks import BLOCK_SIZES, damaged, outcome
from sleepscan import mdtlog
from sleepscan.errors import DataError, ParseError
from sleepscan.mdtlog import (
    EVENTS_BY_NAME,
    NO_TARGET,
    TARGETED_EVENTS,
    WIRE_NAMES,
    Chunk,
    EventId,
    EventLog,
    FoldPair,
    group_calls,
    lookup_index,
    make_fold_pairs,
    read_records,
    sorted_unique,
    write_records,
)
from sleepscan.simgen.dominance import DominanceMap
from sleepscan.simgen.layout import GridSpec
from sleepscan.simgen.suite import load_truth, write_truth

GOLDEN_CODES = {
    "PL PROBLEM": 0,
    "RLF": 1,
    "RLF REESTAB.": 2,
    "A2 RSRP ENTER": 3,
    "A2 RSRP LEAVE": 4,
    "A2 RSRQ ENTER": 5,
    "A3 RSRP": 6,
    "HO COMMAND": 7,
    "HO COMPLETE": 8,
}


def test_event_codes_are_stable():
    assert len(EventId) == 9
    for name, code in GOLDEN_CODES.items():
        assert int(EVENTS_BY_NAME[name]) == code
    assert {WIRE_NAMES[e] for e in EventId} == set(GOLDEN_CODES)


def _rec(event=EventId.RLF, ue=1, t=0, x=0.0, y=0.0, serving=1, target=None):
    """One (event, ue, t, x, y, serving, target) row for `EventLog.from_rows`."""
    if event in TARGETED_EVENTS and target is None:
        target = 2
    return (int(event), ue, t, x, y, serving, NO_TARGET if target is None else target)


def _columns(log):
    return {f.name: getattr(log, f.name).tolist() for f in fields(log)}


def _group_oracle(records):
    """Calls as the record-object pipeline built them: per ue in ue order, stable by t."""
    by_ue = {}
    for rec in records:
        by_ue.setdefault(rec[1], []).append(rec)
    return [sorted(by_ue[ue], key=lambda r: r[2]) for ue in sorted(by_ue)]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text("")
    log = read_records(path)
    assert len(log) == 0
    grouped, bounds = group_calls(log)
    assert len(grouped) == 0 and bounds.tolist() == [0]


def test_grouping_and_lengths(tmp_path):
    records = [
        _rec(ue=7, t=0),
        _rec(ue=9, t=1),
        _rec(ue=7, t=1),
        _rec(ue=9, t=3),
        _rec(ue=7, t=2),
    ]
    path = tmp_path / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    grouped, bounds = group_calls(read_records(path))
    assert grouped.ue[bounds[:-1]].tolist() == [7, 9]
    assert np.diff(bounds).tolist() == [3, 2]


def test_missing_target_is_an_error_with_line(tmp_path):
    path = tmp_path / "log.jsonl"
    good = json.dumps({"ue": 1, "t": 0, "event": "RLF", "x": 0.0, "y": 0.0, "serving": 1, "target": None})
    bad = json.dumps(
        {"ue": 1, "t": 2, "event": "HO COMMAND", "x": 0.0, "y": 0.0, "serving": 1, "target": None}
    )
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ParseError) as err:
        read_records(path)
    assert err.value.lineno == 2
    assert "HO COMMAND" in str(err.value)


def test_parse_error_survives_pickling():
    """A detect worker sends the error of a damaged chunk back to the parent pickled."""
    err = pickle.loads(pickle.dumps(ParseError("a/b.jsonl", 3, "bad")))
    assert type(err) is ParseError
    assert (err.path, err.lineno, err.reason, str(err)) == ("a/b.jsonl", 3, "bad", "a/b.jsonl:3: bad")


def test_unknown_event_and_bad_coordinate(tmp_path):
    path = tmp_path / "log.jsonl"
    for line in (
        json.dumps({"ue": 1, "t": 0, "event": "NOPE", "x": 0, "y": 0, "serving": 1}),
        json.dumps({"ue": 1, "t": 0, "event": "RLF", "x": "wat", "y": 0, "serving": 1}),
        json.dumps({"ue": 1, "event": "RLF", "x": 0, "y": 0, "serving": 1}),
    ):
        path.write_text(line + "\n")
        with pytest.raises(ParseError, match="not in the written format") as err:
            read_records(path)
        assert err.value.lineno == 1


def test_tie_in_t_keeps_file_order(tmp_path):
    records = [
        _rec(ue=1, t=5, event=EventId.RLF),
        _rec(ue=1, t=5, event=EventId.RLF_REESTAB, target=3),
        _rec(ue=1, t=5, event=EventId.A2_RSRQ_ENTER),
    ]
    path = tmp_path / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    grouped, bounds = group_calls(read_records(path))
    assert bounds.tolist() == [0, 3]
    assert grouped.event.tolist() == [EventId.RLF, EventId.RLF_REESTAB, EventId.A2_RSRQ_ENTER]


events_st = st.sampled_from(list(EventId))
records_st = st.lists(
    st.builds(
        _rec,
        event=events_st,
        ue=st.integers(0, 5),
        t=st.integers(0, 50),
        x=st.floats(-1000, 1000, allow_nan=False),
        y=st.floats(-1000, 1000, allow_nan=False),
        serving=st.integers(1, 21),
        target=st.integers(1, 21),
    ),
    max_size=40,
)


@settings(max_examples=50, deadline=None)
@given(records_st)
def test_roundtrip_is_field_exact(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    log = read_records(path)
    assert _columns(log) == _columns(EventLog.from_rows(records))
    assert all(t != NO_TARGET for t in log.target.tolist())
    # grouped calls match direct grouping of the in-memory records
    grouped, bounds = group_calls(log)
    calls = _group_oracle(records)
    assert np.diff(bounds).tolist() == [len(c) for c in calls]
    flat = [rec for call in calls for rec in call]
    assert _columns(grouped) == _columns(EventLog.from_rows(flat))


def _json_dumps_line(rec):
    """Reference line: json.dumps of the record's dict."""
    event, ue, t, x, y, serving, target = rec
    obj = {"ue": ue, "t": t, "event": WIRE_NAMES[EventId(event)], "x": x, "y": y,
           "serving": serving, "target": None if target == NO_TARGET else target}
    return json.dumps(obj) + "\n"


AWKWARD_FLOATS = [1e-07, -0.0, 1e16, 100.0, 0.1 + 0.2, float(np.nextafter(10.0, 0.0)), 9.999999999999998,
                  -1234.5678, 5e-324, 1.7976931348623157e308, 123456789.12345679]


def test_write_records_matches_json_dumps(tmp_path):
    records = [
        _rec(event=event, ue=i, t=3 * i, x=x, y=-x, serving=1 + i % 21, target=target)
        for i, (event, x, target) in enumerate(
            zip(list(EventId) * 3, AWKWARD_FLOATS + AWKWARD_FLOATS[::-1], [None, 7, None, 21] * 7)
        )
    ]
    assert any(r[6] == NO_TARGET for r in records) and any(r[6] != NO_TARGET for r in records)
    path = tmp_path / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    assert path.read_bytes() == "".join(_json_dumps_line(r) for r in records).encode()
    write_records(EventLog.from_rows([]), path)
    assert path.read_bytes() == b""


@settings(max_examples=50, deadline=None)
@given(st.lists(st.builds(
    _rec,
    event=events_st,
    ue=st.integers(0, 2**40),
    t=st.integers(0, 2**40),
    x=st.floats(allow_nan=False, allow_infinity=False),
    y=st.floats(allow_nan=False, allow_infinity=False),
    serving=st.integers(0, 100),
    target=st.none() | st.integers(0, 100),
), max_size=20))
def test_write_records_matches_json_dumps_on_any_finite_float(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("wr") / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    assert path.read_bytes() == "".join(_json_dumps_line(r) for r in records).encode()


def test_fold_pairs_cross_product():
    """Every normal chunk against every problematic chunk, then against every reference chunk, in that order."""
    for n_chunks in (1, 2, 6, 11):
        expected = []
        for test_role in ("problematic", "reference"):
            for i in range(n_chunks):
                for j in range(n_chunks):
                    expected.append(FoldPair("normal", i, test_role, j))
        pairs = make_fold_pairs(n_chunks)
        assert pairs == expected
        assert len(set(pairs)) == 2 * n_chunks * n_chunks


def _truth(keys, counts):
    """Truth as `load_truth` returns it, from the (ue, event_index) keys of affected rows and {ue: rows}."""
    ues, marked = sorted(counts), set(keys)
    flags = [(ue, index) in marked for ue in ues for index in range(counts[ue])]
    return (np.array(ues, dtype=np.int64), np.array([counts[ue] for ue in ues], dtype=np.int64),
            np.array(flags, dtype=bool))


def test_chunk_attaches_cells_and_truth_by_call_position():
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=10.0, nx=4, ny=4)
    grid = np.full((4, 4), 5, dtype=np.int64)
    grid[:, 2:] = 3
    dmap = DominanceMap(grid_spec=spec, grid=grid)
    records = [
        _rec(ue=2, t=1, x=35.0),
        _rec(ue=1, t=0, x=5.0),
        _rec(ue=2, t=0, x=5.0),
        _rec(ue=1, t=1, x=35.0),
    ]
    truth = _truth([(2, 1), (7, 0)], {1: 2, 2: 2, 7: 1})  # ue 7 is another chunk's
    chunk = Chunk.from_log(EventLog.from_rows(records), dmap, [3, 5], truth, "truth does not match the log")
    assert chunk.log.ue.tolist() == [1, 1, 2, 2]
    assert chunk.log.t.tolist() == [0, 1, 0, 1]
    assert chunk.call_bounds.tolist() == [0, 2, 4]
    assert chunk.cell.tolist() == [1, 0, 1, 0]  # indices into [3, 5]
    assert chunk.affected.tolist() == [False, False, False, True]


@pytest.mark.parametrize(
    "counts,message",
    [({1: 2, 2: 3}, "truth lists 3 rows for ue 2, whose call has 2 records"),
     ({1: 1, 2: 2}, "truth lists 1 rows for ue 1, whose call has 2 records"),
     ({2: 2}, "truth lists 0 rows for ue 1, whose call has 2 records")],
    ids=["more_rows", "fewer_rows", "ue_missing"],
)
def test_truth_of_another_log_is_a_data_error(counts, message):
    """Truth must list one row per record of each of the chunk's UEs, or it was not written for this log."""
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=10.0, nx=1, ny=1)
    dmap = DominanceMap(grid_spec=spec, grid=np.full((1, 1), 5, dtype=np.int64))
    log = EventLog.from_rows([_rec(ue=ue, t=i) for i, ue in enumerate([2, 1, 2, 1])])
    with pytest.raises(DataError) as err:
        Chunk.from_log(log, dmap, [5], _truth([], counts), "truth.jsonl does not match chunk.jsonl")
    assert str(err.value) == f"truth.jsonl does not match chunk.jsonl: {message}"


def _assert_same_columns(got, expected):
    """Equal dtypes and bytes, field by field (so -0.0 differs from 0.0)."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _log_columns(log):
    return [getattr(log, f.name) for f in fields(log)]


written_records_st = st.lists(st.builds(
    _rec,
    event=events_st,
    ue=st.integers(-2**40, 2**40),
    t=st.integers(0, 2**40),
    x=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(AWKWARD_FLOATS),
    y=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(AWKWARD_FLOATS),
    serving=st.integers(0, 100),
    target=st.none() | st.integers(0, 100),
), max_size=30)


@settings(max_examples=100, deadline=None)
@given(written_records_st)
@example([])
@example([_rec(event=event, ue=i, t=i, x=x, y=-x) for i, (event, x) in enumerate(zip(list(EventId) * 2, AWKWARD_FLOATS))])
def test_read_records_round_trips_written_logs(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("rt") / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    _assert_same_columns(_log_columns(read_records(path)), _log_columns(EventLog.from_rows(records)))


def _reorder_keys(line):
    return json.dumps(dict(reversed(json.loads(line).items())))


@pytest.mark.parametrize(
    "edit,lineno",
    [
        (lambda text: "\n".join(_reorder_keys(line) for line in text.splitlines()) + "\n", 1),
        (lambda text: text.replace(", ", ",  ").replace(": ", " : "), 1),
        (lambda text: text.replace("\n", "\n\n", 1), 2),
        (lambda text: text[:-1], 9),
    ],
    ids=["reordered_keys", "extra_spaces", "blank_line", "no_final_newline"],
)
def test_non_canonical_log_takes_the_per_line_path(tmp_path, edit, lineno):
    """A log that is not line for line what write_records writes fails the one-pass check;
    the per-line walk then names its first differing line."""
    records = [_rec(event=event, ue=i % 3, t=i, x=x, y=-x, target=7) for i, (event, x) in
               enumerate(zip(list(EventId), AWKWARD_FLOATS))]
    path = tmp_path / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(path)
    assert err.value.lineno == lineno


@pytest.mark.parametrize(
    "damage",
    [lambda line: "{bad\n", lambda line: "x" + line, lambda line: line[:-1] + "x\n"],
    ids=["not_json", "text_before", "text_after"],
)
def test_bad_line_deep_in_a_written_log_names_its_line(tmp_path, damage):
    path = tmp_path / "log.jsonl"
    write_records(EventLog.from_rows([_rec(ue=i % 7, t=i) for i in range(1200)]), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[999] = damage(lines[999])
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(path)
    assert err.value.lineno == 1000


def test_integer_outside_64_bits_is_a_data_error(tmp_path):
    path = tmp_path / "log.jsonl"
    write_records(EventLog.from_rows([_rec(ue=3)]), path)
    path.write_text(path.read_text(encoding="utf-8").replace('"ue": 3', f'"ue": {2**63}'), encoding="utf-8")
    with pytest.raises(DataError, match="64-bit"):
        read_records(path)
    write_truth(EventLog.from_rows([_rec(ue=3)]), [True], path)
    path.write_text(path.read_text(encoding="utf-8").replace('"ue": 3', f'"ue": {-2**63 - 1}'), encoding="utf-8")
    with pytest.raises(DataError, match="64-bit"):
        load_truth(path)


@pytest.mark.parametrize("field,spelling", [("x", "1e+400"), ("y", "-1e+309"), ("x", "17976931348623159e+292")])
def test_float_past_the_float_range_is_a_parse_error(tmp_path, field, spelling):
    """The pattern takes these spellings, and numpy parses them to infinity: the reader names their line."""
    path = tmp_path / "log.jsonl"
    write_records(EventLog.from_rows([_rec(ue=i, t=i, x=1.5, y=2.5) for i in range(5)]), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[3].replace(f'"{field}": {1.5 if field == "x" else 2.5}', f'"{field}": {spelling}')
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(path)
    assert (err.value.lineno, err.value.reason) == (4, f"{spelling!r} is not a finite float")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 5) | st.integers(-2**40, 2**40), st.booleans()), max_size=40),
       st.integers(1, 50))
@example([], mdtlog.BLOCK_LINES)
def test_load_truth_returns_the_row_counts_and_flags_of_written_truth(tmp_path_factory, ue_flags, block_lines):
    """The per-record loop: a counter per UE numbers its records, and the affected ones' keys set their flags."""
    log = EventLog.from_rows([_rec(ue=ue, t=i) for i, (ue, _) in enumerate(ue_flags)])
    path = tmp_path_factory.mktemp("truth") / "truth.jsonl"
    write_truth(log, [flag for _, flag in ue_flags], path)
    counts, keys = {}, []
    for ue, flag in ue_flags:
        if flag:
            keys.append((ue, counts.get(ue, 0)))
        counts[ue] = counts.get(ue, 0) + 1
    with mock.patch.object(mdtlog, "BLOCK_LINES", block_lines):
        truth = load_truth(path)
    _assert_same_columns(truth, _truth(keys, counts))


def _truth_text(entries):
    """A truth file listing (ue, event_index, affected) triples in order, each line as `write_truth` writes it."""
    return "".join(
        f'{{"ue": {ue}, "event_index": {index}, "affected": {"true" if flag else "false"}}}\n'
        for ue, index, flag in entries
    )


@pytest.mark.parametrize("block_lines", BLOCK_SIZES)
@pytest.mark.parametrize(
    "index,expected", [(1, 2), (3, 2), (0, 2), (-1, 2)], ids=["repeated", "skipped", "restarted", "negative"]
)
def test_event_index_other_than_the_writers_names_its_line(tmp_path, block_lines, index, expected):
    """Line 9 must give ue 3 its third row, event_index 2: anything else is named, even with ue 3's earlier
    rows blocks back."""
    entries = [(3, 0, True), (3, 1, False), *[(4, i, False) for i in range(6)], (3, index, True), (4, 6, True)]
    path = tmp_path / "truth.jsonl"
    path.write_text(_truth_text(entries), encoding="utf-8")
    assert outcome(load_truth, path, block_lines) == ("ParseError", 9, f"the writer writes event_index {expected} here")
    entries[8] = (3, 2, True)
    path.write_text(_truth_text(entries), encoding="utf-8")
    with mock.patch.object(mdtlog, "BLOCK_LINES", block_lines):
        truth = load_truth(path)
    _assert_same_columns(truth, _truth([(3, 0), (3, 2), (4, 6)], {3: 3, 4: 7}))


def test_truth_without_an_affected_row_holds_one_block_not_the_file(tmp_path):
    """A role whose truth marks no record loads to its UEs' counts and all-false flags, holding a block at a
    time, whatever its size."""
    path = tmp_path / "truth.jsonl"
    n, ues = 100_000, 7
    path.write_text(_truth_text(zip(np.arange(n) % ues, np.arange(n) // ues, [False] * n)), encoding="utf-8")
    assert path.stat().st_size >= 4_000_000
    tracemalloc.start()
    try:
        truth = load_truth(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_columns(truth, _truth([], {ue: len(range(ue, n, ues)) for ue in range(ues)}))
    assert peak <= 10 * 65_536, peak


@pytest.mark.parametrize(
    "edit,lineno",
    [
        (lambda text: "\n".join(_reorder_keys(line) for line in text.splitlines()) + "\n", 1),
        (lambda text: text.replace(", ", " ,  "), 1),
        (lambda text: text.replace("\n", "\n\n", 1), 2),
        (lambda text: text[:-1], 4),
    ],
    ids=["reordered_keys", "extra_spaces", "blank_line", "no_final_newline"],
)
def test_non_canonical_truth_takes_the_per_line_path(tmp_path, edit, lineno):
    """As for logs: the first line that differs from write_truth's output is a ParseError naming it."""
    log = EventLog.from_rows([_rec(ue=ue, t=t) for t, ue in enumerate((4, -2, 4, 2**40))])
    path = tmp_path / "truth.jsonl"
    write_truth(log, [True, False, False, True], path)
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_truth(path)
    assert err.value.lineno == lineno


@pytest.mark.parametrize(
    "line,damage",
    [("{bad", "invalid JSON"), ('{"ue": 1, "affected": true}', "missing required field 'event_index'"),
     ('{"ue": "x", "event_index": 0, "affected": true}', "malformed field value"), ("[1]", "not an object")],
)
def test_damaged_truth_line_is_a_parse_error(tmp_path, line, damage):
    path = tmp_path / "truth.jsonl"
    write_truth(EventLog.from_rows([_rec(ue=1), _rec(ue=2)]), [True, False], path)
    path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="not in the written format") as err:
        load_truth(path)
    assert err.value.lineno == 3, damage


def test_lookup_index():
    assert lookup_index([4, 9, 2, -1], [2, 4, 8]).tolist() == [1, -1, 0, -1]
    assert lookup_index([1], []).tolist() == [-1]


@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40), st.sampled_from([(-1,), (2, -1)]))
def test_sorted_unique_equals_np_unique(values, shape):
    array = np.array(values + values[:2] + values[:2], dtype=np.int64)
    if shape == (2, -1) and len(array) % 2:
        array = array[1:]
    array = array.reshape(shape)
    expected = np.unique(array)
    got = sorted_unique(array)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()


# -- reading in blocks --------------------------------------------------

# Line edits (each returns the lines that replace its line) that make a line one the readers reject.
LOG_EDITS = [
    lambda line: ["{bad"],
    lambda line: [line.replace('"t": ', '"t":')],
    lambda line: [re.sub(r'"x": [^,]+', '"x": 1e+400', line)],
    lambda line: [re.sub(r'"y": [^,]+', '"y": -1e+400', line)],
    lambda line: [re.sub(r'"target": [0-9]+', '"target": null', line)],  # a fault only where the event is targeted
    lambda line: [],
    lambda line: [line, ""],
]
TRUTH_EDITS = [
    lambda line: ["{bad"],
    lambda line: [line.replace("true", "yes").replace("false", "no")],
    lambda line: [line.replace('"ue": ', '"ue": 0')],
    lambda line: [],
]
edits_st = st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 6)), max_size=3)


@settings(max_examples=100, deadline=None)
@given(written_records_st, edits_st, st.booleans(), st.booleans(), st.integers(1, 40))
@example([_rec(event=EventId.HO_COMMAND, ue=i, t=i, target=4) for i in range(40)], [(30, 4), (5, 3)], False, False, 7)
def test_log_read_in_small_blocks_is_read_as_in_one(tmp_path_factory, records, edits, cut, crlf, block_lines):
    """The same columns bit for bit, or the same ParseError line and reason, however the file is cut into blocks;
    CRLF reads as LF."""
    path = tmp_path_factory.mktemp("blocks") / "log.jsonl"
    write_records(EventLog.from_rows(records), path)
    text = damaged(path.read_text(encoding="utf-8"), edits, LOG_EDITS, cut)
    path.write_bytes(text.encode())
    expected = outcome(read_records, path)
    assert outcome(read_records, path, block_lines) == expected
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert outcome(read_records, path, block_lines) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**40, 2**40), st.booleans()), max_size=40),
       st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 3)), max_size=3), st.booleans(), st.integers(1, 50))
def test_truth_read_in_small_blocks_is_read_as_in_one(tmp_path_factory, ue_flags, edits, cut, block_lines):
    log = EventLog.from_rows([_rec(ue=ue, t=i) for i, (ue, _) in enumerate(ue_flags)])
    path = tmp_path_factory.mktemp("blocks") / "truth.jsonl"
    write_truth(log, [flag for _, flag in ue_flags], path)
    text = damaged(path.read_text(encoding="utf-8"), edits, TRUTH_EDITS, cut)
    path.write_bytes(text.encode())
    expected = outcome(load_truth, path)
    assert outcome(load_truth, path, block_lines) == expected
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert outcome(load_truth, path, block_lines) == expected


def _long_log(path, n=60):
    """A written log of n records of equal line length; returns its lines."""
    write_records(EventLog.from_rows([_rec(ue=100 + i, t=1000 + i, x=1.5, y=2.5) for i in range(n)]), path)
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def test_bad_line_in_the_third_block_names_its_line(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = _long_log(path)
    lines[9] = lines[9].replace('"ue": ', '"ue":')
    path.write_text("".join(lines), encoding="utf-8")
    with mock.patch.object(mdtlog, "BLOCK_LINES", 4), pytest.raises(ParseError) as err:
        read_records(path)
    assert err.value.lineno == 10 and err.value.reason.startswith("not in the written format")


def test_missing_final_newline_after_several_blocks_names_the_last_line(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = _long_log(path)
    path.write_text("".join(lines)[:-1], encoding="utf-8")
    with mock.patch.object(mdtlog, "BLOCK_LINES", 3), pytest.raises(ParseError) as err:
        read_records(path)
    assert (err.value.lineno, err.value.reason) == (60, "the last line does not end in a newline")


def test_non_utf8_byte_after_the_first_block_is_a_data_error(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = _long_log(path)
    data = "".join(lines).encode()
    cut = 30 * len(lines[0]) + 10
    path.write_bytes(data[:cut] + b"\xff" + data[cut:])
    for block_lines in BLOCK_SIZES:
        with mock.patch.object(mdtlog, "BLOCK_LINES", block_lines), pytest.raises(DataError) as err:
            read_records(path)
        assert str(err.value) == f"{path}: not UTF-8 text"


def test_crlf_split_across_two_reads_reads_as_lf(tmp_path):
    """The file's bytes are decoded 8192 at a time; here a CR is the last byte of the first 8192 and its LF the next."""
    line = '{{"ue": {}, "event_index": 0, "affected": {}}}\r\n'.format
    n, extra = divmod(8193, len(line(100000, "true")))  # n lines, the first extra of them one character longer
    data = "".join(line(100000 + k, "false" if k < extra else "true") for k in range(n + 40)).encode()
    assert data[8191:8193] == b"\r\n"
    crlf, lf = tmp_path / "crlf.jsonl", tmp_path / "lf.jsonl"
    crlf.write_bytes(data)
    lf.write_bytes(data.replace(b"\r\n", b"\n"))
    expected = outcome(load_truth, lf)
    assert expected[0] == ("<i8", (n + 40,), mock.ANY)
    for block_lines in (*BLOCK_SIZES, n - 1, n, n + 1):  # line n ends in the CR and LF
        assert outcome(load_truth, crlf, block_lines) == expected


@pytest.mark.parametrize("block_lines", BLOCK_SIZES)
def test_empty_files_read_as_empty_columns(tmp_path, block_lines):
    path = tmp_path / "empty.jsonl"
    path.write_bytes(b"")
    with mock.patch.object(mdtlog, "BLOCK_LINES", block_lines):
        log, truth = read_records(path), load_truth(path)
    assert [(column.dtype, len(column)) for column in _log_columns(log)] == \
        [(np.dtype(np.int64), 0)] * 3 + [(np.dtype(np.float64), 0)] * 2 + [(np.dtype(np.int64), 0)] * 2
    assert [(column.dtype, len(column)) for column in truth] == [(np.dtype(np.int64), 0)] * 2 + [(np.dtype(bool), 0)]


def test_reading_a_large_log_holds_one_block_not_the_file(tmp_path):
    """Peak traced memory is the result's arrays plus a few blocks, not a multiple of the file's size."""
    path = tmp_path / "log.jsonl"
    rng = np.random.default_rng(0)
    events = rng.integers(0, len(EventId), 32000)
    write_records(EventLog.from_rows([
        _rec(event=EventId(int(event)), ue=i % 500, t=i, x=float(x), y=float(y), serving=3)
        for i, (event, x, y) in enumerate(zip(events, rng.normal(0, 1000, 32000), rng.normal(0, 1000, 32000)))
    ]), path)
    assert path.stat().st_size >= 4_000_000
    tracemalloc.start()
    try:
        log = read_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(column.nbytes for column in _log_columns(log))
    assert peak <= result + 10 * 65_536, (peak, result)
