import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepscan.errors import DataError, ParseError
from sleepscan.mdtlog import (
    EVENTS_BY_NAME,
    NO_TARGET,
    TARGETED_EVENTS,
    WIRE_NAMES,
    Chunk,
    EventId,
    EventLog,
    group_calls,
    lookup_index,
    make_fold_pairs,
    read_records,
    write_records,
)
from sleepscan.simgen.dominance import DominanceMap
from sleepscan.simgen.layout import GridSpec

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


def test_unknown_event_and_bad_coordinate(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps({"ue": 1, "t": 0, "event": "NOPE", "x": 0, "y": 0, "serving": 1}) + "\n")
    with pytest.raises(ParseError, match="unknown event"):
        read_records(path)
    path.write_text(
        json.dumps({"ue": 1, "t": 0, "event": "RLF", "x": "wat", "y": 0, "serving": 1}) + "\n"
    )
    with pytest.raises(ParseError, match="non-numeric"):
        read_records(path)
    path.write_text(json.dumps({"ue": 1, "event": "RLF", "x": 0, "y": 0, "serving": 1}) + "\n")
    with pytest.raises(ParseError, match="missing required field"):
        read_records(path)


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
    pairs = make_fold_pairs("normal", list(range(6)), "problematic", list(range(6)))
    assert len(pairs) == 36
    assert len({(p.train_index, p.test_index) for p in pairs}) == 36
    assert all(p.train_role != p.test_role for p in pairs)
    assert len(make_fold_pairs("normal", [0], "reference", [0])) == 1
    with pytest.raises(DataError):
        make_fold_pairs("normal", list(range(6)), "problematic", [])


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
    truth = {(2, 1): True, (1, 0): False}
    chunk = Chunk.from_log(EventLog.from_rows(records), dmap, [3, 5], truth)
    assert chunk.log.ue.tolist() == [1, 1, 2, 2]
    assert chunk.log.t.tolist() == [0, 1, 0, 1]
    assert chunk.call_bounds.tolist() == [0, 2, 4]
    assert chunk.cell.tolist() == [1, 0, 1, 0]  # indices into [3, 5]
    assert chunk.affected.tolist() == [False, False, False, True]
    with pytest.raises(DataError):
        Chunk.from_log(EventLog.from_rows(records), dmap, [3], truth)


def test_lookup_index():
    assert lookup_index([4, 9, 2, -1], [2, 4, 8]).tolist() == [1, -1, 0, -1]
    assert lookup_index([1], []).tolist() == [-1]
