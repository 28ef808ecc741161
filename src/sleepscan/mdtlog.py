"""MDT data model: events, columnar logs and chunks, JSONL I/O, K-fold pairing.

One JSONL record per line:
    {"ue": int, "t": int, "event": str, "x": float, "y": float,
     "serving": int, "target": int|null}
Event names on the wire use the human-readable spellings
("HO COMMAND", "RLF REESTAB.", ...).

`read_records` reads only what `write_records` writes, in one pass:
every line exactly as the writer emits it, the keys in the order above,
each followed by `": "` and separated by `", "`, the nine wire names,
integers in JSON grammar (`-?(0|[1-9][0-9]*)`), x and y spelled as a
float `repr` is (`100.0`, `-0.0`, `1e-07`, `1.7976931348623157e+308`),
target `null` or an integer, and a `"\\n"` after every line, the last
included.  Every targeted event must carry a target and every integer
must fit in 64 bits.  Any other file (blank lines, reordered keys, other
spacing or number spellings, a bad line) is a `ParseError` naming its
first line that differs; an integer out of range is a `DataError`.

A log is an `EventLog` (one numpy array per field) from the simulator
to the detector; a dataset chunk is a `Chunk`, whose records are ordered
into calls once, at load.

Every JSON file the program writes goes through `write_json`, and every
one it reads back through `read_json_object`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, replace
from enum import IntEnum

import numpy as np

from .errors import DataError, ParseError


class EventId(IntEnum):
    """The nine MDT-triggering network events, with stable codes."""

    PL_PROBLEM = 0
    RLF = 1
    RLF_REESTAB = 2
    A2_RSRP_ENTER = 3
    A2_RSRP_LEAVE = 4
    A2_RSRQ_ENTER = 5
    A3_RSRP = 6
    HO_COMMAND = 7
    HO_COMPLETE = 8


WIRE_NAMES: dict[EventId, str] = {
    EventId.PL_PROBLEM: "PL PROBLEM",
    EventId.RLF: "RLF",
    EventId.RLF_REESTAB: "RLF REESTAB.",
    EventId.A2_RSRP_ENTER: "A2 RSRP ENTER",
    EventId.A2_RSRP_LEAVE: "A2 RSRP LEAVE",
    EventId.A2_RSRQ_ENTER: "A2 RSRQ ENTER",
    EventId.A3_RSRP: "A3 RSRP",
    EventId.HO_COMMAND: "HO COMMAND",
    EventId.HO_COMPLETE: "HO COMPLETE",
}

EVENTS_BY_NAME: dict[str, EventId] = {name: ev for ev, name in WIRE_NAMES.items()}

# Events that must carry a target cell id.
TARGETED_EVENTS = frozenset(
    {EventId.A3_RSRP, EventId.HO_COMMAND, EventId.HO_COMPLETE, EventId.RLF_REESTAB}
)

# Target column value of a record without a target cell.
NO_TARGET = -1


@dataclass(frozen=True)
class FoldPair:
    """One (training chunk, testing chunk) combination of the K-fold cross."""

    train_role: str
    train_index: int
    test_role: str
    test_index: int


@dataclass(frozen=True, eq=False)
class EventLog:
    """Records as columns, one numpy array per field, all of one length."""

    event: np.ndarray    # int64 EventId codes
    ue: np.ndarray       # int64
    t: np.ndarray        # int64
    x: np.ndarray        # float64
    y: np.ndarray        # float64
    serving: np.ndarray  # int64
    target: np.ndarray   # int64 cell id, NO_TARGET where the record has none

    def __len__(self) -> int:
        return len(self.event)

    @classmethod
    def from_rows(cls, rows) -> "EventLog":
        """Columns from (event, ue, t, x, y, serving, target) tuples."""
        columns = list(zip(*rows)) or [()] * 7
        dtypes = (np.int64, np.int64, np.int64, np.float64, np.float64, np.int64, np.int64)
        return cls(*(np.array(col, dtype=dt) for col, dt in zip(columns, dtypes)))

    def rows(self) -> list[tuple]:
        """(event, ue, t, x, y, serving, target) tuples of Python scalars, in record order."""
        return list(zip(*(getattr(self, f.name).tolist() for f in fields(self))))

    def take(self, index) -> "EventLog":
        """The records at the given indices, in that order."""
        return EventLog(*(getattr(self, f.name)[index] for f in fields(self)))


def group_calls(log: EventLog) -> tuple[EventLog, np.ndarray]:
    """A log's records ordered into calls, and the call bounds.

    Calls are per UE in ue order; within a call records are ordered by t,
    ties keeping input order so that event sequences are reproducible.
    Call c spans records bounds[c]:bounds[c + 1].
    """
    order = np.argsort(log.t, kind="stable")
    order = order[np.argsort(log.ue[order], kind="stable")]
    log = log.take(order)
    starts = np.flatnonzero(log.ue[1:] != log.ue[:-1]) + 1
    bounds = np.concatenate(([0], starts, [len(log)])) if len(log) else [0]
    return log, np.asarray(bounds, dtype=np.int64)


def lookup_index(values, keys) -> np.ndarray:
    """Position in keys of each value, -1 where keys does not hold it."""
    values = np.asarray(values)
    keys = np.asarray(keys)
    if not len(keys):
        return np.full(values.shape, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    pos = np.minimum(np.searchsorted(sorted_keys, values), len(keys) - 1)
    return np.where(sorted_keys[pos] == values, order[pos], -1)


@dataclass(frozen=True, eq=False)
class Chunk:
    """One dataset chunk, parsed once into what every fold reads.

    Records are ordered into calls (`group_calls`).  `cell` holds the
    index, into the suite's cell ids, of the dominance cell at each
    record's location under the chunk's role map; `affected` holds the
    ground-truth fault flag of each record, looked up by (ue, position in
    the call).
    """

    log: EventLog
    call_bounds: np.ndarray  # call c spans records call_bounds[c]:call_bounds[c + 1]
    cell: np.ndarray         # int64 per record
    affected: np.ndarray     # bool per record

    @classmethod
    def from_log(cls, log: EventLog, dominance, cell_ids, truth=None) -> "Chunk":
        """Order a log into calls and attach cells and truth.

        dominance is the role's `DominanceMap`; truth is the (ue,
        event_index, affected) arrays of the role's truth file, keyed by
        (ue, position in the call).  Absent keys read as unaffected, and
        a key listed more than once keeps its last flag.
        """
        log, bounds = group_calls(log)
        cell = lookup_index(dominance.cell_at(log.x, log.y), cell_ids)
        if (cell < 0).any():
            raise DataError("dominance map places records in cells missing from the suite's cell ids")
        affected = np.zeros(len(log), dtype=bool)
        if truth is not None:
            ue, index, flag = (np.asarray(column) for column in truth)
            call = lookup_index(ue, log.ue[bounds[:-1]])  # calls are one per UE, in ue order
            found = call >= 0
            call, index, flag = call[found], index[found], flag[found]
            inside = (index >= 0) & (index < bounds[call + 1] - bounds[call])
            record = bounds[call[inside]] + index[inside]
            last = len(record) - 1 - np.unique(record[::-1], return_index=True)[1]
            affected[record[last]] = flag[inside][last]
        return cls(log=log, call_bounds=bounds, cell=cell, affected=affected)


_CODES_BY_NAME = {name: int(ev) for name, ev in EVENTS_BY_NAME.items()}
_TARGETED_CODES = frozenset(int(ev) for ev in TARGETED_EVENTS)


JSON_INT = r"-?(?:0|[1-9][0-9]*)"
FLOAT_REPR = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+)"
_WIRE_NAME = "|".join(re.escape(name) for name in WIRE_NAMES.values())
# One line as `write_records` emits it; target is captured empty when null.
_RECORD_LINE = re.compile(
    rf'^{{"ue": ({JSON_INT}), "t": ({JSON_INT}), "event": "({_WIRE_NAME})", "x": ({FLOAT_REPR}), '
    rf'"y": ({FLOAT_REPR}), "serving": ({JSON_INT}), "target": (?:null|({JSON_INT}))}}\n',
    re.MULTILINE | re.ASCII,
)


def read_text(path) -> str:
    """The text of a UTF-8 file; a file that cannot be opened or decoded is a DataError naming it.

    Every data file is read here, so this is the one place where reading one fails.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def write_json(path, doc) -> None:
    """doc as JSON with indent 2, sorted keys and a final newline, so reruns are byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_object(path, keys=()) -> dict:
    """The JSON object in path, holding keys; anything else is a DataError naming the file."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path} does not hold a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise DataError(f"{path} lacks {', '.join(missing)}")
    return doc


def line_columns(line: re.Pattern, text: str, path, header: str | None = None) -> list[tuple[str, ...]]:
    """The captures of line, column by column; every line of text must match it.

    line is a MULTILINE pattern anchored at `^` that ends in `\\n` and
    matches no `\\n` before that, so each match is exactly one line.  With
    a header, text must start with exactly that line and its `\\n`, as line
    1, and line must match every line after it.  The first line that does
    not match, or a last line without its `\\n`, is a ParseError naming it.
    """
    lineno = 1
    if header is not None:
        if not text.startswith(header + "\n"):
            raise ParseError(path, 1, f"the header line is not {header!r}")
        text, lineno = text[len(header) + 1:], 2
    rows = line.findall(text)
    if len(rows) == text.count("\n") and (not text or text.endswith("\n")):
        return list(zip(*rows)) or [()] * line.groups
    pos = 0  # matches run on line after line up to the first line that does not match
    for match in line.finditer(text):
        if match.start() != pos:
            break
        lineno, pos = lineno + 1, match.end()
    bad = text[pos:].partition("\n")[0]
    if line.match(bad + "\n"):
        raise ParseError(path, lineno, "the last line does not end in a newline")
    raise ParseError(path, lineno, f"not in the written format: {bad[:60]!r}")


def int64_columns(path, *columns) -> list[np.ndarray]:
    """Each column of integer strings as an int64 array; one outside 64 bits is a DataError naming path."""
    try:
        return [np.array(column, dtype=np.int64) for column in columns]
    except OverflowError:
        raise DataError(f"{path}: integer field outside the 64-bit range") from None


def read_records(path) -> EventLog:
    """Read a log that `write_records` wrote into columns, in file order.

    Every line must be exactly as `write_records` writes it, and every
    targeted event must carry a target: the first line that does not is
    a ParseError naming it.  An integer outside 64 bits is a DataError.
    """
    ue, t, names, x, y, serving, target = line_columns(_RECORD_LINE, read_text(path), path)
    event = np.array([_CODES_BY_NAME[name] for name in names], dtype=np.int64)
    no_target = np.array([not value for value in target], dtype=bool)
    untargeted = np.flatnonzero(no_target & np.isin(event, list(_TARGETED_CODES)))
    if len(untargeted):
        row = int(untargeted[0])
        raise ParseError(path, row + 1, f"event {names[row]!r} requires a target cell")
    ue, t, serving, target = int64_columns(path, ue, t, serving, [value or str(NO_TARGET) for value in target])
    x, y = np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)
    return EventLog(event=event, ue=ue, t=t, x=x, y=y, serving=serving, target=target)


def write_records(log: EventLog, path) -> None:
    """Write a log as JSONL, one record per line, in record order.

    Each line is what `json.dumps` writes for the record's dict: x and y
    as the `repr` of a float, a missing target as null.
    """
    names = [WIRE_NAMES[ev] for ev in EventId]  # by event code
    lines = [
        f'{{"ue": {ue}, "t": {t}, "event": "{names[event]}", "x": {x!r}, "y": {y!r}, '
        f'"serving": {serving}, "target": {"null" if target == NO_TARGET else target}}}\n'
        for event, ue, t, x, y, serving, target in log.rows()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def make_fold_pairs(train_role, train_chunks, test_role, test_chunks) -> list[FoldPair]:
    """Full cross product of training and testing chunk indices."""
    if not train_chunks or not test_chunks:
        raise DataError(
            f"fold pairing needs at least one chunk per role, got "
            f"{len(train_chunks)} x {len(test_chunks)}"
        )
    return [
        FoldPair(train_role, i, test_role, j)
        for i in range(len(train_chunks))
        for j in range(len(test_chunks))
    ]


def strip_locations(log: EventLog) -> EventLog:
    """Copy a log with location zeroed; target-cell analysis must not need it."""
    return replace(log, x=np.zeros_like(log.x), y=np.zeros_like(log.y))
