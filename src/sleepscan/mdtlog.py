"""MDT data model: events, columnar logs and chunks, JSONL I/O, K-fold pairing.

One JSONL record per line:
    {"ue": int, "t": int, "event": str, "x": float, "y": float,
     "serving": int, "target": int|null}
Event names on the wire use the human-readable spellings
("HO COMMAND", "RLF REESTAB.", ...).

`read_records` reads only what `write_records` writes: every line
exactly as the writer emits it, the keys in the order above, each
followed by `": "` and separated by `", "`, the nine wire names,
integers in JSON grammar (`-?(0|[1-9][0-9]*)`), x and y spelled as a
float `repr` is (`100.0`, `-0.0`, `1e-07`, `1.7976931348623157e+308`)
and finite, target `null` or an integer, and a `"\\n"` after every line,
the last included.  Every targeted event must carry a target and every
integer must fit in 64 bits.  Any other file (blank lines, reordered
keys, other spacing or number spellings, a bad line) is a `ParseError`
naming its first line that differs; an integer out of range is a
`DataError`.

Every file whose lines follow one writer's pattern (logs, truth files,
the CSVs of a run directory) is read by `line_columns`, which streams
it in blocks of `BLOCK_CHARS` (64 Ki) characters and converts each
block's lines to arrays before it reads the next.  It never holds a
file's whole text or a list of all its lines, so reading takes the
columns it returns plus about one block, whatever the file's size.

A log is an `EventLog` (one numpy array per field) from the simulator
to the detector; a dataset chunk is a `Chunk`, whose records are ordered
into calls once, at load.

Every JSON file the program writes goes through `write_json`, and every
one it reads back through `read_json_object`.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields
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


def sorted_unique(values) -> np.ndarray:
    """The distinct values of an integer array, sorted: what `np.unique(values)` returns.

    numpy 2.3+ runs a plain `np.unique` through a hash table whose first
    call imports `numpy.ma` (about 0.8 MB and 30 ms in every process);
    a sort and a neighbour mask give the same array without it.
    """
    values = np.sort(np.asarray(values), axis=None)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


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
    def from_log(cls, log: EventLog, dominance, cell_ids, truth, mismatch: str) -> "Chunk":
        """Order a log into calls and attach cells and truth.

        dominance is the role's `DominanceMap`, every cell of which is one
        of cell_ids (`simgen.suite.load_suite` checks that); truth is
        `simgen.suite.load_truth` of the role's truth file: its UEs, their
        row counts and the flag of each row by (ue, position in the call).
        A count that is not the record count of the UE's call is a
        DataError whose message starts with mismatch.
        """
        log, bounds = group_calls(log)
        cell = lookup_index(dominance.cell_at(log.x, log.y), cell_ids)
        truth_ues, counts, flags = truth
        call_ues, sizes = log.ue[bounds[:-1]], np.diff(bounds)  # calls are one per UE, in ue order
        at = lookup_index(call_ues, truth_ues)
        listed = np.append(counts, 0)[at]
        if (listed != sizes).any():
            c = int(np.argmax(listed != sizes))
            raise DataError(
                f"{mismatch}: truth lists {listed[c]} rows for ue {call_ues[c]}, whose call has {sizes[c]} records"
            )
        first = (np.cumsum(counts) - counts)[at]  # each call's first row among the flags
        affected = flags[np.repeat(first - bounds[:-1], sizes) + np.arange(len(log))]
        return cls(log=log, call_bounds=bounds, cell=cell, affected=affected)


_CODES_BY_NAME = {name: int(ev) for name, ev in EVENTS_BY_NAME.items()}
_TARGETED_CODES = np.array(sorted(int(ev) for ev in TARGETED_EVENTS))


JSON_INT = r"-?(?:0|[1-9][0-9]*)"
FLOAT_REPR = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+)"
_WIRE_NAME = "|".join(re.escape(name) for name in WIRE_NAMES.values())
# One line as `write_records` emits it; target is captured empty when null.
_RECORD_LINE = re.compile(
    rf'^{{"ue": ({JSON_INT}), "t": ({JSON_INT}), "event": "({_WIRE_NAME})", "x": ({FLOAT_REPR}), '
    rf'"y": ({FLOAT_REPR}), "serving": ({JSON_INT}), "target": (?:null|({JSON_INT}))}}\n',
    re.MULTILINE | re.ASCII,
)

# Characters `line_columns` reads at a time: it never holds more of a file than this and one partial line.
# A block's captures (a tuple and a string per field of each line) are the reader's largest transient, so a
# smaller block holds less; below 2**16 the fixed cost of each column's one concatenation at the end dominates.
BLOCK_CHARS = 1 << 16


@contextmanager
def opened(path):
    """path open as UTF-8 text; a file that cannot be opened or decoded is a DataError naming it.

    Every data file is read through here, so this is the one place where reading one fails.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def read_text(path) -> str:
    """The whole text of a UTF-8 file: for the JSON files, which are not read by line."""
    with opened(path) as fh:
        return fh.read()


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


def is_json_int(value) -> bool:
    """Whether value is an integer as JSON spells one: an int, not a bool (true is not 1, nor 1.0 an integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_entries(path, doc: dict, expected: dict, writer: str) -> None:
    """Each entry of expected, what writer writes in doc, must be doc's as JSON (1 is not true or 1.0);
    else a DataError naming path and the entry.  Where doc's config is not its stored form (a float setting
    spelled as an integer), the error names the first setting that differs and says to run writer again."""
    for key, value in expected.items():
        if key not in doc:
            raise DataError(f"{path} lacks {key}")
        if json.dumps(doc[key], sort_keys=True) == json.dumps(value, sort_keys=True):
            continue
        if key == "config":
            name = next(name for name in value
                        if name not in doc[key] or json.dumps(doc[key][name]) != json.dumps(value[name]))
            spelled = f"written as {json.dumps(doc[key][name])}" if name in doc[key] else "not written"
            raise DataError(f"{path}: config setting {name} is {spelled}, stored as {json.dumps(value[name])}; "
                            f"{writer} again to write it as stored")
        raise DataError(f"{path}: {key} is not the {key} {writer} writes there")


def _line_blocks(fh):
    """The text of fh in blocks of whole lines, BLOCK_CHARS read at a time, then what follows its last newline."""
    rest = ""
    while block := fh.read(BLOCK_CHARS):
        cut = block.rfind("\n") + 1
        if cut:
            yield rest + block[:cut]
            rest = block[cut:]
        else:
            rest += block
    yield rest


def line_columns(line: re.Pattern, path, convert, header: str | None = None) -> list[np.ndarray]:
    """The columns of the file at path, whose every line must match line, as arrays.

    line is a MULTILINE pattern anchored at `^` that ends in `\\n` and
    matches no `\\n` before that, so each match is exactly one line.  With
    a header, the file must start with exactly that line and its `\\n`, as
    line 1, and line must match every line after it.  The file is read in
    blocks of whole lines (`BLOCK_CHARS`), never whole:
    convert(path, lineno, *columns) turns the captures of one block, whose
    first line is line lineno of the file, into one array per column, and
    each column is concatenated once, at the end.  The first line that
    does not match, or a last line without its `\\n`, is a ParseError
    naming it, raised after the lines before it are converted.  So where
    each converter reports the earliest of its ParseErrors (`check_rows`),
    a file's first faulty line is the one named, wherever the blocks fall.
    An integer outside 64 bits is a DataError.
    """
    lineno, parts = 1, []
    with opened(path) as fh:
        for text in _line_blocks(fh):
            if lineno == 1 and header is not None:
                if not text.startswith(header + "\n"):
                    raise ParseError(path, 1, f"the header line is not {header!r}")
                text, lineno = text[len(header) + 1:], 2
            rows = line.findall(text)
            if len(rows) == text.count("\n") and (not text or text.endswith("\n")):
                parts.append(_converted(convert, path, lineno, rows, line.groups))
                lineno += len(rows)
                del text, rows  # before the next block is read, so that two blocks' captures are never held at once
                continue
            pos = good = 0  # matches run on line after line up to the first line that does not match
            for match in line.finditer(text):
                if match.start() != pos:
                    break
                good, pos = good + 1, match.end()
            _converted(convert, path, lineno, rows[:good], line.groups)  # a fault on an earlier line comes first
            bad = text[pos:].partition("\n")[0]
            if line.match(bad + "\n"):
                raise ParseError(path, lineno + good, "the last line does not end in a newline")
            raise ParseError(path, lineno + good, f"not in the written format: {bad[:60]!r}")
    columns = list(zip(*parts))
    del parts  # so each column's blocks are freed as soon as they are joined
    for k, blocks in enumerate(columns):
        columns[k] = np.concatenate(blocks)
    return columns


def _converted(convert, path, lineno, rows, groups) -> tuple[np.ndarray, ...]:
    """convert's arrays of one block's matches; an integer outside 64 bits is a DataError naming path."""
    try:
        return convert(path, lineno, *(list(zip(*rows)) or [()] * groups))
    except OverflowError:
        raise DataError(f"{path}: integer field outside the 64-bit range") from None


def check_rows(path, lineno, *checks) -> None:
    """A ParseError at the first row of a block that any check flags; its row 0 is line lineno of path.

    Each check is (flags, reason): a bool per row, and the message of a
    flagged row as reason(row).  Of checks that flag the same row, the first given is named.
    """
    flagged = [(int(np.argmax(flags)), k) for k, (flags, _) in enumerate(checks) if flags.any()]
    if flagged:
        row, k = min(flagged)
        raise ParseError(path, lineno + row, checks[k][1](row))


def finite_check(column, values):
    """The `check_rows` check that values, parsed from the strings of column, are finite (`1e+400` parses to inf)."""
    return ~np.isfinite(values), lambda row: f"{column[row]!r} is not a finite float"


def _record_arrays(path, lineno, ue, t, names, x, y, serving, target) -> tuple[np.ndarray, ...]:
    """One block of a log's captures as `EventLog` columns, in field order."""
    event = np.array([_CODES_BY_NAME[name] for name in names], dtype=np.int64)
    xs, ys = np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)
    untargeted = np.isin(event, _TARGETED_CODES) & np.array([not value for value in target], dtype=bool)
    check_rows(path, lineno, (untargeted, lambda row: f"event {names[row]!r} requires a target cell"),
               finite_check(x, xs), finite_check(y, ys))
    ue, t, serving, target = (
        np.array(column, dtype=np.int64) for column in (ue, t, serving, [value or str(NO_TARGET) for value in target])
    )
    return event, ue, t, xs, ys, serving, target


def read_records(path) -> EventLog:
    """Read a log that `write_records` wrote into columns, in file order.

    Every line must be exactly as `write_records` writes it, with finite
    x and y, and every targeted event must carry a target: the first line
    that does not is a ParseError naming it.  An integer outside 64 bits
    is a DataError.
    """
    return EventLog(*line_columns(_RECORD_LINE, path, _record_arrays))


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


def make_fold_pairs(n_chunks: int) -> list[FoldPair]:
    """Every fold of a run of n_chunks chunks per role, in detect's order: each normal chunk against each
    problematic chunk, then each normal chunk against each reference chunk."""
    return [
        FoldPair("normal", i, test_role, j)
        for test_role in ("problematic", "reference")
        for i in range(n_chunks)
        for j in range(n_chunks)
    ]
