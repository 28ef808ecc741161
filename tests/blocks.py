"""Helpers for tests of block reading: what a reader gives when a file is read BLOCK_CHARS at a time."""

from dataclasses import is_dataclass
from unittest import mock

import numpy as np

from sleepscan import mdtlog
from sleepscan.errors import DataError, ParseError


def bits(value):
    """value with each array as (dtype, shape, bytes), through dataclasses, dicts, lists and tuples.

    Two results are bit-identical when their bits are equal.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(item) for item in value]
    return value


def outcome(read, path, block_chars=mdtlog.BLOCK_CHARS):
    """What read(path) gives with path read block_chars characters at a time: its bits, or its error."""
    with mock.patch.object(mdtlog, "BLOCK_CHARS", block_chars):
        try:
            return bits(read(path))
        except ParseError as err:
            return "ParseError", err.lineno, err.reason
        except DataError as err:
            return "DataError", str(err)


def damaged(text: str, edits, line_edits, cut_last_newline=False, crlf=False) -> str:
    """text with line_edits[k] applied to line i % len(lines) for each (i, k) of edits, in order.

    A line edit returns the lines that replace its line: none, one or
    more.  Then the final newline may be cut and every newline spelled
    as CRLF.
    """
    lines = text.splitlines()
    for index, k in edits:
        if lines:
            index %= len(lines)
            lines[index:index + 1] = line_edits[k](lines[index])
    text = "".join(line + "\n" for line in lines)
    if cut_last_newline:
        text = text[:-1]
    return text.replace("\n", "\r\n") if crlf else text
