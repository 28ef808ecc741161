"""Sliding-window sub-calls and N-gram count features.

Calls of variable length become fixed-vocabulary count vectors: each
call is cut into overlapping sub-calls (window m, step n), and each
sub-call is represented by its N-gram counts over a vocabulary frozen
from the union of the N-grams seen in the fold's training and testing
chunks.

A sub-call is a (start, stop) range of record indices into its chunk.
An N-gram is held as one integer code, its events read as base-9 digits
(first event most significant), so sorting codes sorts N-grams by their
event codes.  Everything that depends only on a chunk -- its windows,
their N-gram counts over the codes present in the chunk, their ground
truth -- is computed once per chunk (`featurize_chunk`) and shared by
every fold that uses the chunk; a fold only merges two chunks' codes
into its vocabulary and scatters each chunk's counts into its columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdtlog import Chunk, EventId, sorted_unique

N_EVENTS = len(EventId)


def windows_for_calls(call_bounds, m: int, n: int) -> np.ndarray:
    """Sub-call ranges of consecutive calls, as a (windows, 2) array of [start, stop).

    Call c spans records call_bounds[c]:call_bounds[c + 1].  Within a call
    of length L, offsets run 0, n, 2n, ... while they fall inside the call;
    a window that exactly fits the tail (offset + m == L) ends the scan.
    Windows are clipped at the call end, and those shorter than 2 events
    cannot form a 2-gram and are dropped.  Windows are ordered by call,
    then by offset.  m >= 2 and 1 <= n <= m, as a RunConfig's window_m
    and window_n are.
    """
    bounds = np.asarray(call_bounds, dtype=np.int64)
    starts, lengths = bounds[:-1], np.diff(bounds)
    # Offsets that fall inside the call, cut after the one fitting the tail.
    per_call = -(-lengths // n)
    exact = (lengths >= m) & ((lengths - m) % n == 0)
    per_call = np.where(exact, (lengths - m) // n + 1, per_call)
    call = np.repeat(np.arange(len(lengths)), per_call)
    first = np.cumsum(per_call) - per_call
    offset = (np.arange(len(call)) - first[call]) * n
    end = np.minimum(offset + m, lengths[call])
    keep = end - offset >= 2
    ranges = np.stack([starts[call] + offset, starts[call] + end], axis=1)[keep]
    return ranges.reshape(-1, 2)


def gram_positions(windows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(window row, first record index) of every N-gram inside each window."""
    windows = np.asarray(windows, dtype=np.int64).reshape(-1, 2)
    per_window = np.maximum(windows[:, 1] - windows[:, 0] - n + 1, 0)
    row = np.repeat(np.arange(len(windows)), per_window)
    first = np.cumsum(per_window) - per_window
    return row, windows[row, 0] + np.arange(len(row)) - first[row]


def gram_codes(events, positions, n: int) -> np.ndarray:
    """Integer code of the N-gram starting at each position."""
    codes = np.zeros(len(positions), dtype=np.int64)
    for j in range(n):
        codes = codes * N_EVENTS + events[positions + j]
    return codes


def ngram_counts(sequence, n: int = 2) -> dict[tuple, int]:
    """Count all overlapping length-n sub-sequences of a sequence.

    The definition the columnar counts follow; tests check them against it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    items = tuple(sequence)
    counts: dict[tuple, int] = {}
    for i in range(len(items) - n + 1):
        key = items[i : i + n]
        counts[key] = counts.get(key, 0) + 1
    return counts


@dataclass(frozen=True, eq=False)
class ChunkFeatures:
    """A chunk's sub-calls and their N-gram counts, shared by every fold using it.

    It holds no record of the chunk, so a chunk's records can be freed
    once everything a fold needs of them is built.
    """

    windows: np.ndarray          # (W, 2) record ranges [start, stop)
    rows: np.ndarray             # (W, 2) int64 (ue, offset in the call) per window
    codes: np.ndarray            # (K,) sorted codes of the N-grams present
    counts: np.ndarray           # (W, K) int64
    ue_count: int                # distinct UEs with at least one window
    affected: np.ndarray         # (W,) any record of the window fault-affected

    def __len__(self) -> int:
        return len(self.windows)


def featurize_chunk(chunk: Chunk, m: int, n: int, ngram_n: int) -> ChunkFeatures:
    """Window a chunk and count each window's N-grams over the codes it holds."""
    bounds = chunk.call_bounds
    windows = windows_for_calls(bounds, m=m, n=n)
    starts = windows[:, 0]
    call = np.searchsorted(bounds, starts, side="right") - 1
    ues = chunk.log.ue[starts]
    rows = np.stack((ues, starts - bounds[call]), axis=1)

    row, pos = gram_positions(windows, ngram_n)
    codes, column = np.unique(gram_codes(chunk.log.event, pos, ngram_n), return_inverse=True)
    flat = np.bincount(row * len(codes) + column, minlength=len(windows) * len(codes))
    counts = flat.reshape(len(windows), len(codes))

    hits = np.concatenate(([0], np.cumsum(chunk.affected)))
    affected = hits[windows[:, 1]] > hits[starts]
    return ChunkFeatures(
        windows=windows,
        rows=rows,
        codes=codes,
        counts=counts,
        ue_count=len(sorted_unique(ues)),
        affected=affected,
    )


def decode_gram(code: int, n: int) -> tuple[int, ...]:
    """Event codes of an N-gram code, first event first."""
    events = []
    for _ in range(n):
        code, digit = divmod(int(code), N_EVENTS)
        events.append(digit)
    return tuple(reversed(events))


@dataclass(frozen=True, eq=False)
class NGramVocabulary:
    """Sorted N-gram codes defining the feature columns."""

    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def from_subcalls(cls, *groups: ChunkFeatures) -> "NGramVocabulary":
        """Union of the N-grams of every group's sub-calls, sorted by event codes."""
        codes = sorted_unique(np.concatenate([g.codes for g in groups]))
        return cls(codes=codes)


def build_feature_matrix(features: ChunkFeatures, vocabulary: NGramVocabulary) -> np.ndarray:
    """(windows, vocabulary) int64 count matrix of one chunk's sub-calls."""
    matrix = np.zeros((len(features.windows), len(vocabulary)), dtype=np.int64)
    matrix[:, np.searchsorted(vocabulary.codes, features.codes)] = features.counts
    return matrix

