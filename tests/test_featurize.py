import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sleepscan.featurize import (
    NGramVocabulary,
    build_feature_matrix,
    decode_gram,
    featurize_chunk,
    ngram_counts,
    windows_for_calls,
)
from sleepscan.mdtlog import Chunk, EventId, EventLog


def make_chunk(calls, affected=None):
    """A chunk of consecutive calls (lists of event codes), UE i holding call i."""
    events = [int(e) for call in calls for e in call]
    ues = [u for u, call in enumerate(calls) for _ in call]
    n = len(events)
    rows = [(e, u, i, 0.0, 0.0, 1, 2) for i, (e, u) in enumerate(zip(events, ues))]
    bounds = np.concatenate(([0], np.cumsum([len(c) for c in calls], dtype=np.int64)))
    flags = np.zeros(n, dtype=bool) if affected is None else np.asarray(affected, dtype=bool)
    return Chunk(
        log=EventLog.from_rows(rows),
        call_bounds=bounds.astype(np.int64),
        cell=np.zeros(n, dtype=np.int64),
        affected=flags,
    )


def vocabulary_grams(vocab):
    """A 2-gram vocabulary's 2-grams as event-code tuples, in column order."""
    return tuple(decode_gram(c, 2) for c in vocab.codes)


def window_oracle(length, m, n):
    """Brute-force reference: emit clipped slices at offsets 0, n, 2n, ...;
    a full window that lands exactly on the end terminates the scan; slices
    shorter than 2 are discarded."""
    spans = []
    for offset in range(0, length, n):
        end = min(offset + m, length)
        if end - offset >= 2:
            spans.append((offset, end))
        if offset + m == length:
            break
    return spans


def single_call_windows(length, m, n):
    return [tuple(w) for w in windows_for_calls([0, length], m=m, n=n).tolist()]


@pytest.mark.parametrize(
    "length,expected",
    [
        (15, [15]),            # exact fit: one window
        (23, [15, 13, 3]),     # clipped tails kept
        (21, [15, 11]),        # length-1 tail dropped
        (25, [15, 15]),        # second window fits exactly
        (26, [15, 15, 6]),
        (10, [10]),            # call shorter than the window
        (2, [2]),
        (1, []),               # cannot form a 2-gram
    ],
)
def test_sliding_window_lengths(length, expected):
    windows = single_call_windows(length, 15, 10)
    assert [stop - start for start, stop in windows] == expected
    assert windows == window_oracle(length, 15, 10)


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(0, 200),
    m=st.integers(2, 30),
    n=st.integers(1, 30),
)
def test_sliding_window_matches_oracle(length, m, n):
    if n > m:
        return
    windows = single_call_windows(length, m, n)
    assert windows == window_oracle(length, m, n)
    for start, stop in windows:
        assert 2 <= stop - start <= m
        assert stop <= length  # never past the call end


@settings(max_examples=100, deadline=None)
@given(length=st.integers(2, 200), m=st.integers(2, 30), n=st.integers(1, 29))
def test_sliding_window_covers_overlapping_configs(length, m, n):
    # coverage holds whenever windows overlap (n < m)
    if n >= m:
        return
    covered = set()
    for start, stop in single_call_windows(length, m, n):
        covered.update(range(start, stop))
    assert covered == set(range(length))


@st.composite
def chunk_cases(draw):
    """(calls, affected flags, m, n, N): lengths 0-80, with short calls and
    calls whose tail a window fits exactly drawn on purpose."""
    m = draw(st.integers(2, 30))
    n = draw(st.integers(1, m))
    ngram = draw(st.integers(1, 4))
    length = st.one_of(
        st.integers(0, 80),
        st.integers(0, 1),
        st.integers(0, (80 - m) // n).map(lambda k: m + k * n),
    )
    lengths = draw(st.lists(length, max_size=6))
    calls = [draw(st.lists(st.integers(0, 8), min_size=k, max_size=k)) for k in lengths]
    affected = draw(st.lists(st.booleans(), min_size=sum(lengths), max_size=sum(lengths)))
    return calls, affected, m, n, ngram


@settings(max_examples=300, deadline=None)
@given(chunk_cases())
@example(([[1] * 15, [2], [], [3, 4]], [False] * 18, 15, 10, 2))
@example(([[0, 1] * 10], [False] * 19 + [True], 5, 5, 2))
def test_chunk_features_match_per_call_oracle(case):
    calls, affected, m, n, ngram = case
    chunk = make_chunk(calls, affected)
    feats = featurize_chunk(chunk, m=m, n=n, ngram_n=ngram)

    expected_windows, expected_rows, expected_flags, expected_counts = [], [], [], []
    start = 0
    for ue, call in enumerate(calls):
        for offset, end in window_oracle(len(call), m, n):
            expected_windows.append((start + offset, start + end))
            expected_rows.append((ue, offset))
            expected_flags.append(any(affected[start + offset : start + end]))
            expected_counts.append(ngram_counts(call[offset:end], n=ngram))
        start += len(call)

    assert [tuple(w) for w in feats.windows.tolist()] == expected_windows
    expected = np.array(expected_rows, dtype=np.int64).reshape(-1, 2)
    assert (feats.rows.dtype, feats.rows.shape) == (expected.dtype, expected.shape)
    assert np.array_equal(feats.rows, expected)
    assert feats.affected.tolist() == expected_flags
    assert feats.ue_count == len({ue for ue, _ in expected_rows})
    present = sorted({gram for counts in expected_counts for gram in counts})
    assert [decode_gram(c, ngram) for c in feats.codes] == present
    for row, counts in zip(feats.counts, expected_counts):
        got = {decode_gram(c, ngram): int(v) for c, v in zip(feats.codes, row) if v}
        assert got == counts


def test_character_bigrams_of_known_words():
    perf = ngram_counts("performance")
    expected = {
        ("p", "e"): 1, ("e", "r"): 1, ("r", "f"): 1, ("f", "o"): 1, ("o", "r"): 1,
        ("r", "m"): 1, ("m", "a"): 1, ("a", "n"): 1, ("n", "c"): 1, ("c", "e"): 1,
    }
    assert perf == expected
    assert perf.get(("m", "e"), 0) == 0

    performer = ngram_counts("performer")
    assert performer[("e", "r")] == 2
    assert performer[("m", "e")] == 1
    for pair in (("m", "a"), ("a", "n"), ("n", "c"), ("c", "e")):
        assert performer.get(pair, 0) == 0


def test_ngram_edge_cases():
    assert ngram_counts("x") == {}
    assert ngram_counts("") == {}
    assert ngram_counts("abc", n=3) == {("a", "b", "c"): 1}
    with pytest.raises(ValueError):
        ngram_counts("abc", n=0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=0, max_size=60))
def test_bigram_total_is_length_minus_one(seq):
    counts = ngram_counts(seq)
    assert sum(counts.values()) == max(len(seq) - 1, 0)


def test_featurization_is_order_sensitive():
    fwd = ngram_counts([0, 1, 2, 3])
    rev = ngram_counts([3, 2, 1, 0])
    assert fwd != rev


def whole_call_features(*calls):
    """Features of calls each cut as one sub-call spanning the whole call."""
    m = max(2, *(len(c) for c in calls))
    return featurize_chunk(make_chunk(calls), m=m, n=m, ngram_n=2)


def test_feature_matrix_counts_and_row_sum():
    events = [EventId.HO_COMMAND, EventId.HO_COMPLETE, EventId.A2_RSRP_ENTER]
    feats = whole_call_features(events)
    vocab = NGramVocabulary.from_subcalls(feats)
    counts = build_feature_matrix(feats, vocab)
    assert counts.sum() == 2
    row = counts[0]
    assert row[vocabulary_grams(vocab).index((int(EventId.HO_COMMAND), int(EventId.HO_COMPLETE)))] == 1
    assert row[vocabulary_grams(vocab).index((int(EventId.HO_COMPLETE), int(EventId.A2_RSRP_ENTER)))] == 1
    assert row.sum() == len(events) - 1


def test_vocabulary_is_union_of_groups():
    a = whole_call_features([EventId.RLF, EventId.RLF_REESTAB])
    b = whole_call_features([EventId.RLF_REESTAB, EventId.PL_PROBLEM])
    vocab = NGramVocabulary.from_subcalls(a, b)
    assert len(vocab) == 2
    # deterministic ordering by event codes
    assert vocabulary_grams(vocab) == tuple(sorted(vocabulary_grams(vocab)))
    # each chunk's counts land in the union's columns
    assert vocabulary_grams(vocab) == ((EventId.RLF, EventId.RLF_REESTAB), (EventId.RLF_REESTAB, EventId.PL_PROBLEM))
    assert build_feature_matrix(a, vocab).tolist() == [[1, 0]]
    assert build_feature_matrix(b, vocab).tolist() == [[0, 1]]


def test_all_rows_sum_to_length_minus_one():
    rng = np.random.default_rng(5)
    calls = [rng.integers(0, 9, size=rng.integers(2, 60)).tolist() for _ in range(8)]
    feats = featurize_chunk(make_chunk(calls), m=15, n=10, ngram_n=2)
    vocab = NGramVocabulary.from_subcalls(feats)
    counts = build_feature_matrix(feats, vocab)
    lengths = feats.windows[:, 1] - feats.windows[:, 0]
    assert np.array_equal(counts.sum(axis=1), lengths - 1)
