from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepscan import localize
from sleepscan.config import RunConfig
from sleepscan.featurize import featurize_chunk
from sleepscan.localize import (
    AMPLIFY_EPSILON,
    adjacency_matrix,
    amplify,
    chunk_tables,
    combine,
    normalize,
    sc_2gram_symmetry_deviation,
    sc_dominance_2gram_deviation,
    sc_dominance_subcall_deviation,
    sc_target_cell_subcalls,
)
from sleepscan.mdtlog import NO_TARGET, TARGETED_EVENTS, Chunk, EventId, EventLog
from sleepscan.pipeline import aggregate_method, run_detect
from sleepscan.simgen.dominance import DominanceMap
from sleepscan.simgen.layout import GridSpec
from sleepscan.simgen.suite import generate_dataset_suite, load_suite, write_suite
from test_golden import SMOKE, WIDE_BRANCHES


def uniform_map(cell_id=1, n=4):
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=10.0, nx=n, ny=n)
    return DominanceMap(grid_spec=spec, grid=np.full((n, n), cell_id, dtype=np.int64))


def split_map(left=1, right=2, n=4):
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=10.0, nx=n, ny=n)
    grid = np.full((n, n), left, dtype=np.int64)
    grid[:, n // 2 :] = right
    return DominanceMap(grid_spec=spec, grid=grid)


CELLS = [1, 2, 3]  # score arrays follow this order: cell c is at index c - 1
NO_WINDOWS = np.zeros((0, 2), dtype=np.int64)


def call_records(events, ue=0, xs=None, targets=None):
    xs = xs if xs is not None else [5.0] * len(events)
    targets = targets if targets is not None else [None] * len(events)
    return [
        (e, ue, i, float(x), 5.0, 1, tg if tg is not None else (2 if e in TARGETED_EVENTS else NO_TARGET))
        for i, (e, x, tg) in enumerate(zip(events, xs, targets))
    ]


def chunk_of(log, dmap, cell_ids=CELLS):
    """The chunk of log, with truth that flags no record."""
    ues, counts = np.unique(log.ue, return_counts=True)
    return Chunk.from_log(log, dmap, cell_ids, (ues, counts, np.zeros(len(log), dtype=bool)), "truth")


def make_chunk(records, dmap, cell_ids=CELLS):
    """A chunk of (event, ue, t, x, y, serving, target) rows."""
    return chunk_of(EventLog.from_rows(records), dmap, cell_ids)


def whole_calls(chunk):
    """Each call of the chunk as one sub-call."""
    return np.stack([chunk.call_bounds[:-1], chunk.call_bounds[1:]], axis=1)


def make_subcalls(*calls, dmap):
    """(chunk, windows): one sub-call per call, each call given as call_records kwargs."""
    chunk = make_chunk([r for call in calls for r in call_records(**call)], dmap)
    return chunk, whole_calls(chunk)


def side(chunk, windows=NO_WINDOWS, ue_count=1, mode="handover"):
    """(tables, mask): the chunk's tables over windows as detect builds a testing chunk's, and a mask
    selecting every window."""
    return chunk_tables(chunk, windows, ue_count, CELLS, mode, gram_rates=False), np.ones(len(windows), dtype=bool)


def training(chunk, windows=NO_WINDOWS, ue_count=1):
    """The chunk's tables over windows as detect builds a training chunk's: 2-gram rates over every window."""
    return chunk_tables(chunk, windows, ue_count, CELLS, targets=False)


def test_subcall_deviation_empty_and_confined():
    dmap = uniform_map(cell_id=1)
    empty = make_chunk([], dmap)
    h = sc_dominance_subcall_deviation(*side(empty, ue_count=5), *side(empty, ue_count=7))
    assert np.all(h == 0.0)

    chunk, sub = make_subcalls({"events": [EventId.RLF, EventId.RLF_REESTAB], "ue": 3}, dmap=dmap)
    h = sc_dominance_subcall_deviation(*side(empty, ue_count=5), *side(chunk, sub))
    assert h[0] == pytest.approx(1.0)
    assert h[1] == 0.0 and h[2] == 0.0
    # training deviation is clipped at zero
    h = sc_dominance_subcall_deviation(*side(chunk, sub), *side(empty))
    assert np.all(h == 0.0)


def test_gram_deviation_zero_when_identical():
    dmap = uniform_map(cell_id=1)
    chunk, subs = make_subcalls(
        *({"events": [EventId.A3_RSRP, EventId.HO_COMMAND], "ue": u} for u in range(3)), dmap=dmap
    )
    h = sc_dominance_2gram_deviation(training(chunk, subs, 3), *side(chunk, subs, 3))
    assert np.allclose(h, 0.0)
    assert np.allclose(sc_dominance_2gram_deviation(training(chunk, subs, 3), training(chunk, subs, 3)), 0.0)


def test_gram_deviation_single_new_pair_inside_one_cell():
    dmap = uniform_map(cell_id=1)
    empty = make_chunk([], dmap)
    chunk, extra = make_subcalls({"events": [EventId.HO_COMMAND, EventId.A2_RSRP_ENTER], "ue": 9}, dmap=dmap)
    h = sc_dominance_2gram_deviation(training(empty), *side(chunk, extra))
    assert h[0] == pytest.approx(1.0)  # 0.5 per endpoint
    assert h[1] == 0.0 and h[2] == 0.0


def test_gram_deviation_splits_border_pairs():
    dmap = split_map(left=1, right=2)
    empty = make_chunk([], dmap)
    # one event in cell 1 (x<20), one in cell 2 (x>=20)
    chunk, sub = make_subcalls(
        {"events": [EventId.HO_COMMAND, EventId.HO_COMPLETE], "xs": [5.0, 35.0]}, dmap=dmap
    )
    h = sc_dominance_2gram_deviation(training(empty), *side(chunk, sub))
    assert h[0] == pytest.approx(0.5)
    assert h[1] == pytest.approx(0.5)


def _ho_attempt_call(ue, serving, target, count):
    recs = []
    t = 0
    for _ in range(count):
        recs.append((EventId.A3_RSRP, ue, t, 0.0, 0.0, serving, target))
        recs.append((EventId.HO_COMMAND, ue, t + 1, 0.0, 0.0, serving, target))
        t += 2
    return recs


PAIR_ADJACENT = adjacency_matrix({1: [2], 2: [1], 3: []}, CELLS)  # cells 1 and 2 border, 3 is alone


def test_adjacency_matrix_rows_follow_cell_ids():
    adjacent = adjacency_matrix({1: [2, 99], 2: [1, 3], 7: [1]}, CELLS)
    assert adjacent.tolist() == [[False, True, False], [True, False, True], [False, False, False]]
    assert adjacency_matrix({}, []).shape == (0, 0)


def test_symmetry_balanced_flows_are_silent():
    dmap = uniform_map()
    train = make_chunk(_ho_attempt_call(0, 1, 2, 10) + _ho_attempt_call(1, 2, 1, 10), dmap)
    test = make_chunk(_ho_attempt_call(2, 1, 2, 4) + _ho_attempt_call(3, 2, 1, 4), dmap)
    h = sc_2gram_symmetry_deviation(side(train)[0], side(test)[0], PAIR_ADJACENT)
    assert np.allclose(h, 0.0)


def test_symmetry_one_sided_flow_scores_both_ends():
    dmap = uniform_map()
    train = make_chunk(_ho_attempt_call(0, 1, 2, 10) + _ho_attempt_call(1, 2, 1, 10), dmap)
    test = make_chunk(_ho_attempt_call(2, 1, 2, 10), dmap)  # nothing flows 2 -> 1
    h = sc_2gram_symmetry_deviation(side(train)[0], side(test)[0], PAIR_ADJACENT)
    assert h[0] == pytest.approx(1.0)
    assert h[1] == pytest.approx(1.0)
    assert h[2] == 0.0


def test_symmetry_location_mode_counts_crossings():
    dmap = split_map(left=1, right=2)
    # movement left->right: pair of consecutive events straddling the border
    cross = make_chunk([
        (EventId.RLF, 0, 0, 5.0, 5.0, 1, NO_TARGET),
        (EventId.RLF, 0, 1, 35.0, 5.0, 1, NO_TARGET),
    ], dmap)
    empty = make_chunk([], dmap)
    h = sc_2gram_symmetry_deviation(side(empty, mode="location")[0], side(cross, mode="location")[0], PAIR_ADJACENT)
    assert h[0] == pytest.approx(1.0)
    assert h[1] == pytest.approx(1.0)


def test_symmetry_location_mode_ignores_steps_between_calls():
    dmap = split_map(left=1, right=2)
    # UE 0 ends in cell 1 and UE 1 starts in cell 2: no crossing
    chunk = make_chunk(
        call_records([EventId.RLF, EventId.RLF], ue=0, xs=[5.0, 5.0])
        + call_records([EventId.RLF, EventId.RLF], ue=1, xs=[35.0, 35.0]),
        dmap,
    )
    empty = make_chunk([], dmap)
    h = sc_2gram_symmetry_deviation(side(empty, mode="location")[0], side(chunk, mode="location")[0], PAIR_ADJACENT)
    assert np.all(h == 0.0)


def test_target_cell_counts_unique_targets_per_subcall():
    dmap = uniform_map()
    chunk, sub = make_subcalls(
        {"events": [EventId.HO_COMMAND] * 3, "ue": 4, "targets": [1, 1, 3]}, dmap=dmap
    )
    h = sc_target_cell_subcalls(*side(chunk, sub))
    assert h[0] == pytest.approx(1.0)
    assert h[2] == pytest.approx(1.0)
    assert h[1] == 0.0
    assert np.all(sc_target_cell_subcalls(side(chunk, sub, 5)[0], np.zeros(len(sub), dtype=bool)) == 0.0)


def strip_locations(log: EventLog) -> EventLog:
    """Copy a log with location zeroed; target-cell analysis must not need it."""
    return replace(log, x=np.zeros_like(log.x), y=np.zeros_like(log.y))


def test_target_cell_needs_no_locations():
    dmap = split_map(left=1, right=2)
    records = call_records(
        [EventId.HO_COMMAND, EventId.HO_COMPLETE], ue=1, xs=[5.0, 35.0], targets=[2, 2]
    )
    log = EventLog.from_rows(records)
    chunk = chunk_of(log, dmap)
    stripped = chunk_of(strip_locations(log), dmap)
    assert chunk.cell.tolist() != stripped.cell.tolist()
    a = sc_target_cell_subcalls(*side(chunk, whole_calls(chunk)))
    b = sc_target_cell_subcalls(*side(stripped, whole_calls(stripped)))
    assert np.array_equal(a, b)


def _reference_histograms(cell_ids, train, train_all, train_sel, train_ues, test, test_sel, test_ues):
    """The four localizers as per-sub-call loops over records, with dict keys
    inserted in first-occurrence order (the record-object implementation)."""
    idx = {c: i for i, c in enumerate(cell_ids)}

    def records(chunk, windows):
        log = chunk.log
        for start, stop in windows.tolist():
            yield [
                (int(log.event[i]), int(cell_ids[chunk.cell[i]]), int(log.target[i]))
                for i in range(start, stop)
            ]

    def subcall_rates(chunk, windows, ues):
        f = np.zeros(len(cell_ids))
        for sub in records(chunk, windows):
            for cell in {c for _, c, _ in sub}:
                f[idx[cell]] += 1.0
        return f / max(ues, 1)

    def gram_rates(chunk, windows, ues):
        rates = {}
        for sub in records(chunk, windows):
            for (e1, c1, _), (e2, c2, _) in zip(sub, sub[1:]):
                v = rates.setdefault((e1, e2), np.zeros(len(cell_ids)))
                v[idx[c1]] += 0.5
                v[idx[c2]] += 0.5
        return {k: v / max(ues, 1) for k, v in rates.items()}

    subcall = np.maximum(
        subcall_rates(test, test_sel, test_ues) - subcall_rates(train, train_sel, train_ues), 0.0
    )
    f_train = gram_rates(train, train_all, train_ues)
    f_test = gram_rates(test, test_sel, test_ues)
    gram = np.zeros(len(cell_ids))
    for key in set(f_train) | set(f_test):
        a, b = f_test.get(key), f_train.get(key)
        gram += np.abs(b) if a is None else np.abs(a) if b is None else np.abs(a - b)
    target = np.zeros(len(cell_ids))
    for sub in records(test, test_sel):
        for cell in {t for _, _, t in sub if t in idx}:
            target[idx[cell]] += 1.0
    return subcall, gram, target / max(test_ues, 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 20),
    n_frac=st.floats(0.1, 1.0),
    share=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_columnar_localizers_match_per_subcall_loops(seed, m, n_frac, share):
    """Per-chunk tables and per-fold comparisons give the per-sub-call loops' floats bit for bit,
    for empty, partial and full anomalous sets, and for both 2-gram scopes."""
    rng = np.random.default_rng(seed)
    n = max(1, int(m * n_frac))
    cell_ids = [3, 5, 8, 13]
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=10.0, nx=4, ny=4)
    dmap = DominanceMap(grid_spec=spec, grid=rng.choice(cell_ids, size=(4, 4)))

    def random_chunk():
        records = []
        for ue in range(int(rng.integers(1, 6))):
            for t in range(int(rng.integers(0, 40))):
                event = EventId(int(rng.integers(0, 9)))
                target = int(rng.choice(cell_ids + [99])) if event in TARGETED_EVENTS else NO_TARGET
                records.append((event, ue, int(rng.integers(0, 30)),
                                float(rng.uniform(0, 40)), float(rng.uniform(0, 40)), 3, target))
        chunk = make_chunk(records, dmap, cell_ids)
        return chunk, featurize_chunk(chunk, m=m, n=n, ngram_n=2)

    def tables(chunk, features, training):
        """As detect builds them: a training chunk's 2-gram rates, a testing chunk's target pairs."""
        return chunk_tables(chunk, features.windows, features.ue_count, cell_ids,
                            targets=not training, gram_rates=training)

    (train_chunk, train), (test_chunk, test) = random_chunk(), random_chunk()
    train_anom = rng.random(len(train)) < share
    test_anom = rng.random(len(test)) < share
    expected = _reference_histograms(
        cell_ids, train_chunk, train.windows, train.windows[train_anom], train.ue_count,
        test_chunk, test.windows[test_anom], test.ue_count,
    )
    train_tables = tables(train_chunk, train, training=True)
    test_tables = tables(test_chunk, test, training=False)
    got = (
        sc_dominance_subcall_deviation(train_tables, train_anom, test_tables, test_anom),
        sc_dominance_2gram_deviation(train_tables, test_tables, test_anom),
        sc_target_cell_subcalls(test_tables, test_anom),
    )
    for scores, ref in zip(got, expected):
        assert scores.tobytes() == ref.tobytes()
    # gram_scope "all": the testing rates over every testing sub-call, from the test chunk's own table
    _, gram_all, _ = _reference_histograms(
        cell_ids, train_chunk, train.windows, train.windows[train_anom], train.ue_count,
        test_chunk, test.windows, test.ue_count,
    )
    test_all = chunk_tables(test_chunk, test.windows, test.ue_count, cell_ids)
    assert sc_dominance_2gram_deviation(train_tables, test_all).tobytes() == gram_all.tobytes()


def test_amplification_arithmetic():
    amp = amplify(np.array([50.0, 30.0, 20.0]), PAIR_ADJACENT)
    assert amp[0] == pytest.approx(50.0 / 20.0, rel=1e-9)
    assert amp[1] == pytest.approx(30.0 / 20.0, rel=1e-9)
    assert amp[2] == pytest.approx(20.0 / 80.0, rel=1e-9)


def test_amplification_uniform_symmetric_layout_stays_uniform():
    cells = (1, 2, 3, 4)
    # ring: every cell has the same neighbor count
    adjacency = {1: [2, 4], 2: [1, 3], 3: [2, 4], 4: [3, 1]}
    amp = amplify(np.full(4, 25.0), adjacency_matrix(adjacency, cells))
    assert np.allclose(amp, amp[0])


def test_amplification_all_mass_on_one_cell_dominates():
    cells = (1, 2, 3)
    adjacency = {1: [2], 2: [1, 3], 3: [2]}
    norm = normalize(amplify(np.array([100.0, 0.0, 0.0]), adjacency_matrix(adjacency, cells)))
    assert cells[int(np.argmax(norm))] == 1
    assert norm[0] > 99.9


def test_normalize_examples():
    assert np.allclose(normalize(np.array([2.0, 3.0, 5.0])), [20.0, 30.0, 50.0])
    assert np.allclose(normalize(np.zeros(21)), 100.0 / 21.0)
    rng = np.random.default_rng(0)
    assert normalize(rng.uniform(0, 9, 4)).sum() == pytest.approx(100.0, abs=1e-6)


def test_combine_identity_and_weights():
    h = normalize(np.array([1.0, 3.0]))
    other = normalize(np.array([9.0, 1.0]))
    assert np.allclose(combine([h, h, h, h], [1.0, 1.0, 1.0, 1.0]), h)
    assert np.allclose(combine([h, other, other, other], weights=[1, 0, 0, 0]), h)


def _runs(*runs):
    """Fold histograms of one method that hold only the labeled stage."""
    return [{"normalized": np.asarray(r, dtype=np.float64)} for r in runs]


def test_labels_uniform_runs_flag_nothing():
    agg = aggregate_method("subcall", {"problematic": _runs(*[np.full(21, 100.0 / 21.0)] * 10)}, "normalized")
    assert agg.pooled_sigma == pytest.approx(0.0, abs=1e-12)
    assert not agg.labels["problematic"].any()
    assert not agg.run_labels["problematic"].any()


def test_labels_single_hot_cell_is_abnormal():
    run = np.zeros(21)
    run[4] = 100.0
    agg = aggregate_method("subcall", {"problematic": _runs(*[run] * 12)}, "normalized")
    assert np.flatnonzero(agg.labels["problematic"]).tolist() == [4]
    assert np.array_equal(agg.mean_stages["problematic"]["normalized"], run)


def test_label_single_runs_against_external_stats():
    # one run per pairing: the 3-sigma statistics pool both
    agg = aggregate_method(
        "subcall", {"problematic": _runs([10.0, 0.0]), "reference": _runs([0.0, 10.0])}, "normalized"
    )
    assert (agg.pooled_mean, agg.pooled_sigma) == (5.0, 5.0)
    assert agg.run_labels["problematic"].shape == (1, 2)
    assert not agg.run_labels["problematic"].any()  # 10 < 5 + 3*5
    assert not agg.labels["reference"].any()


def test_methods_are_permutation_equivariant():
    # relabel cells 1<->2 everywhere; histograms must permute identically
    call = {"events": [EventId.RLF, EventId.PL_PROBLEM], "xs": [5.0, 35.0]}
    chunk, sub = make_subcalls(call, dmap=split_map(left=1, right=2))
    swapped, sub_swapped = make_subcalls(call, dmap=split_map(left=2, right=1))
    empty = make_chunk([], split_map())
    h = sc_dominance_subcall_deviation(*side(empty), *side(chunk, sub))
    h_swapped = sc_dominance_subcall_deviation(*side(empty), *side(swapped, sub_swapped))
    assert h[0] == h_swapped[1]
    assert h[1] == h_swapped[0]
    assert h[2] == h_swapped[2]


def test_amplification_preserves_argmax_on_default_layout():
    # single-cell fault shape: one dominant score plus background noise
    from sleepscan.simgen.dominance import layout_adjacency
    from sleepscan.simgen.layout import macro21_layout

    layout = macro21_layout()
    cells = layout.cell_ids
    adjacent = adjacency_matrix(layout_adjacency(layout, layout.default_grid(resolution_m=20.0)), cells)
    rng = np.random.default_rng(8)
    for _ in range(20):
        scores = rng.uniform(0.0, 1.0, len(cells))
        hot = int(rng.integers(len(cells)))
        scores[hot] += 10.0
        assert int(np.argmax(amplify(scores, adjacent))) == hot


def _reference_symmetry(cell_ids, train, test, adjacency, mode):
    """The symmetry localizer as Counter lookups summed over each cell's
    sorted neighbor ids (the implementation before the neighbor matrix)."""

    def crossings(chunk):
        if len(chunk.log) < 2:
            return {}
        same_call = np.ones(len(chunk.log) - 1, dtype=bool)
        same_call[chunk.call_bounds[1:-1] - 1] = False
        a, b = chunk.cell[:-1], chunk.cell[1:]
        keep = same_call & (a != b)
        ids = np.asarray(cell_ids)
        return Counter(zip(ids[a[keep]].tolist(), ids[b[keep]].tolist()))

    def handovers(chunk):
        log = chunk.log
        keep = (log.event == int(EventId.HO_COMMAND)) & (log.target != NO_TARGET) & (log.serving != log.target)
        keep[chunk.call_bounds[:-1]] = False
        return Counter(zip(log.serving[keep].tolist(), log.target[keep].tolist()))

    def imbalance(counts, a, b):
        forward, backward = counts.get((a, b), 0), counts.get((b, a), 0)
        return 0.0 if forward + backward == 0 else (forward - backward) / (forward + backward)

    directed = handovers if mode == "handover" else crossings
    train_counts, test_counts = directed(train), directed(test)
    scores = np.zeros(len(cell_ids))
    for i, cell in enumerate(cell_ids):
        total = 0.0
        for other in sorted(adjacency.get(cell, ())):
            total += abs(imbalance(test_counts, cell, other) - imbalance(train_counts, cell, other))
        scores[i] = total
    return scores


def _reference_amplify(scores, cell_ids, adjacency, epsilon=AMPLIFY_EPSILON):
    """Amplification as a sequential sum over cell_ids per cell (before the neighbor matrix)."""
    total = float(scores.sum())
    values = scores.tolist()
    out = np.empty_like(scores)
    for i, cell in enumerate(cell_ids):
        excluded = {cell} | set(adjacency.get(cell, ()))
        non_neighbor = total - sum(v for v, c in zip(values, cell_ids) if c in excluded)
        out[i] = scores[i] / (non_neighbor + epsilon)
    return out


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["handover", "location"]),
    sizes=st.tuples(st.sampled_from([0, 1, 2, 200]), st.sampled_from([0, 1, 2, 200])),
)
def test_neighbor_matrix_localizers_match_set_loops_bit_for_bit(seed, mode, sizes):
    rng = np.random.default_rng(seed)
    # Ascending, as the layout numbers cells, and more than 8: np.sum would add these pairwise.
    cell_ids = [2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377]
    others = cell_ids + [99]  # serving and target ids outside cell_ids too
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=10.0, nx=6, ny=6)
    dmap = DominanceMap(grid_spec=spec, grid=rng.choice(cell_ids, size=(6, 6)))

    def random_chunk(n_records):
        records = []
        for _ in range(n_records):
            event = EventId.HO_COMMAND if rng.random() < 0.4 else EventId(int(rng.integers(0, 9)))
            target = int(rng.choice(others)) if event in TARGETED_EVENTS else NO_TARGET
            records.append((event, int(rng.integers(0, 4)), int(rng.integers(0, 30)),
                            float(rng.uniform(0, 60)), float(rng.uniform(0, 60)), int(rng.choice(others)), target))
        return make_chunk(records, dmap, cell_ids)

    train, test = random_chunk(sizes[0]), random_chunk(sizes[1])
    # Asymmetric lists, cells without neighbors or without a list, self-loops, unknown ids.
    adjacency = {
        c: [int(o) for o in rng.choice(others + [77], size=int(rng.integers(0, 12)))]
        for c in cell_ids if rng.random() < 0.85
    }
    adjacent = adjacency_matrix(adjacency, cell_ids)
    # The matrix holds only the suite's cells: an unknown id is as if not listed.
    known = {c: frozenset(v) & set(cell_ids) for c, v in adjacency.items()}
    assert np.array_equal(adjacent, adjacency_matrix(known, cell_ids))

    symmetry = sc_2gram_symmetry_deviation(
        chunk_tables(train, NO_WINDOWS, 1, cell_ids, mode), chunk_tables(test, NO_WINDOWS, 1, cell_ids, mode), adjacent
    )
    assert symmetry.tobytes() == _reference_symmetry(cell_ids, train, test, known, mode).tobytes()
    n = len(cell_ids)
    for scores in (symmetry, rng.uniform(0.0, 10.0, n) * (rng.random(n) < 0.7), np.zeros(n)):
        assert amplify(scores, adjacent).tobytes() == _reference_amplify(scores, cell_ids, known).tobytes()


@pytest.mark.parametrize("overrides", [{}, WIDE_BRANCHES], ids=["smoke", "smoke_wide_branches"])
def test_tables_are_built_once_per_chunk(monkeypatch, tmp_path, overrides):
    """A 72-fold detect over 6 normal and 12 test chunks builds each chunk's tables once, not once per fold.

    Only the 2-gram rates of anomalous testing sub-calls are fold work,
    under the default gram_scope "anomalous".
    """
    cfg = RunConfig.from_dict({**SMOKE, **overrides})
    write_suite(generate_dataset_suite(cfg), tmp_path)
    calls = Counter()

    def counted(name):
        builder = getattr(localize, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return builder(*args, **kwargs)

        monkeypatch.setattr(localize, name, count)

    for name in ("chunk_tables", "_directed_counts", "_distinct_pairs", "_gram_cell_rates"):
        counted(name)
    manifest, _, roles = load_suite(tmp_path)
    outputs = []
    run_detect(manifest, roles, cfg, outputs.extend)
    assert len(outputs) == 72
    assert calls["chunk_tables"] == calls["_directed_counts"] == 18
    assert calls["_distinct_pairs"] == 18 + 12  # dominance cells of every chunk, target cells of test chunks
    assert calls["_gram_cell_rates"] == 6 + (12 if cfg.gram_scope == "all" else 72)
