import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepscan.errors import DataError
from sleepscan.featurize import featurize_chunk
from sleepscan.localize import (
    amplify,
    combine,
    normalize,
    sc_2gram_symmetry_deviation,
    sc_dominance_2gram_deviation,
    sc_dominance_subcall_deviation,
    sc_target_cell_subcalls,
)
from sleepscan.mdtlog import NO_TARGET, TARGETED_EVENTS, Chunk, EventId, EventLog, strip_locations
from sleepscan.pipeline import aggregate_method
from sleepscan.simgen.dominance import DominanceMap
from sleepscan.simgen.layout import GridSpec


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


def make_chunk(records, dmap, cell_ids=CELLS):
    """A chunk of (event, ue, t, x, y, serving, target) rows."""
    return Chunk.from_log(EventLog.from_rows(records), dmap, cell_ids)


def whole_calls(chunk):
    """Each call of the chunk as one sub-call."""
    return np.stack([chunk.call_bounds[:-1], chunk.call_bounds[1:]], axis=1)


def make_subcalls(*calls, dmap):
    """(chunk, windows): one sub-call per call, each call given as call_records kwargs."""
    chunk = make_chunk([r for call in calls for r in call_records(**call)], dmap)
    return chunk, whole_calls(chunk)


def test_subcall_deviation_empty_and_confined():
    dmap = uniform_map(cell_id=1)
    empty = make_chunk([], dmap)
    h = sc_dominance_subcall_deviation(CELLS, empty, NO_WINDOWS, 5, empty, NO_WINDOWS, 7)
    assert np.all(h == 0.0)

    chunk, sub = make_subcalls({"events": [EventId.RLF, EventId.RLF_REESTAB], "ue": 3}, dmap=dmap)
    h = sc_dominance_subcall_deviation(CELLS, empty, NO_WINDOWS, 5, chunk, sub, 1)
    assert h[0] == pytest.approx(1.0)
    assert h[1] == 0.0 and h[2] == 0.0
    # training deviation is clipped at zero
    h = sc_dominance_subcall_deviation(CELLS, chunk, sub, 1, empty, NO_WINDOWS, 1)
    assert np.all(h == 0.0)


def test_gram_deviation_zero_when_identical():
    dmap = uniform_map(cell_id=1)
    chunk, subs = make_subcalls(
        *({"events": [EventId.A3_RSRP, EventId.HO_COMMAND], "ue": u} for u in range(3)), dmap=dmap
    )
    h = sc_dominance_2gram_deviation(CELLS, chunk, subs, 3, chunk, subs, 3)
    assert np.allclose(h, 0.0)


def test_gram_deviation_single_new_pair_inside_one_cell():
    dmap = uniform_map(cell_id=1)
    empty = make_chunk([], dmap)
    chunk, extra = make_subcalls({"events": [EventId.HO_COMMAND, EventId.A2_RSRP_ENTER], "ue": 9}, dmap=dmap)
    h = sc_dominance_2gram_deviation(CELLS, empty, NO_WINDOWS, 1, chunk, extra, 1)
    assert h[0] == pytest.approx(1.0)  # 0.5 per endpoint
    assert h[1] == 0.0 and h[2] == 0.0


def test_gram_deviation_splits_border_pairs():
    dmap = split_map(left=1, right=2)
    empty = make_chunk([], dmap)
    # one event in cell 1 (x<20), one in cell 2 (x>=20)
    chunk, sub = make_subcalls(
        {"events": [EventId.HO_COMMAND, EventId.HO_COMPLETE], "xs": [5.0, 35.0]}, dmap=dmap
    )
    h = sc_dominance_2gram_deviation(CELLS, empty, NO_WINDOWS, 1, chunk, sub, 1)
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


def test_symmetry_balanced_flows_are_silent():
    adjacency = {1: frozenset({2}), 2: frozenset({1}), 3: frozenset()}
    dmap = uniform_map()
    train = make_chunk(_ho_attempt_call(0, 1, 2, 10) + _ho_attempt_call(1, 2, 1, 10), dmap)
    test = make_chunk(_ho_attempt_call(2, 1, 2, 4) + _ho_attempt_call(3, 2, 1, 4), dmap)
    h = sc_2gram_symmetry_deviation(CELLS, train, test, adjacency)
    assert np.allclose(h, 0.0)


def test_symmetry_one_sided_flow_scores_both_ends():
    adjacency = {1: frozenset({2}), 2: frozenset({1}), 3: frozenset()}
    dmap = uniform_map()
    train = make_chunk(_ho_attempt_call(0, 1, 2, 10) + _ho_attempt_call(1, 2, 1, 10), dmap)
    test = make_chunk(_ho_attempt_call(2, 1, 2, 10), dmap)  # nothing flows 2 -> 1
    h = sc_2gram_symmetry_deviation(CELLS, train, test, adjacency)
    assert h[0] == pytest.approx(1.0)
    assert h[1] == pytest.approx(1.0)
    assert h[2] == 0.0


def test_symmetry_location_mode_counts_crossings():
    adjacency = {1: frozenset({2}), 2: frozenset({1}), 3: frozenset()}
    dmap = split_map(left=1, right=2)
    # movement left->right: pair of consecutive events straddling the border
    cross = make_chunk([
        (EventId.RLF, 0, 0, 5.0, 5.0, 1, NO_TARGET),
        (EventId.RLF, 0, 1, 35.0, 5.0, 1, NO_TARGET),
    ], dmap)
    empty = make_chunk([], dmap)
    h = sc_2gram_symmetry_deviation(CELLS, empty, cross, adjacency, mode="location")
    assert h[0] == pytest.approx(1.0)
    assert h[1] == pytest.approx(1.0)


def test_symmetry_location_mode_ignores_steps_between_calls():
    adjacency = {1: frozenset({2}), 2: frozenset({1}), 3: frozenset()}
    dmap = split_map(left=1, right=2)
    # UE 0 ends in cell 1 and UE 1 starts in cell 2: no crossing
    chunk = make_chunk(
        call_records([EventId.RLF, EventId.RLF], ue=0, xs=[5.0, 5.0])
        + call_records([EventId.RLF, EventId.RLF], ue=1, xs=[35.0, 35.0]),
        dmap,
    )
    empty = make_chunk([], dmap)
    h = sc_2gram_symmetry_deviation(CELLS, empty, chunk, adjacency, mode="location")
    assert np.all(h == 0.0)


def test_target_cell_counts_unique_targets_per_subcall():
    dmap = uniform_map()
    chunk, sub = make_subcalls(
        {"events": [EventId.HO_COMMAND] * 3, "ue": 4, "targets": [1, 1, 3]}, dmap=dmap
    )
    h = sc_target_cell_subcalls(CELLS, chunk, sub, 1)
    assert h[0] == pytest.approx(1.0)
    assert h[2] == pytest.approx(1.0)
    assert h[1] == 0.0
    assert np.all(sc_target_cell_subcalls(CELLS, chunk, NO_WINDOWS, 5) == 0.0)


def test_target_cell_needs_no_locations():
    dmap = split_map(left=1, right=2)
    records = call_records(
        [EventId.HO_COMMAND, EventId.HO_COMPLETE], ue=1, xs=[5.0, 35.0], targets=[2, 2]
    )
    log = EventLog.from_rows(records)
    chunk = Chunk.from_log(log, dmap, CELLS)
    stripped = Chunk.from_log(strip_locations(log), dmap, CELLS)
    assert chunk.cell.tolist() != stripped.cell.tolist()
    a = sc_target_cell_subcalls(CELLS, chunk, whole_calls(chunk), 1)
    b = sc_target_cell_subcalls(CELLS, stripped, whole_calls(stripped), 1)
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
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 20), n_frac=st.floats(0.1, 1.0))
def test_columnar_localizers_match_per_subcall_loops(seed, m, n_frac):
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
        return featurize_chunk(make_chunk(records, dmap, cell_ids), m=m, n=n)

    train, test = random_chunk(), random_chunk()
    train_sel = train.windows[rng.random(len(train)) < 0.3]
    test_sel = test.windows[rng.random(len(test)) < 0.3]
    expected = _reference_histograms(
        cell_ids, train.chunk, train.windows, train_sel, train.ue_count,
        test.chunk, test_sel, test.ue_count,
    )
    got = (
        sc_dominance_subcall_deviation(cell_ids, train.chunk, train_sel, train.ue_count,
                                       test.chunk, test_sel, test.ue_count),
        sc_dominance_2gram_deviation(cell_ids, train.chunk, train.windows, train.ue_count,
                                     test.chunk, test_sel, test.ue_count),
        sc_target_cell_subcalls(cell_ids, test.chunk, test_sel, test.ue_count),
    )
    for scores, ref in zip(got, expected):
        assert np.array_equal(scores, ref)


def test_amplification_arithmetic():
    adjacency = {1: frozenset({2}), 2: frozenset({1}), 3: frozenset()}
    amp = amplify(np.array([50.0, 30.0, 20.0]), (1, 2, 3), adjacency)
    assert amp[0] == pytest.approx(50.0 / 20.0, rel=1e-9)
    assert amp[1] == pytest.approx(30.0 / 20.0, rel=1e-9)
    assert amp[2] == pytest.approx(20.0 / 80.0, rel=1e-9)


def test_amplification_uniform_symmetric_layout_stays_uniform():
    cells = (1, 2, 3, 4)
    # ring: every cell has the same neighbor count
    adjacency = {1: frozenset({2, 4}), 2: frozenset({1, 3}), 3: frozenset({2, 4}), 4: frozenset({3, 1})}
    amp = amplify(np.full(4, 25.0), cells, adjacency)
    assert np.allclose(amp, amp[0])


def test_amplification_all_mass_on_one_cell_dominates():
    cells = (1, 2, 3)
    adjacency = {1: frozenset({2}), 2: frozenset({1, 3}), 3: frozenset({2})}
    norm = normalize(amplify(np.array([100.0, 0.0, 0.0]), cells, adjacency))
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
    assert np.allclose(combine([h, h, h, h]), h)
    assert np.allclose(combine([h, other, other, other], weights=[1, 0, 0, 0]), h)
    with pytest.raises(DataError):
        combine([h, other], weights=[1.0])
    with pytest.raises(DataError):
        combine([])
    with pytest.raises(DataError):
        combine([h, other], weights=[0.0, 0.0])


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
    h = sc_dominance_subcall_deviation([1, 2, 3], empty, NO_WINDOWS, 1, chunk, sub, 1)
    h_swapped = sc_dominance_subcall_deviation([1, 2, 3], empty, NO_WINDOWS, 1, swapped, sub_swapped, 1)
    assert h[0] == h_swapped[1]
    assert h[1] == h_swapped[0]
    assert h[2] == h_swapped[2]


def test_amplification_preserves_argmax_on_default_layout():
    # single-cell fault shape: one dominant score plus background noise
    from sleepscan.simgen import layout_adjacency, macro21_layout

    layout = macro21_layout()
    adjacency = layout_adjacency(layout, layout.default_grid(resolution_m=20.0))
    cells = tuple(layout.cell_ids)
    rng = np.random.default_rng(8)
    for _ in range(20):
        scores = rng.uniform(0.0, 1.0, len(cells))
        hot = int(rng.integers(len(cells)))
        scores[hot] += 10.0
        total = scores.sum()
        non_neighbor_sums = {
            c: total - sum(scores[i] for i, cc in enumerate(cells) if cc in ({c} | set(adjacency[c])))
            for c in cells
        }
        hot_cell = cells[hot]
        if all(non_neighbor_sums[hot_cell] <= v for c, v in non_neighbor_sums.items() if c != hot_cell):
            assert cells[int(np.argmax(amplify(scores, cells, adjacency)))] == hot_cell
