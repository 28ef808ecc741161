import csv
import io
import json
import tracemalloc
from collections import namedtuple
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sleepscan.config import RunConfig, SimConfig
from sleepscan.errors import ConfigError, DataError, ParseError
from sleepscan.mdtlog import NO_TARGET, Chunk, EventId, EventLog, write_records
from sleepscan.simgen import dominance
from sleepscan.simgen.dominance import (
    DOMINANCE_HEADER,
    DominanceMap,
    build_radio_map,
    derive_adjacency,
    layout_adjacency,
    load_dominance_csv,
    path_gain,
    write_dominance_csv,
)
from sleepscan.simgen.engine import simulate
from sleepscan.simgen.fields import ShadowingField, gaussian_filter_wrap, make_shadowing
from sleepscan.simgen.layout import Cell, GridSpec, NetworkLayout, macro21_layout, pathloss_db, sector_gain_db
from sleepscan.simgen.suite import (
    derive_seeds, generate_dataset_suite, load_suite, split_chunks, truth_rows, write_suite, write_truth,
)

import engine_oracle

FAST_SIM = SimConfig(ues_per_cell=3, duration_steps=1200)
FAST_SEED = 9

Record = namedtuple("Record", "event ue t x y serving target")


def records(log):
    """A log's records as named tuples, in record order."""
    return [Record(*row) for row in log.rows()]


def omni_layout(positions, wrap=False):
    cells = [
        Cell(cell_id=i + 1, site_x=x, site_y=y, azimuth_deg=None) for i, (x, y) in enumerate(positions)
    ]
    return NetworkLayout(cells=cells, inter_site_distance=500.0, wrap_around=wrap)


def small_grid(n=20, res=10.0, origin=-100.0):
    return GridSpec(origin_x=origin, origin_y=origin, resolution_m=res, nx=n, ny=n)


def test_pathloss_formula_and_floor():
    assert pathloss_db(1000.0) == pytest.approx(128.1)
    assert pathloss_db(100.0) == pytest.approx(128.1 + 37.6 * np.log10(0.1))
    # distance difference oracle: 100 m vs 400 m differs by 37.6*log10(4)
    assert pathloss_db(400.0) - pathloss_db(100.0) == pytest.approx(37.6 * np.log10(4.0), abs=1e-9)
    assert pathloss_db(1.0) == pathloss_db(35.0)  # floored


def test_single_cell_dominates_everywhere():
    layout = omni_layout([(0.0, 0.0)])
    grid = small_grid()
    dmap = build_radio_map(layout, ShadowingField.zeros(grid, 1)).dominance
    assert np.all(dmap.grid == 1)


def test_tie_breaks_to_lower_cell_id():
    # co-located cells tie at every pixel
    layout = omni_layout([(0.0, 0.0), (0.0, 0.0)])
    grid = small_grid()
    dmap = build_radio_map(layout, ShadowingField.zeros(grid, 2)).dominance
    assert np.all(dmap.grid == 1)


def test_closer_cell_wins_by_pathloss():
    layout = omni_layout([(0.0, 0.0), (500.0, 0.0)])
    grid = GridSpec(origin_x=0.0, origin_y=-5.0, resolution_m=10.0, nx=50, ny=1)
    radio = build_radio_map(layout, ShadowingField.zeros(grid, 2))
    # pixel centered at x=105: 105 m from cell 1, 395 m from cell 2
    assert radio.dominance.cell_at(105.0, 0.0) == 1
    assert radio.dominance.cell_at(395.0, 0.0) == 2
    rsrp = radio.rsrp_dbm
    ix = 10  # center x = 105
    assert rsrp[0, 0, ix] - rsrp[1, 0, ix] == pytest.approx(
        pathloss_db(395.0) - pathloss_db(105.0), abs=1e-9
    )


def test_empty_layout_is_a_config_error():
    with pytest.raises(ConfigError):
        NetworkLayout(cells=[], inter_site_distance=500.0)


def test_shadowing_statistics():
    layout = macro21_layout()
    grid = layout.default_grid()
    field = make_shadowing(layout, grid, sigma_db=8.0, seed=4)
    for plane in field.fields:
        assert abs(plane.mean()) < 0.5
        assert abs(plane.std() - 8.0) < 0.8
    zero = ShadowingField.zeros(grid, 21)
    assert zero.fields.std() == 0.0


# Grids smaller than the kernel radius, sigma below one pixel, non-square
# grids, and one 1-D and one 3-D array.
FILTER_CASES = [((5, 7), 4.0), ((3, 3), 2.6), ((12, 9), 0.4), ((9, 14), 0.7), ((40, 25), 4.0), ((1, 6), 1e-6),
                ((11,), 2.0), ((4, 5, 6), 1.5)]


@pytest.mark.parametrize("shape,sigma", FILTER_CASES)
def test_gaussian_filter_matches_scipy_bit_for_bit(shape, sigma):
    from scipy.ndimage import gaussian_filter

    values = np.random.default_rng(3).standard_normal(shape)
    assert np.array_equal(gaussian_filter_wrap(values, sigma), gaussian_filter(values, sigma=sigma, mode="wrap"))


def _scipy_shadowing(layout, grid, sigma_db, correlation_m, seed):
    """Reference shadowing on scipy's filter: one noise draw and one 2-D filter per cell."""
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma_px = max(correlation_m / grid.resolution_m, 1e-6)
    fields = np.empty((len(layout.cells), grid.ny, grid.nx))
    for c in range(len(layout.cells)):
        smooth = gaussian_filter(rng.standard_normal((grid.ny, grid.nx)), sigma=sigma_px, mode="wrap")
        smooth -= smooth.mean()
        fields[c] = smooth * (sigma_db / smooth.std())
    return fields


@pytest.mark.parametrize(
    "nx,ny,correlation_m",
    [(6, 5, 40.0), (17, 11, 4.0), (11, 17, 40.0), (30, 30, 40.0)],
    ids=["smaller_than_radius", "sigma_below_one_pixel", "non_square", "square"],
)
def test_make_shadowing_matches_scipy_bit_for_bit(nx, ny, correlation_m):
    layout = macro21_layout()
    grid = GridSpec(origin_x=-150.0, origin_y=-100.0, resolution_m=10.0, nx=nx, ny=ny)
    field = make_shadowing(layout, grid, sigma_db=8.0, correlation_m=correlation_m, seed=7)
    assert np.array_equal(field.fields, _scipy_shadowing(layout, grid, 8.0, correlation_m, 7))


def _per_cell_gain(layout, grid):
    """Path gain cell by cell, each cell computing its own distances and bearings."""
    xs, ys = grid.pixel_centers()
    gain = np.empty((len(layout.cells), grid.ny, grid.nx))
    for idx, cell in enumerate(layout.cells):
        best = np.full((grid.ny, grid.nx), -np.inf)
        for ox, oy in layout.wrap_image_offsets():
            dx = xs[None, :] - (cell.site_x + ox)
            dy = ys[:, None] - (cell.site_y + oy)
            level = cell.tx_power_dbm - pathloss_db(np.hypot(dx, dy))
            if cell.azimuth_deg is not None:
                level = level + sector_gain_db(np.degrees(np.arctan2(dy, dx)) - cell.azimuth_deg)
            np.maximum(best, level, out=best)
        gain[idx] = best
    return gain


@pytest.mark.parametrize("wrap", [True, False])
def test_path_gain_shares_site_geometry_exactly(wrap):
    layout = macro21_layout(wrap_around=wrap)
    grid = layout.default_grid(resolution_m=25.0)
    gain = path_gain(layout, grid)
    assert np.array_equal(gain, _per_cell_gain(layout, grid))
    omni = omni_layout([(0.0, 0.0), (0.0, 0.0), (300.0, 40.0)])
    assert np.array_equal(path_gain(omni, small_grid()), _per_cell_gain(omni, small_grid()))
    # the planned adjacency is the zero-shadow map's, with or without a shared gain
    zero = ShadowingField.zeros(grid, len(layout.cells))
    expected = derive_adjacency(build_radio_map(layout, zero).dominance)
    assert layout_adjacency(layout, grid) == expected
    assert layout_adjacency(layout, grid, gain) == expected


def test_faulty_cell_dominance_share():
    layout = macro21_layout()
    grid = layout.default_grid()
    for seed in (0, 1, 2):
        dmap = build_radio_map(layout, make_shadowing(layout, grid, seed=seed)).dominance
        share = float(np.mean(dmap.grid == 1))  # cell 1's share of the map's pixels
        assert abs(share - 1.0 / 21.0) < 0.03


def test_adjacency_properties():
    layout = macro21_layout()
    adjacency = layout_adjacency(layout, layout.default_grid())
    assert set(adjacency) == set(layout.cell_ids)
    for cell, neighbors in adjacency.items():
        assert cell not in neighbors
        assert len(neighbors) >= 1
        for other in neighbors:
            assert cell in adjacency[other]


@pytest.fixture(scope="module")
def small_world():
    layout = macro21_layout()
    grid = layout.default_grid(resolution_m=10.0)  # coarser map for speed
    radio = build_radio_map(layout, make_shadowing(layout, grid, seed=2))
    return layout, radio


def test_fault_free_run_has_no_failure_events(small_world):
    layout, radio = small_world
    log, affected = simulate(layout, FAST_SIM, radio, FAST_SEED)
    events = [r.event for r in records(log)]
    assert EventId.PL_PROBLEM not in events
    assert EventId.RLF not in events
    assert not any(affected)
    # every command is followed by a completion for the same UE and target
    pending = {}
    for rec in records(log):
        if rec.event == EventId.HO_COMMAND:
            assert pending.get(rec.ue) is None
            pending[rec.ue] = rec.target
        elif rec.event == EventId.HO_COMPLETE:
            assert pending.pop(rec.ue) == rec.target
    assert not pending


def test_fault_blocks_all_access_to_cell_one(small_world):
    layout, radio = small_world
    log, affected = simulate(layout, FAST_SIM, radio, FAST_SEED, faulty_cell=1)
    completes_to_faulty = [r for r in records(log) if r.event == EventId.HO_COMPLETE and r.target == 1]
    assert completes_to_faulty == []
    # every command toward the faulty cell is followed by the failure triple
    by_ue = {}
    for rec in records(log):
        by_ue.setdefault(rec.ue, []).append(rec)
    commands = 0
    for ue, recs in by_ue.items():
        for i, rec in enumerate(recs):
            if rec.event == EventId.HO_COMMAND and rec.target == 1:
                commands += 1
                later = [r.event for r in recs[i + 1 :]]
                assert EventId.PL_PROBLEM in later
                pl = later.index(EventId.PL_PROBLEM)
                assert later[pl : pl + 3] == [EventId.PL_PROBLEM, EventId.RLF, EventId.RLF_REESTAB]
    assert commands > 0
    assert any(affected)


def test_event_grammar(small_world):
    layout, radio = small_world
    log, _ = simulate(layout, FAST_SIM, radio, FAST_SEED, faulty_cell=1)
    by_ue = {}
    for rec in records(log):
        by_ue.setdefault(rec.ue, []).append(rec)
    for recs in by_ue.values():
        events = [r.event for r in recs]
        for i, ev in enumerate(events):
            if ev == EventId.HO_COMPLETE:
                # scan back to the matching command with no RLF in between
                j = i - 1
                while j >= 0 and events[j] not in (EventId.HO_COMMAND, EventId.RLF):
                    j -= 1
                assert j >= 0 and events[j] == EventId.HO_COMMAND
            if ev == EventId.RLF_REESTAB:
                assert events[i - 1] == EventId.RLF


def test_determinism_bit_for_bit(small_world, tmp_path):
    layout, radio = small_world
    log_a, affected_a = simulate(layout, FAST_SIM, radio, FAST_SEED, faulty_cell=1)
    log_b, affected_b = simulate(layout, FAST_SIM, radio, FAST_SEED, faulty_cell=1)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(log_a, pa)
    write_records(log_b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert affected_a.tolist() == affected_b.tolist()


def test_seed_changes_the_log(small_world):
    layout, radio = small_world
    base, _ = simulate(layout, FAST_SIM, radio, FAST_SEED)
    other, _ = simulate(layout, FAST_SIM, radio, 10)
    assert records(base) != records(other)


def test_records_stay_in_bounds(small_world):
    layout, radio = small_world
    log, _ = simulate(layout, FAST_SIM, radio, FAST_SEED)
    x0, x1, y0, y1 = radio.grid_spec.extent
    for rec in records(log):
        assert x0 <= rec.x <= x1 and y0 <= rec.y <= y1


def test_a2_rsrp_state_machine_with_weak_transmitter():
    # at default power the -110 dBm threshold is unreachable; a weak cell
    # makes parts of the map cross it so enter/leave events alternate
    layout = NetworkLayout(
        cells=[Cell(cell_id=1, site_x=0.0, site_y=0.0, azimuth_deg=None, tx_power_dbm=10.0)],
        inter_site_distance=500.0,
        wrap_around=False,
    )
    grid = GridSpec(origin_x=-1500.0, origin_y=-1500.0, resolution_m=20.0, nx=150, ny=150)
    radio = build_radio_map(layout, ShadowingField.zeros(grid, 1))
    assert radio.rsrp_dbm.min() < -113.0 < -107.0 < radio.rsrp_dbm.max()
    log, _ = simulate(layout, SimConfig(ues_per_cell=30, duration_steps=3000), radio, 1)
    enters = [r for r in records(log) if r.event == EventId.A2_RSRP_ENTER]
    leaves = [r for r in records(log) if r.event == EventId.A2_RSRP_LEAVE]
    assert enters and leaves
    by_ue = {}
    for rec in records(log):
        if rec.event in (EventId.A2_RSRP_ENTER, EventId.A2_RSRP_LEAVE):
            by_ue.setdefault(rec.ue, []).append(rec.event)
    for events in by_ue.values():
        assert events[0] == EventId.A2_RSRP_ENTER
        for a, b in zip(events, events[1:]):
            assert a != b  # strict alternation per UE


def test_seed_derivation_roles():
    seeds = derive_seeds(99)
    assert seeds["shadow"]["normal"] == seeds["shadow"]["problematic"]
    assert seeds["shadow"]["reference"] != seeds["shadow"]["normal"]
    mobility = seeds["mobility"]
    assert len({mobility["normal"], mobility["problematic"], mobility["reference"]}) == 3
    assert derive_seeds(99) == seeds
    assert derive_seeds(100) != seeds


def test_dataset_suite_structure():
    suite = generate_dataset_suite(RunConfig(ues_per_cell=2, duration_steps=900, master_seed=5, map_resolution_m=10.0))
    assert set(suite.roles) == {"normal", "problematic", "reference"}
    n_ue = 2 * 21
    for role, data in suite.roles.items():
        assert len(data.chunks) == 6
        chunk_ues = [sorted({r.ue for r in records(chunk)}) for chunk in data.chunks]
        union = sorted(u for chunk in chunk_ues for u in chunk)
        assert union == sorted({r.ue for r in records(data.records)})
        flat = [u for chunk in chunk_ues for u in chunk]
        assert len(flat) == len(set(flat))  # pairwise disjoint
        assert len({r.ue for r in records(data.records)}) == n_ue
    # problematic has zero completed handovers into the faulty cell, normal more
    def completes_to_1(log):
        return sum(1 for r in records(log) if r.event == EventId.HO_COMPLETE and r.target == 1)

    assert completes_to_1(suite.roles["problematic"].records) == 0
    assert completes_to_1(suite.roles["normal"].records) > 0
    # normal and problematic share the dominance map, reference differs
    assert np.array_equal(
        suite.roles["normal"].radio.dominance.grid, suite.roles["problematic"].radio.dominance.grid
    )
    assert not np.array_equal(
        suite.roles["normal"].radio.dominance.grid, suite.roles["reference"].radio.dominance.grid
    )


def test_write_truth_matches_json_dumps(tmp_path):
    log = EventLog.from_rows(
        (EventId.RLF, ue, t, 0.0, 0.0, 1, NO_TARGET) for t, ue in enumerate((4, 0, 4, 12, 0, 4))
    )
    affected = [True, False, False, True, True, False]
    path = tmp_path / "truth.jsonl"
    write_truth(log, affected, path)
    expected = "".join(
        json.dumps({"ue": ue, "event_index": idx, "affected": flag}) + "\n"
        for ue, idx, flag in zip(*(column.tolist() for column in truth_rows(log, affected)))
    )
    assert path.read_bytes() == expected.encode()
    assert [json.loads(line)["affected"] for line in path.read_text().splitlines()] == affected


def _split_chunks_oracle(rows, n_chunks):
    """The per-record loop: each record to chunk ue mod n_chunks, in record order."""
    chunks = [[] for _ in range(n_chunks)]
    for row in rows:
        chunks[row[1] % n_chunks].append(row)
    return chunks


def _truth_rows_oracle(rows, affected):
    """The per-record loop: a counter per UE numbers its records in record order."""
    counters, out = {}, []
    for row, flag in zip(rows, affected):
        idx = counters.get(row[1], 0)
        counters[row[1]] = idx + 1
        out.append((row[1], idx, bool(flag)))
    return out


@settings(max_examples=100, deadline=None)
@given(ue_flags=st.lists(st.tuples(st.integers(-3, 12), st.booleans()), max_size=60), n_chunks=st.integers(1, 20))
@example(ue_flags=[], n_chunks=3)
@example(ue_flags=[(5, True), (2, False), (5, False), (2, True), (9, True), (5, True)], n_chunks=8)
def test_columnar_split_and_truth_match_per_record_loops(ue_flags, n_chunks):
    rows = [
        (i % 9, ue, i, 0.5 * i, -1.0 * i, 1 + i % 21, NO_TARGET if i % 2 else i % 21)
        for i, (ue, _) in enumerate(ue_flags)
    ]
    affected = [flag for _, flag in ue_flags]
    log = EventLog.from_rows(rows)
    chunks = split_chunks(log, n_chunks)
    assert [chunk.rows() for chunk in chunks] == _split_chunks_oracle(rows, n_chunks)
    dtypes = [getattr(log, f.name).dtype for f in fields(log)]
    assert all([getattr(chunk, f.name).dtype for f in fields(chunk)] == dtypes for chunk in chunks)
    columns = truth_rows(log, np.array(affected, dtype=bool))
    assert [column.dtype for column in columns] == [np.int64, np.int64, np.bool_]
    assert list(zip(*(column.tolist() for column in columns))) == _truth_rows_oracle(rows, affected)


SMOKE = {"ues_per_cell": 3, "duration_steps": 800, "map_resolution_m": 10.0, "knn_k": 5, "master_seed": 42}


def test_a_suite_from_a_config_built_by_keywords_loads_back(tmp_path):
    """A float setting given as an integer is stored as a float, so the suite's manifest is the one its config gives."""
    cfg = RunConfig(**SMOKE, ue_speed_kmh=30)
    write_suite(generate_dataset_suite(cfg), tmp_path / "suite")
    _, loaded, _ = load_suite(tmp_path / "suite")
    assert loaded == cfg


@pytest.mark.parametrize("overrides", [{}, {"a2_report_interval_ms": 200}], ids=["smoke", "a2_report_interval"])
def test_written_suite_loads_back_as_the_simulated_chunks(overrides, tmp_path):
    """Each chunk `load_suite` returns equals, column by column, the chunk built from the simulated log."""
    cfg = RunConfig.from_dict({**SMOKE, **overrides})
    suite = generate_dataset_suite(cfg)
    write_suite(suite, tmp_path / "suite")
    _, _, loaded = load_suite(tmp_path / "suite")
    cell_ids = list(cfg.layout().cell_ids)
    assert set(loaded) == set(suite.roles) == {"normal", "problematic", "reference"}
    for role, data in suite.roles.items():
        ue, index, flags = truth_rows(data.records, data.affected)
        truth = (*np.unique(ue, return_counts=True), flags[np.lexsort((index, ue))])  # as `load_truth` returns it
        expected = [Chunk.from_log(chunk, data.radio.dominance, cell_ids, truth, role) for chunk in data.chunks]
        got = [load() for load in loaded[role]]
        assert len(got) == len(expected) == 6
        for a, b in zip(got, expected):
            for f in fields(a.log):
                column_a, column_b = getattr(a.log, f.name), getattr(b.log, f.name)
                assert column_a.dtype == column_b.dtype and np.array_equal(column_a, column_b), (role, f.name)
            for name in ("call_bounds", "cell", "affected"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (role, name)
        if role == "problematic":
            assert any(chunk.affected.any() for chunk in got)


def test_write_dominance_csv_matches_csv_writer(tmp_path):
    grid = np.array([[1, 2, 3], [21, 1, 7]], dtype=np.int64)
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=10.0, nx=3, ny=2)
    path = tmp_path / "dominance.csv"
    write_dominance_csv(DominanceMap(grid_spec=spec, grid=grid), path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(DOMINANCE_HEADER.split(","))
    for iy in range(2):
        for ix in range(3):
            writer.writerow([ix, iy, int(grid[iy, ix])])
    assert path.read_bytes() == expected.getvalue().encode()
    assert b"\r\n" in path.read_bytes()


def test_load_dominance_csv_streams_the_map(tmp_path):
    """A map loads back exactly, LF line ends too, holding little more than its rows while it reads them."""
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=5.0, nx=200, ny=150)
    grid = np.random.default_rng(3).integers(1, 22, size=(spec.ny, spec.nx))
    path, lf = tmp_path / "dominance.csv", tmp_path / "dominance_lf.csv"
    write_dominance_csv(DominanceMap(grid_spec=spec, grid=grid), path)
    lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    assert np.array_equal(load_dominance_csv(lf, spec).grid, grid)
    tracemalloc.start()
    try:
        loaded = load_dominance_csv(path, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.grid, grid) and loaded.grid.flags.c_contiguous
    # the grid, and one block of lines and its parsed rows: neither the file's text nor its (pixels, 3) rows
    assert peak <= 2.5 * loaded.grid.nbytes, (peak, loaded.grid.nbytes)


def _map_lines(path, spec):
    """The lines, without line ends, of a written map of spec's grid; line k of the file is item k - 1."""
    grid = np.arange(spec.ny * spec.nx).reshape(spec.ny, spec.nx) % 21 + 1
    write_dominance_csv(DominanceMap(grid_spec=spec, grid=grid), path)
    return path.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("block_rows", [1, 7, dominance.DOMINANCE_BLOCK_ROWS])
@pytest.mark.parametrize("lineno", [2 + dominance.DOMINANCE_BLOCK_ROWS, 3 * dominance.DOMINANCE_BLOCK_ROWS + 7, 30001])
@pytest.mark.parametrize("row", ["4,0,1.5", "4,0", "4,0,1,1", "# comment", "4;0;1", " +4 , 0 ,1", ""])
def test_malformed_dominance_row_names_its_line_from_the_top_of_the_file(tmp_path, row, lineno, block_rows):
    """However the rows fall into blocks, the first row that is not three integers is named by its file line."""
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=5.0, nx=200, ny=150)
    path = tmp_path / "dominance.csv"
    lines = _map_lines(path, spec)
    assert len(lines) == 30001
    if lineno < len(lines):
        lines[-1] = "0,0,x"  # a later fault is not the one named
    lines[lineno - 1] = row
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(dominance, "DOMINANCE_BLOCK_ROWS", block_rows), pytest.raises(ParseError) as err:
        load_dominance_csv(path, spec)
    assert (err.value.path, err.value.lineno, err.value.reason) == (
        str(path), lineno, f"malformed dominance map row: {row!r}"
    )


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: lines[:3000] + lines[3001:],                                 # a pixel missing
        lambda lines: lines[:3001] + lines[3000:],                                 # a pixel twice
        lambda lines: lines[:3000] + [lines[3001], lines[3000]] + lines[3002:],   # two pixels swapped
        lambda lines: lines + ["0,150,1"],                                         # a pixel past the grid
        lambda lines: lines[:-1],                                                  # the last pixel missing
    ],
    ids=["missing", "repeated", "swapped", "extra", "last_missing"],
)
def test_misplaced_pixel_past_the_first_block_is_a_data_error(tmp_path, edit):
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=5.0, nx=200, ny=150)
    path = tmp_path / "dominance.csv"
    path.write_text("\n".join(edit(_map_lines(path, spec))) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_dominance_csv(path, spec)
    assert str(err.value) == f"{path}: dominance map rows must list every pixel of the 200x150 grid once, row-major"


def test_dominance_cell_outside_64_bits_is_a_data_error(tmp_path):
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=5.0, nx=200, ny=150)
    path = tmp_path / "dominance.csv"
    lines = _map_lines(path, spec)
    lines[5000] = lines[5000].rpartition(",")[0] + f",{2**63}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_dominance_csv(path, spec)
    assert str(err.value) == f"{path}: integer field outside the 64-bit range"


def test_load_dominance_csv_rejects_a_non_utf8_byte_past_the_header(tmp_path):
    spec = GridSpec(origin_x=0.0, origin_y=0.0, resolution_m=5.0, nx=200, ny=150)
    path = tmp_path / "dominance.csv"
    write_dominance_csv(DominanceMap(grid_spec=spec, grid=np.ones((spec.ny, spec.nx), dtype=np.int64)), path)
    text = path.read_bytes()
    path.write_bytes(text[: len(text) // 2] + b"\xff" + text[len(text) // 2:])
    with pytest.raises(DataError, match="not UTF-8"):
        load_dominance_csv(path, spec)


def test_fault_validation():
    with pytest.raises(ConfigError):
        SimConfig(duration_steps=0)
    with pytest.raises(ConfigError):
        SimConfig(a2_rsrp_hysteresis_db=-1)


# One engine run: a layout, its radio map and the simulator settings.
ENGINE_CASE = {
    "layout": st.sampled_from(["macro", "omni1", "omni2"]),
    "wrap_around": st.booleans(),
    "tx_power_dbm": st.sampled_from([46.0, 0.0]),  # at 0 dBm A2 RSRP crosses its threshold
    "sigma_db": st.sampled_from([0.0, 8.0]),
    "shadow_seed": st.integers(0, 3),
    "fault": st.none() | st.integers(0, 20),  # the faulty cell's index, modulo the cell count
    "ues_per_cell": st.integers(1, 3),
    "duration_steps": st.integers(1, 300),
    "ue_speed_kmh": st.sampled_from([0.0, 30.0, 300.0]),
    "a3_margin_db": st.sampled_from([3.0, 0.0, -2.0]),
    "ttt_ms": st.sampled_from([100.0, 256.0, 400.0]),  # 100 ms is one step
    "a2_rsrp_hysteresis_db": st.sampled_from([0.0, 3.0]),
    "a2_rsrq_hysteresis_db": st.sampled_from([0.0, 2.0]),
    "a2_report_interval_ms": st.sampled_from([0.0, 100.0, 300.0]),
    "t304_ms": st.sampled_from([100.0, 200.0, 500.0]),
    "ho_complete_ms": st.sampled_from([0.0, 100.0, 300.0]),
    "ho_backoff_ms": st.sampled_from([100.0, 500.0]),
    "seed": st.integers(0, 2**32 - 1),
}
SIM_FIELDS = {f.name for f in fields(SimConfig)}


def engine_inputs(case):
    """The (layout, sim, radio, seed, faulty_cell) of one engine case."""
    if case["layout"] == "macro":
        layout = macro21_layout(tx_power_dbm=case["tx_power_dbm"], wrap_around=case["wrap_around"])
        grid = layout.default_grid(resolution_m=50.0)
    else:
        positions = [(0.0, 0.0), (300.0, 40.0)][: int(case["layout"][-1])]
        cells = [
            Cell(cell_id=i + 1, site_x=x, site_y=y, azimuth_deg=None, tx_power_dbm=case["tx_power_dbm"])
            for i, (x, y) in enumerate(positions)
        ]
        layout = NetworkLayout(cells=cells, inter_site_distance=500.0, wrap_around=case["wrap_around"])
        grid = small_grid(n=40, res=20.0, origin=-400.0)
    radio = build_radio_map(layout, make_shadowing(layout, grid, sigma_db=case["sigma_db"], seed=case["shadow_seed"]))
    fault = None if case["fault"] is None else layout.cell_ids[case["fault"] % len(layout.cells)]
    sim = SimConfig(**{k: v for k, v in case.items() if k in SIM_FIELDS})
    return layout, sim, radio, case["seed"], fault


# Settings of the examples below, one per effect of the per-step order that
# the engine reproduces (see the `simgen.engine` docstring).
STEP_ORDER_CASE = {
    "layout": "macro", "wrap_around": False, "tx_power_dbm": 46.0, "sigma_db": 0.0, "shadow_seed": 0,
    "ues_per_cell": 1, "ue_speed_kmh": 30.0, "a3_margin_db": -2.0, "ttt_ms": 100.0, "a2_rsrp_hysteresis_db": 0.0,
    "a2_rsrq_hysteresis_db": 0.0, "a2_report_interval_ms": 0.0, "ho_backoff_ms": 100.0,
}


@settings(deadline=None)
@given(case=st.fixed_dictionaries(ENGINE_CASE))
# A3 in the step a random access resolves compares against the old serving cell.
@example(case={**STEP_ORDER_CASE, "fault": 17, "duration_steps": 12, "t304_ms": 500.0, "ho_complete_ms": 300.0,
               "seed": 2628077981})
# A trigger toward the faulty cell is skipped near the end; the count runs on
# and a shorter-timer target fires.
@example(case={**STEP_ORDER_CASE, "fault": 17, "duration_steps": 81, "ue_speed_kmh": 300.0, "a3_margin_db": 3.0,
               "ttt_ms": 256.0, "t304_ms": 200.0, "ho_complete_ms": 0.0, "seed": 34906666})
# A2 at t = 0 sees the cell the failed attach re-established on.
@example(case={**STEP_ORDER_CASE, "layout": "omni2", "fault": 0, "duration_steps": 1, "t304_ms": 100.0,
               "ho_complete_ms": 100.0, "seed": 1200367645})
# A random-access failure and an immediate handover in one step: the handover wins.
@example(case={**STEP_ORDER_CASE, "fault": 0, "duration_steps": 4, "ue_speed_kmh": 0.0,
               "a2_report_interval_ms": 100.0, "t304_ms": 100.0, "ho_complete_ms": 0.0, "seed": 31})
def test_engine_equals_the_per_step_oracle(case):
    inputs = engine_inputs(case)
    log, affected = simulate(*inputs)
    expected_log, expected_affected = engine_oracle.simulate(*inputs)
    for f in fields(log):
        column, expected = getattr(log, f.name), getattr(expected_log, f.name)
        assert column.dtype == expected.dtype and np.array_equal(column, expected), f.name
    assert affected.dtype == expected_affected.dtype and np.array_equal(affected, expected_affected)
