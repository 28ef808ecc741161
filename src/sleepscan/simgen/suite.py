"""Dataset suite generation: normal / problematic / reference roles.

normal       fault off,  shadowing seed S1, mobility seed M1
problematic  fault on,   shadowing seed S1, mobility seed M2
reference    fault off,  shadowing seed S2, mobility seed M3

`generate_dataset_suite` simulates the three roles of a `RunConfig`,
which gives the layout, map grid, master seed, faulty cell, chunk count
and shadowing; `write_suite` writes them with a manifest that holds that
configuration and every entry it fixes (`suite_facts`).  Each role's log
is split into K chunks by UE partition (ue mod K); the detection stage
pairs normal chunks against problematic and reference chunks in a full
K x K cross.  Detect reads a written suite through `load_suite`, which
checks it, returns its configuration and a loader per chunk, so that
each chunk is parsed only where a fold needs it.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ..config import RunConfig
from ..errors import DataError
from ..mdtlog import (
    JSON_INT, Chunk, EventLog, check_entries, check_rows, is_json_int, line_columns, lookup_index, read_json_object,
    read_records, sorted_unique, write_json, write_records,
)
from .dominance import (
    RadioMap,
    build_radio_map,
    layout_adjacency,
    load_dominance_csv,
    path_gain,
    write_dominance_csv,
)

ROLES = ("normal", "problematic", "reference")

ChunkLoader = Callable[[], Chunk]  # parses one chunk of a suite when called


def derive_seeds(master_seed: int) -> dict:
    """Named sub-seeds for the suite, stable for a given master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(5)
    return {
        "shadow": {"normal": int(state[0]), "problematic": int(state[0]), "reference": int(state[1])},
        "mobility": {"normal": int(state[2]), "problematic": int(state[3]), "reference": int(state[4])},
    }


@dataclass
class RoleData:
    records: EventLog      # the role's whole log, in emission order
    affected: np.ndarray   # bool fault-affected flag per record
    radio: RadioMap
    chunks: list[EventLog]


@dataclass
class DatasetSuite:
    cfg: RunConfig  # the configuration the suite was simulated from
    roles: dict[str, RoleData]
    seeds: dict
    adjacency: dict[int, frozenset[int]]


def split_chunks(log: EventLog, n_chunks: int) -> list[EventLog]:
    """Partition a log by UE (ue mod n_chunks), preserving record order."""
    part = log.ue % n_chunks
    return [log.take(np.flatnonzero(part == j)) for j in range(n_chunks)]


def generate_dataset_suite(cfg: RunConfig) -> DatasetSuite:
    """The normal, problematic and reference datasets of one configuration."""
    from .engine import simulate  # only here: detect, evaluate and report load no simulator code
    from .fields import make_shadowing

    layout, grid = cfg.layout(), cfg.grid()
    seeds = derive_seeds(cfg.master_seed)
    gain = path_gain(layout, grid)  # shared by every role's radio map
    adjacency = layout_adjacency(layout, grid, gain)
    radio_cache: dict[int, RadioMap] = {}
    roles: dict[str, RoleData] = {}
    for role in ROLES:
        shadow_seed = seeds["shadow"][role]
        if shadow_seed not in radio_cache:
            shadowing = make_shadowing(
                layout, grid, sigma_db=cfg.shadowing_sigma_db, correlation_m=cfg.shadowing_correlation_m,
                seed=shadow_seed,
            )
            radio_cache[shadow_seed] = build_radio_map(layout, shadowing, gain)
        radio = radio_cache[shadow_seed]
        fault = cfg.faulty_cell if role == "problematic" else None
        log, affected = simulate(layout, cfg, radio, seeds["mobility"][role], fault)
        roles[role] = RoleData(records=log, affected=affected, radio=radio, chunks=split_chunks(log, cfg.n_chunks))
    return DatasetSuite(cfg=cfg, roles=roles, seeds=seeds, adjacency=adjacency)


def event_indices(ue) -> np.ndarray:
    """Each record's position among the records of its UE, in record order: the event_index `write_truth` writes."""
    order = np.argsort(ue, kind="stable")
    ue_sorted = ue[order]
    index = np.empty(len(ue), dtype=np.int64)
    # a record's rank in the stable ue order, less the rank of its UE's first record
    index[order] = np.arange(len(ue)) - np.searchsorted(ue_sorted, ue_sorted)
    return index


def truth_rows(log: EventLog, affected) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ue, event_index within the UE's call, affected) arrays, one entry per record in record order."""
    return log.ue, event_indices(log.ue), np.asarray(affected, dtype=bool)


def write_truth(log: EventLog, affected, path) -> None:
    """Ground truth JSONL keyed by (ue, event_index within the UE's call)."""
    lines = [
        f'{{"ue": {ue}, "event_index": {idx}, "affected": {"true" if flag else "false"}}}\n'
        for ue, idx, flag in zip(*(column.tolist() for column in truth_rows(log, affected)))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


# One line as `write_truth` emits it.
_TRUTH_LINE = re.compile(
    rf'^{{"ue": ({JSON_INT}), "event_index": ({JSON_INT}), "affected": (true|false)}}\n',
    re.MULTILINE | re.ASCII,
)


def load_truth(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every UE of a truth file `write_truth` wrote, sorted, its row count, and each row's affected flag.

    Three new arrays: the UEs and their row counts (int64), and the flags
    (bool) with the rows ordered by (ue, event_index), so that a UE's
    flags follow the flags of the UEs before it.  The file is read a block
    at a time, keeping only the counts and the keys of affected rows.

    Every line must be exactly as `write_truth` writes it, and each row's
    event_index the number of rows of its UE before it: the first line
    that is not is a ParseError naming it.  An integer outside 64 bits
    is a DataError.
    """
    ues = counts = np.zeros(0, dtype=np.int64)  # every UE so far, sorted, and its rows so far

    def affected_keys(path, lineno, ue, index, affected):
        nonlocal ues, counts
        ue, index = np.array(ue, dtype=np.int64), np.array(index, dtype=np.int64)
        expected = event_indices(ue)
        expected += np.append(counts, 0)[lookup_index(ue, ues)]  # the UE's rows in earlier blocks
        check_rows(path, lineno, (index != expected, lambda row: f"the writer writes event_index {expected[row]} here"))
        merged = sorted_unique(np.concatenate((ues, ue)))
        grown = np.bincount(np.searchsorted(merged, ue), minlength=len(merged))
        grown[np.searchsorted(merged, ues)] += counts
        ues, counts = merged, grown
        flags = np.array([flag == "true" for flag in affected], dtype=bool)
        return ue[flags], index[flags]

    ue, index = line_columns(_TRUTH_LINE, path, affected_keys)
    flags = np.zeros(int(counts.sum()), dtype=bool)
    flags[(np.cumsum(counts) - counts)[np.searchsorted(ues, ue)] + index] = True
    return ues, counts, flags


def make_suite_dir(out_dir) -> Path:
    """out_dir, created if missing, so that a suite can be written into it."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(exist_ok=True)
    except OSError as exc:  # a missing parent, a file in the way
        raise DataError(f"cannot write the suite to {out_dir}: {exc.strerror}") from None
    return out_dir


def suite_facts(cfg: RunConfig) -> dict:
    """The manifest entries cfg alone fixes: what `write_suite` writes and `load_suite` requires of them."""
    grid = cfg.grid()
    return {
        "n_chunks": cfg.n_chunks,
        "faulty_cell": cfg.faulty_cell,
        "cell_ids": list(cfg.layout().cell_ids),
        "grid": {name: getattr(grid, name) for name in ("origin_x", "origin_y", "resolution_m", "nx", "ny")},
        "files": {
            role: {
                "chunks": [f"{role}_chunk{j}.jsonl" for j in range(cfg.n_chunks)],
                "truth": f"truth_{role}.jsonl",
                "dominance": f"dominance_{role}.csv",
            }
            for role in ROLES
        },
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
    }


def write_suite(suite: DatasetSuite, out_dir) -> Path:
    """Write each role's chunks, truth and dominance map under the names `suite_facts` gives, then the manifest:
    `suite_facts` of the suite's config, its seeds and its cell adjacency."""
    out_dir = make_suite_dir(out_dir)
    facts = suite_facts(suite.cfg)
    try:  # a full disk, a file that cannot be replaced: each names the path it failed on
        for role, data in suite.roles.items():
            names = facts["files"][role]
            for name, chunk in zip(names["chunks"], data.chunks):
                write_records(chunk, out_dir / name)
            write_truth(data.records, data.affected, out_dir / names["truth"])
            write_dominance_csv(data.radio.dominance, out_dir / names["dominance"])
        write_json(out_dir / "manifest.json", {
            **facts,
            "seeds": suite.seeds,
            "adjacency": {str(c): sorted(n) for c, n in suite.adjacency.items()},
        })
    except OSError as exc:
        raise DataError(f"cannot write the suite to {exc.filename or out_dir}: {exc.strerror}") from None
    return out_dir / "manifest.json"


def load_suite(data_dir) -> tuple[dict, RunConfig, dict[str, list[ChunkLoader]]]:
    """Open a written suite: its manifest, the configuration it was simulated from, and a loader per chunk of each role.

    The manifest's config must be a valid RunConfig, and every entry
    `suite_facts` derives from it must be the manifest's; only the
    adjacency, whose derivation needs the path-gain geometry, is checked by hand.
    Every file the manifest names must exist, and each role's truth
    (`load_truth`) and dominance map are read once here; a chunk file is
    parsed only when its loader is called (`load_chunk`).  A manifest
    entry that is not so, a missing file or a dominance map that names a
    cell outside `cell_ids` is a DataError naming the file.
    """
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    manifest = read_json_object(manifest_path, ("config", "adjacency"))
    cfg = RunConfig.from_manifest(manifest, manifest_path)
    check_entries(manifest_path, manifest, suite_facts(cfg), "simulate")
    cell_ids, adjacency = manifest["cell_ids"], manifest["adjacency"]
    known = set(cell_ids)
    if not isinstance(adjacency, dict) or not all(
        re.fullmatch(JSON_INT, key) and int(key) in known
        and isinstance(cells, list) and all(is_json_int(c) and c in known for c in cells)
        for key, cells in adjacency.items()
    ):
        raise DataError(f"{manifest_path}: adjacency must map ids of cell_ids to lists of ids of cell_ids")
    for entry in manifest["files"].values():
        for name in (entry["truth"], entry["dominance"], *entry["chunks"]):
            if not (data_dir / name).is_file():
                raise DataError(f"missing {data_dir / name}")
    grid, roles = cfg.grid(), {}
    for role, entry in manifest["files"].items():
        truth_path = data_dir / entry["truth"]
        truth = load_truth(truth_path)
        dominance = load_dominance_csv(data_dir / entry["dominance"], grid)
        cells = sorted_unique(dominance.grid)
        unknown = cells[lookup_index(cells, cell_ids) < 0]
        if len(unknown):
            raise DataError(f"{data_dir / entry['dominance']}: cell {unknown[0]} is not one of the manifest's cell_ids")
        roles[role] = [
            partial(load_chunk, data_dir / name, dominance, cell_ids, truth, truth_path, j, len(entry["chunks"]))
            for j, name in enumerate(entry["chunks"])
        ]
    return manifest, cfg, roles


def load_chunk(path, dominance, cell_ids, truth, truth_path, index: int, n_chunks: int) -> Chunk:
    """Chunk index of a role's n_chunks, parsed into columns, with each record's dominance cell and ground-truth flag.

    truth is `load_truth` of truth_path.  The chunk must hold one call of
    each truth UE u with u mod n_chunks == index (`split_chunks`) and no
    other, with one record per truth row, so that each truth UE is checked
    by the one chunk that holds it, in whichever process parses that
    chunk; truth that is not the chunk's is a DataError naming both files.
    """
    mismatch = f"{truth_path} does not match {path}"
    # no local holds the file's columns, so that from_log frees them once it has ordered them into calls
    chunk = Chunk.from_log(read_records(path), dominance, cell_ids, truth, mismatch)
    calls, owned = chunk.log.ue[chunk.call_bounds[:-1]], truth[0][truth[0] % n_chunks == index]
    if not np.array_equal(calls, owned):
        ue = min(set(calls.tolist()) ^ set(owned.tolist()))
        raise DataError(f"{mismatch}: chunk {index} of {n_chunks} holds the calls of exactly the truth's ues u "
                        f"with u mod {n_chunks} == {index}, and ue {ue} breaks that")
    return chunk
