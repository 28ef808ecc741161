"""Dataset suite generation: normal / problematic / reference roles.

normal       fault off,  shadowing seed S1, mobility seed M1
problematic  fault on,   shadowing seed S1, mobility seed M2
reference    fault off,  shadowing seed S2, mobility seed M3

Each role's log is split into K chunks by UE partition (ue mod K); the
detection stage pairs normal chunks against problematic and reference
chunks in a full K x K cross.  Detect reads a written suite through
`load_suite`, which checks it and returns a loader per chunk, so that
each chunk is parsed only where a fold needs it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..mdtlog import (
    JSON_INT, Chunk, EventLog, line_columns, read_json_object, read_records, write_json, write_records,
)
from .dominance import (
    RadioMap,
    build_radio_map,
    layout_adjacency,
    load_dominance_csv,
    path_gain,
    write_dominance_csv,
)
from .engine import FaultConfig, SimConfig, simulate
from .fields import make_shadowing
from .layout import GridSpec, NetworkLayout

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
    role: str
    records: EventLog      # the role's whole log, in emission order
    affected: np.ndarray   # bool fault-affected flag per record
    radio: RadioMap
    chunks: list[EventLog]


@dataclass
class DatasetSuite:
    roles: dict[str, RoleData]
    seeds: dict
    n_chunks: int
    grid: GridSpec
    faulty_cell: int
    cell_ids: list[int]
    adjacency: dict[int, frozenset[int]]


def split_chunks(log: EventLog, n_chunks: int) -> list[EventLog]:
    """Partition a log by UE (ue mod n_chunks), preserving record order."""
    part = log.ue % n_chunks
    return [log.take(np.flatnonzero(part == j)) for j in range(n_chunks)]


def generate_dataset_suite(
    layout: NetworkLayout,
    sim: SimConfig,
    faulty_cell: int = 1,
    master_seed: int = 0,
    n_chunks: int = 6,
    grid: GridSpec | None = None,
    sigma_db: float = 8.0,
    correlation_m: float = 40.0,
) -> DatasetSuite:
    if grid is None:
        grid = layout.default_grid()
    seeds = derive_seeds(master_seed)
    gain = path_gain(layout, grid)  # shared by every role's radio map
    adjacency = layout_adjacency(layout, grid, gain)
    radio_cache: dict[int, RadioMap] = {}
    roles: dict[str, RoleData] = {}
    for role in ROLES:
        shadow_seed = seeds["shadow"][role]
        if shadow_seed not in radio_cache:
            shadowing = make_shadowing(
                layout, grid, sigma_db=sigma_db, correlation_m=correlation_m, seed=shadow_seed
            )
            radio_cache[shadow_seed] = build_radio_map(layout, shadowing, gain)
        radio = radio_cache[shadow_seed]
        fault = FaultConfig(enabled=(role == "problematic"), faulty_cell=faulty_cell)
        role_sim = replace(sim, rng_seed=seeds["mobility"][role])
        log, affected = simulate(layout, role_sim, fault, radio)
        roles[role] = RoleData(
            role=role, records=log, affected=affected, radio=radio, chunks=split_chunks(log, n_chunks)
        )
    return DatasetSuite(
        roles=roles,
        seeds=seeds,
        n_chunks=n_chunks,
        grid=grid,
        faulty_cell=faulty_cell,
        cell_ids=list(layout.cell_ids),
        adjacency=adjacency,
    )


def truth_rows(log: EventLog, affected) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ue, event_index within the UE's call, affected) arrays, one entry per record in record order."""
    order = np.argsort(log.ue, kind="stable")
    ue_sorted = log.ue[order]
    index = np.empty(len(log), dtype=np.int64)
    # a record's rank in the stable ue order, less the rank of its UE's first record
    index[order] = np.arange(len(log)) - np.searchsorted(ue_sorted, ue_sorted)
    return log.ue, index, np.asarray(affected, dtype=bool)


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
    """(ue, event_index, affected) arrays of a truth file `write_truth` wrote, in file order.

    Every line must be exactly as `write_truth` writes it: the first
    that is not is a ParseError naming it.  An integer outside 64 bits
    is a DataError.
    """
    return tuple(line_columns(_TRUTH_LINE, path, _truth_arrays))


def _truth_arrays(path, lineno, ue, index, affected) -> tuple[np.ndarray, ...]:
    """One block of a truth file's captures as (ue, event_index, affected) arrays."""
    flags = np.array([flag == "true" for flag in affected], dtype=bool)
    return np.array(ue, dtype=np.int64), np.array(index, dtype=np.int64), flags


def write_suite(suite: DatasetSuite, out_dir, manifest_extra: dict | None = None) -> Path:
    out_dir = Path(out_dir)
    if not out_dir.parent.exists():
        raise DataError(f"parent directory does not exist: {out_dir.parent}")
    out_dir.mkdir(exist_ok=True)
    files: dict[str, dict] = {}
    dominance_paths: dict[int, tuple] = {}  # normal and problematic share one map: format it once
    for role, data in suite.roles.items():
        chunk_names = []
        for j, chunk in enumerate(data.chunks):
            name = f"{role}_chunk{j}.jsonl"
            write_records(chunk, out_dir / name)
            chunk_names.append(name)
        truth_name = f"truth_{role}.jsonl"
        write_truth(data.records, data.affected, out_dir / truth_name)
        dom_name = f"dominance_{role}.csv"
        dmap = data.radio.dominance
        dominance_paths.setdefault(id(dmap), (dmap, []))[1].append(out_dir / dom_name)
        files[role] = {"chunks": chunk_names, "truth": truth_name, "dominance": dom_name}
    for dmap, paths in dominance_paths.values():
        write_dominance_csv(dmap, *paths)
    manifest = {**suite_manifest(suite), "files": files}
    if manifest_extra:
        manifest.update(manifest_extra)
    write_json(out_dir / "manifest.json", manifest)
    return out_dir / "manifest.json"


def suite_manifest(suite: DatasetSuite) -> dict:
    """The manifest of a suite, less its file names and any extra keys."""
    grid = suite.grid
    return {
        "seeds": suite.seeds,
        "n_chunks": suite.n_chunks,
        "faulty_cell": suite.faulty_cell,
        "cell_ids": suite.cell_ids,
        "adjacency": {str(c): sorted(n) for c, n in suite.adjacency.items()},
        "grid": {
            "origin_x": grid.origin_x,
            "origin_y": grid.origin_y,
            "resolution_m": grid.resolution_m,
            "nx": grid.nx,
            "ny": grid.ny,
        },
    }


# What detect reads of a suite manifest.
_MANIFEST_KEYS = ("grid", "cell_ids", "files", "adjacency", "faulty_cell")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_file_name(value) -> bool:  # of a file in the suite directory itself
    return isinstance(value, str) and value not in ("", ".", "..") and Path(value).name == value


def _check_manifest(manifest: dict, path) -> None:
    """Reject manifest values detect cannot use: cells, adjacency, grid, faulty cell and files."""
    cell_ids = manifest["cell_ids"]
    if not (
        isinstance(cell_ids, list) and all(_is_int(c) for c in cell_ids)
        and all(a < b for a, b in zip(cell_ids, cell_ids[1:]))
    ):  # the localizers sum neighbors in cell_ids order, which must be id order
        raise DataError(f"{path}: cell_ids must be a strictly increasing list of integers")
    adjacency, known = manifest["adjacency"], set(cell_ids)
    if not isinstance(adjacency, dict) or not all(
        re.fullmatch(JSON_INT, key) and int(key) in known
        and isinstance(cells, list) and all(_is_int(c) and c in known for c in cells)
        for key, cells in adjacency.items()
    ):
        raise DataError(f"{path}: adjacency must map ids of cell_ids to lists of ids of cell_ids")
    grid = manifest["grid"]
    if not (
        isinstance(grid, dict)
        and all(_is_number(grid.get(key)) for key in ("origin_x", "origin_y", "resolution_m"))
        and grid["resolution_m"] > 0
        and all(_is_int(grid.get(key)) and grid[key] > 0 for key in ("nx", "ny"))
    ):
        raise DataError(f"{path}: grid needs finite origin_x and origin_y, a positive resolution_m and positive nx, ny")
    if not _is_int(manifest["faulty_cell"]) or manifest["faulty_cell"] not in cell_ids:
        raise DataError(f"{path}: faulty_cell must be one of cell_ids")
    files = manifest["files"]
    if not (isinstance(files, dict) and "normal" in files and all(
        isinstance(entry, dict) and isinstance(entry.get("chunks"), list)
        and all(map(_is_file_name, [entry.get("truth"), entry.get("dominance"), *entry["chunks"]]))
        for entry in files.values()
    )):
        raise DataError(f"{path}: files must give each role, normal included, truth, dominance and chunk file names")


def load_suite(data_dir) -> tuple[dict, dict[str, list[ChunkLoader]]]:
    """Open a written suite: its manifest, and a loader per chunk of each role.

    The manifest is checked, every file it names must exist, and each
    role's truth and dominance map are read once here; a chunk file is
    parsed only when its loader is called (`load_chunk`).  A malformed
    manifest or a missing file is a DataError naming the file.
    """
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    manifest = read_json_object(manifest_path, _MANIFEST_KEYS)
    _check_manifest(manifest, manifest_path)
    g = manifest["grid"]
    grid = GridSpec(
        origin_x=g["origin_x"], origin_y=g["origin_y"], resolution_m=g["resolution_m"], nx=g["nx"], ny=g["ny"]
    )
    cell_ids = manifest["cell_ids"]
    for entry in manifest["files"].values():
        for name in (entry["truth"], entry["dominance"], *entry["chunks"]):
            if not (data_dir / name).is_file():
                raise DataError(f"missing {data_dir / name}")
    roles = {}
    for role, entry in manifest["files"].items():
        truth = load_truth(data_dir / entry["truth"])
        dominance = load_dominance_csv(data_dir / entry["dominance"], grid)
        roles[role] = [partial(load_chunk, data_dir / name, dominance, cell_ids, truth) for name in entry["chunks"]]
    return manifest, roles


def load_chunk(path, dominance, cell_ids, truth) -> Chunk:
    """One chunk file of a suite, parsed into columns, with each record's dominance cell and ground-truth flag."""
    return Chunk.from_log(read_records(path), dominance, cell_ids, truth)


def suite_roles(suite: DatasetSuite) -> dict[str, list[ChunkLoader]]:
    """A loader per chunk of each role of an in-memory suite: each gives the chunk `load_suite`'s would once written."""
    roles = {}
    for role, data in suite.roles.items():
        truth = truth_rows(data.records, data.affected)
        roles[role] = [
            partial(Chunk.from_log, chunk, data.radio.dominance, suite.cell_ids, truth) for chunk in data.chunks
        ]
    return roles
