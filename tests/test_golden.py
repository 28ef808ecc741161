"""Golden outputs: a refactor must leave every byte of a run directory as it was.

Each case runs simulate -> detect -> evaluate through `cli.main` in a fresh
working directory with relative paths (`suite`, `run`), because
detect_manifest.json records the data directory as given.  The digest is
sha256 over (relative path, sha256 of the file) of every file under
folds/, aggregate/, detect_manifest.json and eval/, in sorted order.

A digest may change only on purpose, with the change explained and shown
to leave labels and metrics the same.
"""

import contextlib
import hashlib
import io
import json

import pytest

from sleepscan.cli import main

RUN_PARTS = ("folds", "aggregate", "detect_manifest.json", "eval")

# The tiny configuration of acceptance test A7.
SMOKE = {"ues_per_cell": 3, "duration_steps": 800, "map_resolution_m": 10.0, "knn_k": 5, "master_seed": 42}
# The non-default branches of featurize and localize.
WIDE_BRANCHES = {"ngram_n": 3, "window_m": 30, "window_n": 6, "gram_scope": "all", "symmetry_mode": "location"}

CASES = {
    "smoke": (SMOKE, "05141f485996980e988bb0b4679023ef2e2f505bde94d186e849618e57dce3ee"),
    "smoke_wide_branches": (
        {**SMOKE, **WIDE_BRANCHES},
        "79a615a65749b9200ad68f6dde2959280159f6089059bf9d573b8d80276d6dbb",
    ),
}


def tree_digest(base) -> str:
    h = hashlib.sha256()
    for part in RUN_PARTS:
        path = base / part
        files = sorted(f for f in path.rglob("*") if f.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.relative_to(base).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


@pytest.mark.parametrize("case", CASES)
def test_run_directory_digest(case, tmp_path, monkeypatch):
    config, expected = CASES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    run("simulate", "--config", "config.json", "--out", "suite")
    for out, jobs in (("run", "1"), ("run_jobs2", "2")):
        run("detect", "--config", "config.json", "--data", "suite", "--out", out, "--jobs", jobs)
        run("evaluate", "--out", out)
        assert tree_digest(tmp_path / out) == expected, f"--jobs {jobs}"
