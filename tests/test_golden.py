"""Golden outputs: a refactor must leave every byte of a suite and of a run directory as it was.

Each suite case runs `simulate` through `cli.main` and pins the sha256
over (relative path, sha256 of the file) of every file of the suite
directory, in sorted order.

Each run case runs simulate -> detect -> evaluate through `cli.main` in a
working directory of its own with relative paths (`suite`, `run_jobs1`),
because detect_manifest.json records the data directory as given.  It
runs once serially and once with `--jobs 2`, against the same digest;
both detect from one simulated suite.  The digest is
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

# The smoke suite, and one case per simulator branch the benchmark workloads never take.
SUITE_CASES = {
    "smoke": (SMOKE, "b3133791ce41df128c0a6a5113e506c83a572e874323a8ef790257512bb554a5"),
    "a2_report_interval": (
        {**SMOKE, "a2_report_interval_ms": 200},
        "8630ce83960622fb443c00f4617952891dfff96b6628ff06ddfedfddbcecabad",
    ),
    "ho_complete_zero": (
        {**SMOKE, "ho_complete_ms": 0},
        "ba83277ba613c654b9e3b2be5b652d55a9757e949682f1f4ef256d36ac4fc7c4",
    ),
    "no_shadowing": (
        {**SMOKE, "shadowing_sigma_db": 0},
        "bf8f30307e755d075daefd7b9ebb1f8f3636382364a5084abb7f9a9cfdbae8ef",
    ),
    "no_wrap_around": (
        {**SMOKE, "wrap_around": False},
        "c877b8de9cfd8469e44fc8f747fcd84da27472571aade45cffae4488fb35999a",
    ),
}

CASES = {
    "smoke": (SMOKE, "05141f485996980e988bb0b4679023ef2e2f505bde94d186e849618e57dce3ee"),
    "smoke_wide_branches": (
        {**SMOKE, **WIDE_BRANCHES},
        "79a615a65749b9200ad68f6dde2959280159f6089059bf9d573b8d80276d6dbb",
    ),
    # Labels, the aggregate CSV and the heat maps on the non-amplified stage.
    "smoke_no_amplify": (
        {**SMOKE, "amplify": False},
        "8336d97495f8267403bcf113b4ba21afdd3ab81edce5684f89647d9cf81d7f89",
    ),
}


def tree_digest(base, parts=RUN_PARTS) -> str:
    h = hashlib.sha256()
    for part in parts:
        path = base / part
        files = sorted(f for f in path.rglob("*") if f.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.relative_to(base).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


@pytest.mark.parametrize("case", SUITE_CASES)
def test_suite_digest(case, tmp_path, monkeypatch):
    config, expected = SUITE_CASES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    run("simulate", "--config", "config.json", "--out", "suite")
    suite = tmp_path / "suite"  # a flat directory: its parts are its files
    assert tree_digest(suite, sorted(f.name for f in suite.iterdir())) == expected


@pytest.fixture(scope="module")
def case_dirs(tmp_path_factory):
    """One working directory per run case, so that both --jobs values detect from the same suite."""
    return {case: tmp_path_factory.mktemp(case) for case in CASES}


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
@pytest.mark.parametrize("case", CASES)
def test_run_directory_digest(case, jobs, case_dirs, monkeypatch):
    """Serial detect and detect in two forked workers give the same pinned bytes."""
    config, expected = CASES[case]
    base = case_dirs[case]
    monkeypatch.chdir(base)
    if not (base / "suite").exists():
        (base / "config.json").write_text(json.dumps(config))
        run("simulate", "--config", "config.json", "--out", "suite")
    out = f"run_jobs{jobs}"
    run("detect", "--config", "config.json", "--data", "suite", "--out", out, "--jobs", jobs)
    run("evaluate", "--out", out)
    assert tree_digest(base / out) == expected
