import argparse
import csv
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest

import sleepscan
from blocks import bits
from sleepscan import cli, pipeline, storage
from sleepscan.cli import main
from sleepscan.config import RunConfig
from sleepscan.simgen import suite as suite_module
from test_golden import SMOKE, tree_digest

TINY_CONFIG = {
    "ues_per_cell": 4,
    "duration_steps": 1500,
    "map_resolution_m": 10.0,
    "knn_k": 5,
    "minor_components": 4,
    "master_seed": 11,
}


@pytest.fixture(scope="module")
def tiny_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, tiny_config_path):
    out = tmp_path_factory.mktemp("data") / "suite"
    code = main(["simulate", "--config", str(tiny_config_path), "--out", str(out)])
    assert code == 0
    return out


def test_simulate_writes_expected_files(dataset_dir):
    chunk_files = sorted(p.name for p in dataset_dir.glob("*_chunk*.jsonl"))
    assert len(chunk_files) == 18  # 3 roles x 6 chunks
    for role in ("normal", "problematic", "reference"):
        assert (dataset_dir / f"truth_{role}.jsonl").exists()
        assert (dataset_dir / f"dominance_{role}.csv").exists()
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["faulty_cell"] == 1
    assert len(manifest["cell_ids"]) == 21
    assert manifest["config_hash"]


def test_simulate_is_reproducible(tmp_path, tiny_config_path, dataset_dir):
    out2 = tmp_path / "suite2"
    assert main(["simulate", "--config", str(tiny_config_path), "--out", str(out2)]) == 0
    first = (dataset_dir / "manifest.json").read_bytes()
    second = (out2 / "manifest.json").read_bytes()
    assert first == second
    for name in ("normal_chunk0.jsonl", "problematic_chunk3.jsonl", "dominance_reference.csv"):
        assert (dataset_dir / name).read_bytes() == (out2 / name).read_bytes()


def test_commands_run_without_scipy(tmp_path):
    """scipy is a test oracle only: no command may import it.

    detect, evaluate and report also load neither OpenSSL (`_hashlib`)
    nor `numpy.ma`, nor the simulator's engine and shadowing fields, and
    a process that runs only detect loads no evaluation code.  simulate
    is run in a process of its own, because numpy.random loads OpenSSL
    (through `secrets` and `hmac`).
    """
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps(
        {"ues_per_cell": 3, "duration_steps": 800, "map_resolution_m": 10.0, "knn_k": 5, "master_seed": 42}
    ))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from sleepscan.cli import main\n"
        "for argv in {commands!r}:\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'{{argv[0]}} failed')\n"
    )
    no_stray_modules = (
        "loaded = [name for name in {stray!r} if name in sys.modules]\n"
        "if loaded:\n"
        "    sys.exit(f'loaded {{loaded}}')\n"
    )
    simulate = [["simulate", "--config", "smoke.json", "--out", "suite"]]
    detect = [["detect", "--config", "smoke.json", "--data", "suite", "--out", "run", "--folds", "2"]]
    analyse = [*detect, ["evaluate", "--out", "run"], ["report", "--out", "run"]]
    not_analysis = ("_hashlib", "numpy.ma", "sleepscan.simgen.engine", "sleepscan.simgen.fields")
    env = {**os.environ, "PYTHONPATH": str(Path(sleepscan.__file__).parents[1])}
    for source in (
        script.format(commands=simulate),
        script.format(commands=detect) + no_stray_modules.format(stray=(*not_analysis, "sleepscan.evaluate")),
        script.format(commands=analyse) + no_stray_modules.format(stray=not_analysis),
    ):
        result = subprocess.run(
            [sys.executable, "-c", source], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "suite" / "manifest.json").exists()
    assert (tmp_path / "run" / "eval").is_dir()


@pytest.fixture
def no_simulation(monkeypatch):
    """Fails the test if a suite is generated: an unusable --out must fail before that."""
    def no_suite(cfg):
        raise AssertionError("simulated before the --out check")

    monkeypatch.setattr(cli, "generate_dataset_suite", no_suite)


def test_simulate_missing_parent_is_data_error(tiny_config_path, capsys, no_simulation):
    code = main(["simulate", "--config", str(tiny_config_path), "--out", "/nonexistent/nope/suite"])
    assert code == 3
    assert "/nonexistent/nope" in capsys.readouterr().err


def test_bad_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"knn_k": -3}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    bad.write_text(json.dumps({"master_seed": -1}))  # a SeedSequence traceback before
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "configuration error: master_seed must be >= 0\n"
    assert not (tmp_path / "x").exists()
    bad.write_text(json.dumps({"map_half_extent_m": 1e308, "map_resolution_m": 1e-300}))  # an OverflowError before
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == ("configuration error: the map is too large: 2 * map_half_extent_m / "
                                       "map_resolution_m (2 * 1e+308 / 1e-300) must be a finite float\n")
    bad.write_text(json.dumps({"knn_k": "5"}))  # a TypeError traceback before
    assert main(["detect", "--config", str(bad), "--data", str(tmp_path), "--out", str(tmp_path / "r")]) == 2
    assert "configuration error: knn_k must be an integer" in capsys.readouterr().err


def test_each_command_takes_only_paths_and_execution_settings():
    """The config file is a run's whole configuration: no flag sets a setting or picks what a run computes."""
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        name: sorted(o for action in p._actions for o in action.option_strings if o not in ("-h", "--help"))
        for name, p in commands.items()
    }
    assert options == {
        "simulate": ["--config", "--out"],
        "detect": ["--config", "--data", "--folds", "--jobs", "--out"],
        "evaluate": ["--out"],
        "report": ["--out"],
    }


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "7", "--out", "suite"],
    ["detect", "--seed", "7", "--data", "suite", "--out", "run"],
    ["detect", "--no-amplify", "--data", "suite", "--out", "run"],
    ["detect", "--method", "gram", "--data", "suite", "--out", "run"],
    ["evaluate", "--method", "combined", "--out", "run"],
], ids=["simulate_seed", "detect_seed", "detect_no_amplify", "detect_method", "evaluate_method"])
def test_removed_flags_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[1]}" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_run_records_exactly_its_config_file(tiny_config_path, dataset_dir, detect_dir):
    manifest = json.loads((detect_dir / "detect_manifest.json").read_text())
    assert manifest["config"] == RunConfig.from_file(tiny_config_path).to_dict()
    assert manifest["config"] == json.loads((dataset_dir / "manifest.json").read_text())["config"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("settings", [
    {"master_seed": 7}, {"n_chunks": 3}, {"cell_id_base": 101, "faulty_cell": 101}, {"ues_per_cell": 5},
], ids=["master_seed", "n_chunks", "cell_id_base", "ues_per_cell"])
def test_detect_config_of_another_suite_is_config_error(tmp_path, dataset_dir, capsys, settings, jobs):
    """Only the detection settings may differ from the suite's: these ran the suite and recorded other settings."""
    config, out = tmp_path / "other.json", tmp_path / "run"
    config.write_text(json.dumps({**TINY_CONFIG, **settings}))
    capsys.readouterr()
    assert main(["detect", "--config", str(config), "--data", str(dataset_dir), "--out", str(out), "--jobs", jobs]) == 2
    key = next(iter(settings))
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} is {settings[key]!r} in the config but ")
    assert "Traceback" not in err
    assert not out.exists()


def test_detect_without_config_runs_the_suites_config(tmp_path, dataset_dir, detect_dir):
    """No --config writes the very bytes of --config <the suite's file>, not a run of the defaults."""
    out = tmp_path / "run"
    assert main(["detect", "--data", str(dataset_dir), "--out", str(out)]) == 0
    assert _detect_files(out) == _detect_files(detect_dir)


def test_a_float_setting_spelled_as_an_integer_simulates_the_same_suite(tmp_path):
    """ue_speed_kmh 30 and 30.0 are one setting: the two suites are the same bytes, their manifests included."""
    suites = []
    for spelling, speed in (("int", 30), ("float", 30.0)):
        config, suite = tmp_path / f"{spelling}.json", tmp_path / f"suite_{spelling}"
        config.write_text(json.dumps({**SMOKE, "ue_speed_kmh": speed}))
        assert main(["simulate", "--config", str(config), "--out", str(suite)]) == 0
        suites.append({f.name: f.read_bytes() for f in sorted(suite.iterdir())})
    assert suites[0] == suites[1]


def test_a_float_setting_spelled_as_an_integer_detects_the_same_run(tmp_path, dataset_dir):
    """detect records its suite's config and hash whichever spelling --config gives a float setting."""
    manifests = []
    for spelling, speed in (("int", 30), ("float", 30.0)):
        config, out = tmp_path / f"{spelling}.json", tmp_path / f"run_{spelling}"
        config.write_text(json.dumps({**TINY_CONFIG, "ue_speed_kmh": speed}))
        assert main(["detect", "--config", str(config), "--data", str(dataset_dir), "--out", str(out),
                     "--folds", "1"]) == 0
        manifests.append((out / "detect_manifest.json").read_text())
    assert manifests[0] == manifests[1]
    suite_hash = json.loads((dataset_dir / "manifest.json").read_text())["config_hash"]
    assert json.loads(manifests[0])["config_hash"] == suite_hash


@pytest.mark.parametrize("key,flag", [("data_dir", "--data"), ("out_dir", "--out")])
def test_config_path_keys_are_config_error(tmp_path, dataset_dir, capsys, key, flag):
    """Nothing reads these keys, so a run that set one recorded a directory it never used."""
    config, out = tmp_path / "paths.json", tmp_path / "run"
    config.write_text(json.dumps({**TINY_CONFIG, key: "/nonexistent"}))
    assert main(["detect", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {key} must be null: the command's {flag} gives that directory\n"
    assert not out.exists()


def test_weights_that_overflow_the_combination_are_config_error(tmp_path, dataset_dir, capsys):
    """These weights wrote nan combined scores, then died in the heatmap with a traceback and no manifest."""
    config, out = tmp_path / "weights.json", tmp_path / "run"
    config.write_text(json.dumps({**TINY_CONFIG, "weights": [1e308, 1e308, 1e308, 1e308]}))
    assert main(["detect", "--config", str(config), "--data", str(dataset_dir), "--out", str(out)]) == 2
    assert "configuration error: weights are too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("settings", [
    {"map_resolution_m": 1e-14, "ues_per_cell": 1},  # 1.5e17 pixel centres per axis, 1.04 EiB
    {"map_resolution_m": 50.0, "ues_per_cell": 10**16},  # 2.1e17 UEs, 1.46 EiB per UE column
])
def test_simulation_numpy_cannot_allocate_is_config_error(tmp_path, capsys, settings):
    """Each array is larger than any 64-bit address space, so numpy refuses it before touching memory."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({**settings, "duration_steps": 10}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "suite")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: the simulation does not fit in memory")
    assert f"map_resolution_m={settings['map_resolution_m']}" in err and f"ues_per_cell={settings['ues_per_cell']}" in err


def test_failed_simulation_removes_only_the_suite_directory_it_created(tmp_path, capsys):
    """A simulate that fails leaves no empty suite directory; an --out that existed before stays."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"map_resolution_m": 1e-14, "duration_steps": 10, "ues_per_cell": 1}))
    created, existing = tmp_path / "created", tmp_path / "existing"
    existing.mkdir()
    for out in (created, existing):
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: the simulation does not fit in memory")
    assert not created.exists()
    assert existing.is_dir() and not any(existing.iterdir())


@pytest.mark.parametrize(
    "make", [lambda path: path.mkdir(), lambda path: path.write_bytes(b'{"knn_k": "\xff"}')],
    ids=["directory", "not_utf8"],
)
def test_unreadable_config_is_config_error(tmp_path, capsys, make):
    config = tmp_path / "config.json"
    make(config)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "suite")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(config) in err
    assert not (tmp_path / "suite").exists()


def test_simulate_onto_a_file_is_data_error(tmp_path, capsys, no_simulation):
    config, out = tmp_path / "smoke.json", tmp_path / "suite"
    config.write_text(json.dumps(SMOKE))
    out.write_text("not a directory")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(out) in err
    assert out.read_text() == "not a directory"


@pytest.fixture(scope="module")
def detect_dir(tmp_path_factory, tiny_config_path, dataset_dir):
    out = tmp_path_factory.mktemp("det") / "run"
    code = main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out),
    ])
    assert code == 0
    return out


def test_detect_limited_folds(tmp_path, tiny_config_path, dataset_dir):
    out = tmp_path / "one"
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out), "--folds", "1",
    ]) == 0
    fold_dirs = list((out / "folds").iterdir())
    assert len(fold_dirs) == 1
    for name in ("fold.json", "scores_train.csv", "scores_test.csv", "histograms.csv"):
        assert (fold_dirs[0] / name).exists()


def test_detect_negative_folds_is_config_error(tmp_path, tiny_config_path, dataset_dir, capsys):
    out = tmp_path / "neg"
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out), "--folds", "-1",
    ]) == 2
    assert "--folds" in capsys.readouterr().err
    assert not out.exists()


def test_detect_zero_folds_is_config_error_and_keeps_the_run(tmp_path, tiny_config_path, dataset_dir, detect_dir,
                                                              capsys):
    """No fold could be aggregated, so detect stops before it clears the directory."""
    run = tmp_path / "run"
    shutil.copytree(detect_dir, run)
    assert main([
        "detect", "--config", str(tiny_config_path), "--data", str(dataset_dir), "--out", str(run), "--folds", "0",
    ]) == 2
    assert "--folds" in capsys.readouterr().err
    assert storage.read_run(run)[0]["n_folds"] == 72


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_detect_jobs_below_one_is_config_error(tmp_path, tiny_config_path, dataset_dir, capsys, jobs):
    out = tmp_path / "jobs"
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out), "--jobs", jobs,
    ]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_detect_full_run_outputs(detect_dir):
    fold_dirs = list((detect_dir / "folds").iterdir())
    assert len(fold_dirs) == 72
    agg = detect_dir / "aggregate"
    for method in ("subcall", "gram", "symmetry", "target", "combined"):
        assert (agg / f"labels_{method}.json").exists()
        for pairing in ("problematic", "reference"):
            assert (agg / f"histogram_{method}_{pairing}.csv").exists()
            svg = agg / f"heatmap_{method}_{pairing}.svg"
            assert svg.exists()
            assert svg.read_text().startswith("<svg")
    doc = json.loads((agg / "labels_combined.json").read_text())
    assert set(doc["pairings"]) == {"problematic", "reference"}


def test_histogram_csv_schema(detect_dir):
    path = detect_dir / "aggregate" / "histogram_combined_problematic.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21
    assert set(rows[0]) == {"cell_id", "raw", "amplified", "normalized", "label"}
    total = sum(float(r["normalized"]) for r in rows)
    assert abs(total - 100.0) < 1e-6


def test_detect_jobs_parallel_matches_serial(tmp_path, tiny_config_path, dataset_dir, detect_dir):
    out = tmp_path / "par"
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out), "--jobs", "2",
    ]) == 0
    serial = (detect_dir / "aggregate" / "labels_combined.json").read_bytes()
    parallel = (out / "aggregate" / "labels_combined.json").read_bytes()
    assert serial == parallel
    for name in (
        "folds/problematic_0x0/scores_test.csv",
        "aggregate/heatmap_combined_problematic.svg",
        "aggregate/histogram_gram_reference.csv",
    ):
        assert (detect_dir / name).read_bytes() == (out / name).read_bytes()


def _detect_files(run) -> dict[str, bytes]:
    """Relative path -> bytes of every file detect wrote in a run directory."""
    files = {}
    for part in ("folds", "aggregate", "detect_manifest.json"):
        path = run / part
        for f in sorted(path.rglob("*")) if path.is_dir() else [path]:
            if f.is_file():
                files[f.relative_to(run).as_posix()] = f.read_bytes()
    return files


@pytest.mark.parametrize(
    "jobs,folds",
    [("2", None), ("3", None), ("2", "5"), ("3", "5"), ("4", "2")],
    ids=["jobs2", "jobs3", "jobs2_folds5", "jobs3_folds5", "jobs_above_tasks"],
)
def test_detect_tasks_match_serial_byte_for_byte(tmp_path, tiny_config_path, dataset_dir, detect_dir, jobs, folds):
    """However the folds are grouped into test-chunk tasks and spread over workers, the run is the serial one."""
    detect = ["detect", "--config", str(tiny_config_path), "--data", str(dataset_dir)]
    limit = [] if folds is None else ["--folds", folds]
    serial = detect_dir
    if folds is not None:
        serial = tmp_path / "serial"
        assert main([*detect, "--out", str(serial), *limit]) == 0
    assert main([*detect, "--out", str(tmp_path / "par"), "--jobs", jobs, *limit]) == 0
    expected = _detect_files(serial)
    assert len([name for name in expected if name.endswith("fold.json")]) == (72 if folds is None else int(folds))
    assert _detect_files(tmp_path / "par") == expected


def test_fold_data_error_is_the_same_under_jobs2(tmp_path, dataset_dir, capsys):
    config = tmp_path / "big_k.json"
    config.write_text(json.dumps({**TINY_CONFIG, "knn_k": 100000}))
    errors = []
    for jobs in ("1", "2"):
        capsys.readouterr()
        assert main([
            "detect", "--config", str(config), "--data", str(dataset_dir), "--out", str(tmp_path / jobs),
            "--jobs", jobs,
        ]) == 3
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / jobs / "detect_manifest.json").exists()
    assert "cannot support k=100000" in errors[0]
    assert errors[0] == errors[1]


def test_detect_replaces_an_earlier_run(tmp_path, tiny_config_path, dataset_dir, detect_dir, capsys):
    """detect, evaluate, then detect --folds 4 into the same directory: nothing of the first run is left."""
    run = tmp_path / "run"
    shutil.copytree(detect_dir, run)
    assert main(["evaluate", "--out", str(run)]) == 0
    (run / "notes.txt").write_text("not detect's")
    assert main([
        "detect", "--config", str(tiny_config_path), "--data", str(dataset_dir), "--out", str(run), "--folds", "4",
    ]) == 0
    assert len(list((run / "folds").iterdir())) == 4
    assert not (run / "eval").exists()
    assert (run / "notes.txt").read_text() == "not detect's"
    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 0
    text = capsys.readouterr().out
    assert "folds: 4" in text and "no eval/ directory yet" in text
    assert main(["evaluate", "--out", str(run)]) == 0


def test_detect_without_data_is_data_error(tmp_path, tiny_config_path):
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(tmp_path / "void"), "--out", str(tmp_path / "out"),
    ]) == 3


def test_evaluate_and_report(detect_dir, capsys):
    assert main(["evaluate", "--out", str(detect_dir)]) == 0
    eval_dir = detect_dir / "eval"
    for name in (
        "metrics_summary.csv",
        "metrics_combined.json",
        "roc_auc.csv",
        "roc_points.csv",
        "heuristic_distances.csv",
    ):
        assert (eval_dir / name).exists()
    with open(eval_dir / "metrics_summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["subcall", "gram", "symmetry", "target", "combined"]
    assert set(rows[0]) == {"method", "accuracy", "precision", "recall", "f_score", "tnr", "fpr"}
    capsys.readouterr()
    assert main(["report", "--out", str(detect_dir)]) == 0
    text = capsys.readouterr().out
    assert "combined" in text and "f_score" in text


def test_evaluate_a_run_whose_problematic_sub_calls_hold_one_class(tmp_path, capsys):
    """No problematic test sub-call is fault-affected: evaluate writes no fold AUC and no pooled ROC, and exits 0."""
    config, suite, run = tmp_path / "one_class.json", tmp_path / "suite", tmp_path / "run"
    config.write_text(json.dumps({"ues_per_cell": 1, "duration_steps": 120, "map_resolution_m": 10.0, "knn_k": 1,
                                  "n_chunks": 1, "master_seed": 6, "faulty_cell": 7}))
    for argv in (
        ["simulate", "--config", str(config), "--out", str(suite)],
        ["detect", "--config", str(config), "--data", str(suite), "--out", str(run)],
        ["evaluate", "--out", str(run)],
        ["report", "--out", str(run)],
    ):
        assert main(argv) == 0, argv
    _, _, outputs = storage.read_run(run)
    assert [out.pair.test_role for out in outputs] == ["problematic", "reference"]
    assert not outputs[0].test_affected.any()
    assert (run / "eval" / "roc_auc.csv").read_text() == "fold,auc\n"
    assert not (run / "eval" / "roc_points.csv").exists()
    assert "mean sub-call ROC AUC" not in capsys.readouterr().out


def test_evaluate_without_detect_is_data_error(tmp_path):
    assert main(["evaluate", "--out", str(tmp_path / "empty")]) == 3


def test_eval_taken_by_a_file_is_data_error(tmp_path, detect_dir, capsys):
    """evaluate cannot make eval/ where a file named eval stands: exit 3 naming it, not a traceback."""
    run = tmp_path / "run"
    shutil.copytree(detect_dir, run)
    shutil.rmtree(run / "eval", ignore_errors=True)
    (run / "eval").write_text("not a directory")
    assert main(["evaluate", "--out", str(run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write ") and str(run / "eval") in err
    assert (run / "eval").read_text() == "not a directory"


def _full_disk(monkeypatch, name):
    """Every write of a run-directory file called name fails as a write to a full disk does."""
    def failing(write):
        def checked(path, *args):
            if Path(path).name == name:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(path, *args)
        return checked

    monkeypatch.setattr(storage, "_write_lines", failing(storage._write_lines))
    monkeypatch.setattr(storage, "write_json", failing(storage.write_json))


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", ["scores_test.csv", "labels_combined.json", "detect_manifest.json"])
def test_failed_detect_write_is_data_error(tmp_path, tiny_config_path, dataset_dir, capsys, monkeypatch, jobs, name):
    """A fold (written in a worker under --jobs 2), an aggregate or the manifest that cannot be
    written ends detect with exit 3 naming where, not with a traceback, and leaves no manifest."""
    run = tmp_path / "run"
    _full_disk(monkeypatch, name)
    assert main([
        "detect", "--config", str(tiny_config_path), "--data", str(dataset_dir), "--out", str(run),
        "--folds", "7", "--jobs", jobs,
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot write {run}") and err.endswith(": No space left on device\n")
    assert not (run / "detect_manifest.json").exists()


def test_failed_eval_write_is_data_error(tmp_path, detect_dir, capsys, monkeypatch):
    run = tmp_path / "run"
    shutil.copytree(detect_dir, run)
    _full_disk(monkeypatch, "roc_auc.csv")
    assert main(["evaluate", "--out", str(run)]) == 3
    assert capsys.readouterr().err == f"data error: cannot write {run / 'eval'}: No space left on device\n"


def _drop_key(path, key):
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))


def _bad_score_row(path):
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(",", ",x", 1)  # a non-integer ue
    path.write_text("\n".join(lines) + "\n")


def _edit_line(path, index, edit):
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def _edit_field(path, index, field, edit):
    _edit_line(path, index, lambda line: ",".join(
        edit(value) if k == field else value for k, value in enumerate(line.split(","))
    ))


def _swap_lines(path, index):
    lines = path.read_text().splitlines()
    lines[index], lines[index + 1] = lines[index + 1], lines[index]
    path.write_text("\n".join(lines) + "\n")


def _drop_target_rows(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("target,")) + "\n")


def _drop_histogram_rows(path, prefix):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith(prefix)) + "\n")


def _duplicate_line(path, index):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: index + 1] + lines[index:]) + "\n")


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _spell_a_float_as_an_integer(path):
    """The manifest a run from "ue_speed_kmh": 30 wrote while a float setting kept an int as given:
    the config as spelled, and the hash of its canonical JSON."""
    def edit(doc):
        doc["config"]["ue_speed_kmh"] = 30
        settings = {key: value for key, value in doc["config"].items() if key not in ("data_dir", "out_dir")}
        canonical = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        doc["config_hash"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    _edit_json(path, edit)


@pytest.mark.parametrize("writer", ["simulate", "detect"])
def test_a_manifest_config_not_as_stored_names_the_setting_and_the_remedy(
    tmp_path, tiny_config_path, dataset_dir, detect_dir, capsys, writer
):
    """Exit 3 naming the manifest, the first setting not in its stored form, and the command that writes it again."""
    data, run = tmp_path / "suite", tmp_path / "run"
    shutil.copytree(dataset_dir, data)
    shutil.copytree(detect_dir, run)
    path = data / "manifest.json" if writer == "simulate" else run / "detect_manifest.json"
    _spell_a_float_as_an_integer(path)
    capsys.readouterr()
    detect = ["detect", "--config", str(tiny_config_path), "--data", str(data), "--out", str(tmp_path / "out")]
    assert main(detect if writer == "simulate" else ["evaluate", "--out", str(run)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: config setting ue_speed_kmh is written as 30, stored as 30.0; "
        f"{writer} again to write it as stored\n"
    )


def _set_n_folds(folds, n_folds):
    """Set n_folds in the detect manifest of the run directory that holds folds."""
    _edit_json(folds.parent / "detect_manifest.json", lambda d: d.update(n_folds=n_folds))


def _edit_pairing(path, **entries):
    """Set entries of the problematic pairing of a labels JSON."""
    _edit_json(path, lambda d: d["pairings"]["problematic"].update(entries))


def _evaluated_summary_line(path, index, edit):
    """Run evaluate on the run directory holding path, then edit a line of its metrics_summary.csv."""
    assert main(["evaluate", "--out", str(path.parents[1])]) == 0
    _edit_line(path, index, edit)


def _prepend_byte(path, byte=b"\xff"):
    path.write_bytes(byte + path.read_bytes())


@pytest.mark.parametrize(
    "command,name,damage",
    [
        ("evaluate", "detect_manifest.json", lambda p: p.write_text("{not json")),
        ("report", "detect_manifest.json", lambda p: p.write_text("{not json")),
        ("evaluate", "detect_manifest.json", lambda p: _drop_key(p, "faulty_cell")),
        ("evaluate", "folds/problematic_0x0/fold.json", lambda p: p.write_text('{"train_role": ')),
        ("evaluate", "folds/problematic_0x0/scores_test.csv", _bad_score_row),
        ("evaluate", "folds/problematic_0x0/histograms.csv", _drop_target_rows),
        ("report", "aggregate/labels_gram.json", lambda p: p.write_text("{bad")),
        ("report", "aggregate/labels_gram.json", lambda p: _drop_key(p, "pairings")),
        ("evaluate", "folds/problematic_0x0/scores_train.csv", lambda p: _edit_line(p, 0, lambda h: h.upper())),
        ("evaluate", "folds/problematic_0x0/histograms.csv", lambda p: _edit_line(p, 3, lambda r: r + ",0")),
        ("evaluate", "folds/problematic_0x0/histograms.csv",
         lambda p: _edit_line(p, 3, lambda r: ",".join(r.split(",")[:2] + ["999"] + r.split(",")[3:]))),
        ("evaluate", "folds/problematic_0x0/histograms.csv", lambda p: _drop_histogram_rows(p, "gram,amplified,")),
        ("evaluate", "folds/problematic_0x0/histograms.csv", lambda p: _drop_histogram_rows(p, "symmetry,raw,1,")),
        ("evaluate", "folds/problematic_0x0/histograms.csv", lambda p: _duplicate_line(p, 5)),
        ("evaluate", "folds/problematic_0x0/fold.json", lambda p: _edit_json(p, lambda d: d.update(test_role="bogus"))),
        ("evaluate", "folds/problematic_0x0/fold.json", lambda p: _edit_json(p, lambda d: d.update(train_index="a"))),
        ("report", "eval/metrics_summary.csv",
         lambda p: _evaluated_summary_line(p, 0, lambda h: h.replace("f_score", "fscore"))),
        ("report", "eval/metrics_summary.csv",
         lambda p: _evaluated_summary_line(p, 1, lambda r: r.rsplit(",", 1)[0] + ",x")),
        ("report", "detect_manifest.json", lambda p: _edit_json(p, lambda d: d.update(methods=7))),
        ("report", "detect_manifest.json", lambda p: _edit_json(p, lambda d: d.update(config_hash=7))),
        ("evaluate", "detect_manifest.json", lambda p: _edit_json(p, lambda d: d.update(methods="gram"))),
        ("evaluate", "detect_manifest.json", lambda p: _edit_json(p, lambda d: d["config"].update(knn_k=-1))),
        ("evaluate", "detect_manifest.json", lambda p: _drop_key(p, "cell_ids")),
        ("evaluate", "folds/problematic_0x0/fold.json", lambda p: _edit_json(p, lambda d: d["cell_ids"].reverse())),
        ("evaluate", "folds", lambda p: shutil.rmtree(p / "problematic_0x0")),
        ("evaluate", "folds", lambda p: shutil.copytree(p / "problematic_0x0", p / "problematic_9x9")),
        ("evaluate", "folds/problematic_0x0/fold.json", lambda p: _edit_json(p, lambda d: d.update(train_index=1))),
        ("evaluate", "folds/problematic_0x0/scores_test.csv", lambda p: _edit_field(p, 2, 3, lambda v: "nan")),
        ("evaluate", "folds/problematic_0x0/scores_test.csv", lambda p: _swap_lines(p, 1)),
        ("evaluate", "folds/problematic_0x0/scores_train.csv", lambda p: _edit_field(p, 1, 4, lambda v: "2")),
        ("evaluate", "folds/problematic_0x0/scores_test.csv", lambda p: _edit_field(p, 1, 1, lambda v: " +" + v)),
        ("evaluate", "folds/problematic_0x0/histograms.csv", lambda p: _swap_lines(p, 1)),
        ("evaluate", "folds/problematic_0x0/fold.json",
         lambda p: _edit_json(p, lambda d: d["cell_ids"].__setitem__(0, d["cell_ids"][0] + 0.25))),
        ("evaluate", "folds/problematic_0x0/scores_test.csv", lambda p: _edit_field(p, 2, 3, lambda v: "1e+400")),
        ("evaluate", "folds/problematic_0x0/scores_train.csv", lambda p: _edit_field(p, 5, 3, lambda v: "-1e+400")),
        ("evaluate", "folds/problematic_0x0/histograms.csv", lambda p: _edit_field(p, 4, 3, lambda v: "1e+999")),
        ("report", "eval/metrics_summary.csv",
         lambda p: _evaluated_summary_line(p, 2, lambda r: r.rsplit(",", 1)[0] + ",1e+400")),
        ("report", "aggregate/labels_gram.json", lambda p: p.unlink()),
        ("evaluate", "detect_manifest.json", lambda p: _edit_json(p, lambda d: d["methods"].pop(1))),
        ("evaluate", "detect_manifest.json", lambda p: _edit_json(p, lambda d: d.update(faulty_cell=5))),
        ("report", "detect_manifest.json", lambda p: _edit_json(p, lambda d: d.update(config_hash="0" * 64))),
        ("evaluate", "folds", lambda p: (shutil.rmtree(p / "problematic_0x0"), _set_n_folds(p, 71))),
        ("evaluate", "folds", lambda p: _set_n_folds(p, 73)),
        ("evaluate", "folds", lambda p: (p / "notes").mkdir()),
        ("report", "aggregate/labels_gram.json", lambda p: _edit_json(p, lambda d: d.update(threshold=True))),
        ("report", "aggregate/labels_gram.json",
         lambda p: _edit_json(p, lambda d: d["pairings"].update(normal=d["pairings"].pop("reference")))),
        ("report", "aggregate/labels_gram.json", lambda p: _edit_pairing(p, argmax_cell="nowhere")),
        ("report", "aggregate/labels_gram.json", lambda p: _edit_pairing(p, argmax_cell=999)),
        ("report", "aggregate/labels_gram.json", lambda p: _edit_pairing(p, abnormal_cells={"a": 1})),
        ("report", "aggregate/labels_gram.json", lambda p: _edit_pairing(p, abnormal_cells=[2, 1])),
    ],
    ids=["manifest_not_json", "report_manifest_not_json", "manifest_without_faulty_cell",
         "fold_json_not_json", "scores_test_bad_row", "histograms_without_a_method",
         "labels_not_json", "labels_without_pairings", "scores_train_other_header",
         "histograms_long_row", "histograms_unknown_cell", "histograms_missing_stage",
         "histograms_missing_cell_row", "histograms_duplicate_row", "fold_json_unknown_test_role",
         "fold_json_index_not_int", "summary_renamed_column", "summary_not_a_number",
         "manifest_methods_not_a_list", "manifest_config_hash_not_a_string", "manifest_methods_a_string",
         "manifest_config_invalid", "manifest_without_cell_ids", "fold_json_cell_ids_reversed",
         "fold_missing", "fold_copied_under_another_name", "fold_json_names_another_fold",
         "scores_test_nan", "scores_test_rows_swapped", "scores_train_flag_2", "scores_test_ue_with_sign",
         "histograms_rows_swapped", "fold_json_fractional_cell_id", "scores_test_overflows",
         "scores_train_overflows", "histograms_value_overflows", "summary_overflows", "labels_missing",
         "manifest_methods_one_short", "manifest_faulty_cell_not_the_configs", "manifest_config_hash_zeroed",
         "fold_missing_and_n_folds_lowered", "n_folds_past_the_last_fold", "folds_with_a_non_fold_directory",
         "labels_threshold_true", "labels_pairing_unknown", "labels_argmax_not_a_cell", "labels_argmax_outside_cell_ids",
         "labels_abnormal_not_a_list", "labels_abnormal_out_of_cell_order"],
)
def test_damaged_run_directory_is_data_error(tmp_path, detect_dir, capsys, command, name, damage):
    """Exit 3 naming the file, and for a CSV its first line that the writer does not write (the header is line 1)."""
    run = tmp_path / "run"
    shutil.copytree(detect_dir, run)
    damage(run / name)
    capsys.readouterr()
    assert main([command, "--out", str(run)]) == 3
    err = capsys.readouterr().err
    assert str(run / name) in err
    if name.endswith(".csv"):
        assert re.search(re.escape(str(run / name)) + r":[0-9]+: ", err), err


def _append(path, text):
    path.write_text(path.read_text() + text)


def _drop_key_on_line(path, lineno, key):
    lines = path.read_text().splitlines()
    doc = json.loads(lines[lineno - 1])
    del doc[key]
    lines[lineno - 1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")


def _set_every_cell(path, cell):
    header, *rows = path.read_text().splitlines()
    path.write_text(header + "\n" + "".join(row.rpartition(",")[0] + f",{cell}\n" for row in rows))


# (file, damage): each must make detect exit 3 naming the file.
DAMAGED_SUITE_CASES = [
    ("truth_normal.jsonl", lambda p: _append(p, "{bad")),
    ("truth_normal.jsonl", lambda p: _drop_key_on_line(p, 3, "event_index")),
    ("manifest.json", lambda p: p.write_text("{bad")),
    ("manifest.json", lambda p: _drop_key(p, "grid")),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["adjacency"].update(x=d["adjacency"].pop("1")))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["grid"].update(resolution_m=0))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d.update(faulty_cell="z"))),
    ("normal_chunk2.jsonl", lambda p: p.unlink()),
    ("truth_reference.jsonl", lambda p: p.unlink()),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["files"].pop("normal"))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["files"]["normal"].update(truth=5))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["files"]["normal"]["chunks"].__setitem__(0, "."))),
    ("manifest.json", _prepend_byte),
    ("dominance_normal.csv", _prepend_byte),
    ("normal_chunk2.jsonl", _prepend_byte),
    ("truth_problematic.jsonl", _prepend_byte),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["cell_ids"].reverse())),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["adjacency"]["1"].append(99))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["adjacency"].update({"98": [1]}))),
    ("problematic_chunk3.jsonl", lambda p: _edit_line(p, 4, lambda r: r.replace('"t": ', '"t":'))),
    ("problematic_chunk3.jsonl", lambda p: _edit_line(p, 4, lambda r: re.sub(r'"x": [^,]+', '"x": 1e+400', r))),
    ("normal_chunk1.jsonl", lambda p: _edit_line(p, 7, lambda r: re.sub(r'"y": [^,]+', '"y": -1e+400', r))),
    ("dominance_normal.csv", lambda p: _edit_line(p, 1, lambda r: "0,0,999")),
    ("dominance_reference.csv", lambda p: _set_every_cell(p, 999)),
    ("truth_problematic.jsonl", lambda p: shutil.copy(p.with_name("truth_reference.jsonl"), p)),
    ("truth_problematic.jsonl", lambda p: p.write_text("".join(p.read_text().splitlines(keepends=True)[:-5]))),
    ("truth_problematic.jsonl", lambda p: _edit_line(p, 9, lambda r: r + "\n" + r)),
    ("dominance_reference.csv", lambda p: _edit_line(p, 1, lambda r: " +0 , 0 ," + r.rpartition(",")[2])),
    ("dominance_reference.csv", lambda p: _edit_line(p, 3, lambda r: "\n" + r)),
    ("truth_problematic.jsonl", lambda p: _append(p, '{"ue": 999999, "event_index": 0, "affected": true}\n')),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d.update(faulty_cell=5))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["config"].update(faulty_cell=5))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d.update(config_hash="0" * 64))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d.update(n_chunks=3))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["files"].pop("reference"))),
    ("manifest.json", lambda p: _edit_json(p, lambda d: d["files"].update(extra=d["files"]["reference"]))),
    ("manifest.json", lambda p: _drop_key(p, "config")),
    ("manifest.json", _spell_a_float_as_an_integer),
]
DAMAGED_SUITE_IDS = [
    "truth_not_json", "truth_without_event_index", "manifest_not_json", "manifest_without_grid",
    "manifest_adjacency_key_not_int", "manifest_resolution_zero", "manifest_faulty_cell_not_int",
    "missing_chunk", "missing_truth", "manifest_files_without_normal", "manifest_truth_name_not_a_string",
    "manifest_chunk_name_dot", "manifest_not_utf8", "dominance_not_utf8", "chunk_not_utf8", "truth_not_utf8",
    "manifest_cell_ids_descending", "manifest_adjacency_neighbor_not_a_cell",
    "manifest_adjacency_key_not_a_cell", "problematic_chunk_bad_line", "problematic_chunk_x_overflows",
    "normal_chunk_y_overflows", "dominance_pixel_not_a_cell", "dominance_map_not_a_cell",
    "truth_of_another_role", "truth_cut_short", "truth_key_repeated", "dominance_row_signed_and_spaced",
    "dominance_empty_line", "truth_ue_of_no_chunk", "manifest_faulty_cell_not_the_configs",
    "manifest_config_faulty_cell_not_the_manifests", "manifest_config_hash_zeroed", "manifest_n_chunks_not_the_configs",
    "manifest_files_without_reference", "manifest_files_with_an_extra_role", "manifest_without_config",
    "manifest_config_float_spelled_as_an_integer",
]


@pytest.mark.parametrize("name,damage", DAMAGED_SUITE_CASES, ids=DAMAGED_SUITE_IDS)
def test_damaged_suite_is_data_error(tmp_path, tiny_config_path, dataset_dir, capsys, name, damage):
    data = tmp_path / "suite"
    shutil.copytree(dataset_dir, data)
    damage(data / name)
    capsys.readouterr()
    assert main([
        "detect", "--config", str(tiny_config_path), "--data", str(data), "--out", str(tmp_path / "out"),
    ]) == 3
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("name,damage", DAMAGED_SUITE_CASES, ids=DAMAGED_SUITE_IDS)
def test_damaged_suite_is_data_error_under_jobs2(tmp_path, tiny_config_path, dataset_dir, capsys, name, damage):
    """A chunk a worker parses fails as one the parent parses: exit 3 naming the file, and no manifest."""
    data = tmp_path / "suite"
    shutil.copytree(dataset_dir, data)
    damage(data / name)
    capsys.readouterr()
    assert main([
        "detect", "--config", str(tiny_config_path), "--data", str(data), "--out", str(tmp_path / "out"),
        "--jobs", "2",
    ]) == 3
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out" / "detect_manifest.json").exists()


def test_written_suite_and_run_need_no_per_line_parser(dataset_dir, detect_dir):
    """The readers take exactly what the writers write: a format change that breaks the round trip fails here."""
    _, _, loaders = suite_module.load_suite(dataset_dir)
    roles = {role: [load() for load in chunks] for role, chunks in loaders.items()}
    assert sum(len(chunk.log) for chunks in roles.values() for chunk in chunks) > 0
    assert any(chunk.affected.any() for chunk in roles["problematic"])
    manifest, _cfg, outputs = storage.read_run(detect_dir)
    assert manifest["n_folds"] == len(outputs) == 72


def test_evaluate_reads_the_folds_detect_returned(tmp_path):
    """With 11 chunks, problematic_0x10 sorts before problematic_0x2 by name; read_run keeps detect's order."""
    config = tmp_path / "smoke11.json"
    config.write_text(json.dumps({**SMOKE, "n_chunks": 11}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "suite")]) == 0
    assert main(["detect", "--config", str(config), "--data", str(tmp_path / "suite"), "--out", str(tmp_path / "run"),
                 "--folds", "12"]) == 0
    _manifest, cfg, outputs = storage.read_run(tmp_path / "run")
    manifest, _, roles = suite_module.load_suite(tmp_path / "suite")
    written = []  # the writer gets each task's folds, grouped by test chunk
    records, aggregates = pipeline.run_detect(manifest, roles, cfg, written.extend, limit=12)
    by_pair = {out.pair: out for out in written}
    assert len(by_pair) == len(written) == 12
    assert [out.pair for out in outputs] == [record.pair for record in records]
    assert bits(outputs) == bits([by_pair[record.pair] for record in records])
    for method, back in pipeline.aggregate_folds(outputs, cfg).items():
        pooled = np.array([back.pooled_mean, back.pooled_sigma]).tobytes()
        assert pooled == np.array([aggregates[method].pooled_mean, aggregates[method].pooled_sigma]).tobytes()
        assert bits(back.mean_stages) == bits(aggregates[method].mean_stages), method


def test_cell_id_base_shifts_every_label_and_no_metric(tmp_path):
    """Cells numbered from 101 instead of 1: each abnormal and argmax cell is the base-1 run's plus 100,
    and every metric is the same, byte for byte."""
    runs = {}
    for base in (1, 101):
        config, suite, run = tmp_path / f"base{base}.json", tmp_path / f"suite{base}", tmp_path / f"run{base}"
        config.write_text(json.dumps({**SMOKE, "cell_id_base": base, "faulty_cell": base}))
        for argv in (
            ["simulate", "--config", str(config), "--out", str(suite)],
            ["detect", "--config", str(config), "--data", str(suite), "--out", str(run)],
            ["evaluate", "--out", str(run)],
        ):
            assert main(argv) == 0, argv
        runs[base] = run

    def pairings(base, method):
        return storage.read_labels(runs[base], method, storage.read_detect_manifest(runs[base])[0]["cell_ids"])[
            "pairings"]

    for method in pipeline.ALL_METHODS:
        one, shifted = (pairings(base, method) for base in (1, 101))
        assert one.keys() == shifted.keys() == {"problematic", "reference"}
        for pairing, labels in one.items():
            assert shifted[pairing]["argmax_cell"] == labels["argmax_cell"] + 100, (method, pairing)
            assert shifted[pairing]["abnormal_cells"] == [c + 100 for c in labels["abnormal_cells"]], (method, pairing)
    assert any(pairings(1, "combined")["problematic"]["abnormal_cells"])
    for name in ("metrics_summary.csv", "heuristic_distances.csv"):
        assert (runs[1] / "eval" / name).read_bytes() == (runs[101] / "eval" / name).read_bytes(), name
    aucs = [[line.split(",")[1] for line in (run / "eval" / "roc_auc.csv").read_text().splitlines()[1:]]
            for run in runs.values()]
    assert aucs[0] == aucs[1] and len(aucs[0]) > 1


def test_detect_frees_each_roles_truth_after_its_last_chunk(dataset_dir, tiny_config_path):
    """Once a role's last chunk is parsed, nothing holds its truth arrays: not roles, not the plan."""
    manifest, _, roles = suite_module.load_suite(dataset_dir)
    truth = {role: weakref.ref(loaders[0].args[3][0]) for role, loaders in roles.items()}  # load_chunk's truth
    alive = []

    def write_folds(outputs):
        for out in outputs:
            alive.append((out.pair.test_role, sorted(role for role, ref in truth.items() if ref() is not None)))

    pipeline.run_detect(manifest, roles, RunConfig.from_file(tiny_config_path), write_folds)
    assert alive[0] == ("problematic", ["problematic", "reference"])  # normal's went once the plan was built
    assert alive[36] == ("reference", ["reference"])  # problematic's went with its last task
    assert not roles and all(ref() is None for ref in truth.values())


def test_detect_frees_each_folds_rows_and_scores_once_its_task_returns(dataset_dir, tiny_config_path):
    """Once a task has returned, nothing holds the scores of its folds or the rows of its test chunk:
    detect keeps of a fold only its record, the pair and one array of its histograms."""
    manifest, _, roles = suite_module.load_suite(dataset_dir)
    refs = []  # per task, weak references to arrays its writer was given
    alive = []  # per task, how many arrays of the earlier tasks are still alive when it writes

    def write_folds(outputs):
        alive.append(sum(ref() is not None for task in refs for ref in task))
        refs.append([weakref.ref(array) for out in outputs for array in (out.train_scores, out.test_rows)])

    records, _ = pipeline.run_detect(manifest, roles, RunConfig.from_file(tiny_config_path), write_folds)
    assert alive == [0] * 12
    assert all(ref() is None for task in refs for ref in task)
    assert [vars(record).keys() for record in records] == [{"pair", "histograms"}] * 72


def _arrays(value):
    """Each numpy array in value, through dataclasses, dicts, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif is_dataclass(value):
        yield from _arrays(vars(value))
    elif isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


def test_detect_workers_send_back_no_row_or_score_array(dataset_dir, tiny_config_path):
    """Under --jobs 2 the records run_detect returns, and the aggregates built from them, hold only
    per-cell arrays: no fold's rows, scores or flags come back from a worker."""
    manifest, _, roles = suite_module.load_suite(dataset_dir)
    records, aggregates = pipeline.run_detect(
        manifest, roles, RunConfig.from_file(tiny_config_path), lambda outputs: None, jobs=2
    )
    assert [type(record) for record in records] == [pipeline.FoldRecord] * 72
    assert {record.histograms.shape for record in records} == {(len(pipeline.HISTOGRAM_STAGES), len(manifest["cell_ids"]))}
    assert {array.shape[-1] for array in _arrays((records, aggregates))} == {len(manifest["cell_ids"])}


def test_dominance_cell_outside_cell_ids_fails_before_the_run_is_touched(tmp_path, tiny_config_path, dataset_dir,
                                                                          detect_dir, capsys):
    """A map naming cell 999 exits 3 naming the map and the cell, and leaves the earlier run in --out as it was."""
    data, run = tmp_path / "suite", tmp_path / "run"
    shutil.copytree(dataset_dir, data)
    shutil.copytree(detect_dir, run)
    _edit_line(data / "dominance_reference.csv", 5, lambda row: row.rpartition(",")[0] + ",999")
    capsys.readouterr()
    assert main(["detect", "--config", str(tiny_config_path), "--data", str(data), "--out", str(run)]) == 3
    err = capsys.readouterr().err
    assert str(data / "dominance_reference.csv") in err and "cell 999 " in err
    assert sorted(p.relative_to(run) for p in run.rglob("*")) == sorted(p.relative_to(detect_dir)
                                                                       for p in detect_dir.rglob("*"))


def test_amplify_false_config(tmp_path, dataset_dir):
    config, out = tmp_path / "noamp.json", tmp_path / "noamp"
    config.write_text(json.dumps({**TINY_CONFIG, "amplify": False}))
    assert main([
        "detect", "--config", str(config), "--data", str(dataset_dir), "--out", str(out), "--folds", "4",
    ]) == 0
    manifest = json.loads((out / "detect_manifest.json").read_text())
    assert manifest["config"]["amplify"] is False
    # the histogram CSV shows the stage the labels were computed on
    for method in ("subcall", "gram", "symmetry", "target", "combined"):
        labels = json.loads((out / "aggregate" / f"labels_{method}.json").read_text())
        for pairing, entry in labels["pairings"].items():
            with open(out / "aggregate" / f"histogram_{method}_{pairing}.csv", newline="") as fh:
                column = {r["cell_id"]: float(r["normalized"]) for r in csv.DictReader(fh)}
            assert column == entry["mean_scores"]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: lines[:5] + lines[6:], "every pixel"),                # a pixel missing
        (lambda lines: lines[:5] + ["4,0,1.5"] + lines[6:], "malformed"),    # a non-integer row
        (lambda lines: lines[:1] + lines[2:3] + lines[1:2] + lines[3:], "row-major"),
        (lambda lines: lines + ["# comment"], "malformed"),
        (lambda lines: [" " + lines[0]] + lines[1:], "header must be"),
    ],
    ids=["missing_pixel", "non_integer_row", "rows_swapped", "trailing_comment", "header_leading_space"],
)
def test_bad_dominance_map_is_data_error(tmp_path, tiny_config_path, dataset_dir, capsys, edit, message):
    data = tmp_path / "suite"
    shutil.copytree(dataset_dir, data)
    path = data / "dominance_normal.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert main([
        "detect", "--config", str(tiny_config_path), "--data", str(data), "--out", str(tmp_path / "out"),
    ]) == 3
    err = capsys.readouterr().err
    assert "dominance_normal.csv" in err and message in err


def test_closed_stdout_ends_quietly_with_the_run_written(tmp_path, tiny_config_path, dataset_dir, detect_dir):
    """`sleepscan ... | head -1`: a reader gone before the summary leaves no traceback and the unpiped run."""
    env = {**os.environ, "PYTHONPATH": str(Path(sleepscan.__file__).parents[1])}
    run = tmp_path / "run"
    for argv in (
        ["detect", "--config", str(tiny_config_path), "--data", str(dataset_dir), "--out", str(run)],
        ["report", "--out", str(run)],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails as on a closed pipe
        try:
            result = subprocess.run(
                [sys.executable, "-m", "sleepscan.cli", *argv], stdout=write_end, stderr=subprocess.PIPE,
                env=env, text=True,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in result.stderr
        assert result.returncode == 141, result.stderr
    detect_parts = ("folds", "aggregate", "detect_manifest.json")
    assert tree_digest(run, detect_parts) == tree_digest(detect_dir, detect_parts)
