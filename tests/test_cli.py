import csv
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import sleepscan
from sleepscan import pipeline, storage
from sleepscan.cli import main
from sleepscan.config import RunConfig
from sleepscan.simgen import suite as suite_module
from test_golden import tree_digest

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
    """scipy is a test oracle only: no command may import it."""
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps(
        {"ues_per_cell": 3, "duration_steps": 800, "map_resolution_m": 10.0, "knn_k": 5, "master_seed": 42}
    ))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from sleepscan.cli import main\n"
        "for argv in (['simulate', '--config', 'smoke.json', '--out', 'suite'],\n"
        "             ['detect', '--config', 'smoke.json', '--data', 'suite', '--out', 'run', '--folds', '2'],\n"
        "             ['evaluate', '--out', 'run'], ['report', '--out', 'run']):\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'{argv[0]} failed')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sleepscan.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "suite" / "manifest.json").exists()


def test_simulate_missing_parent_is_data_error(tiny_config_path, capsys):
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
    bad.write_text(json.dumps({"knn_k": "5"}))  # a TypeError traceback before
    capsys.readouterr()
    assert main(["detect", "--config", str(bad), "--data", str(tmp_path), "--out", str(tmp_path / "r")]) == 2
    assert "configuration error: knn_k must be an integer" in capsys.readouterr().err


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


def test_evaluate_without_detect_is_data_error(tmp_path):
    assert main(["evaluate", "--out", str(tmp_path / "empty")]) == 3


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
         "scores_train_overflows", "histograms_value_overflows", "summary_overflows"],
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
]
DAMAGED_SUITE_IDS = [
    "truth_not_json", "truth_without_event_index", "manifest_not_json", "manifest_without_grid",
    "manifest_adjacency_key_not_int", "manifest_resolution_zero", "manifest_faulty_cell_not_int",
    "missing_chunk", "missing_truth", "manifest_files_without_normal", "manifest_truth_name_not_a_string",
    "manifest_chunk_name_dot", "manifest_not_utf8", "dominance_not_utf8", "chunk_not_utf8", "truth_not_utf8",
    "manifest_cell_ids_descending", "manifest_adjacency_neighbor_not_a_cell",
    "manifest_adjacency_key_not_a_cell", "problematic_chunk_bad_line", "problematic_chunk_x_overflows",
    "normal_chunk_y_overflows",
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
    _, loaders = suite_module.load_suite(dataset_dir)
    roles = {role: [load() for load in chunks] for role, chunks in loaders.items()}
    assert sum(len(chunk.log) for chunks in roles.values() for chunk in chunks) > 0
    assert any(chunk.affected.any() for chunk in roles["problematic"])
    manifest, _cfg, outputs = storage.read_run(detect_dir)
    assert manifest["n_folds"] == len(outputs) == 72


def test_detect_frees_each_roles_truth_after_its_last_chunk(dataset_dir, tiny_config_path):
    """Once a role's last chunk is parsed, nothing holds its truth arrays: not roles, not the plan."""
    manifest, roles = suite_module.load_suite(dataset_dir)
    truth = {role: weakref.ref(loaders[0].args[3][0]) for role, loaders in roles.items()}  # load_chunk's truth
    alive = []

    def write_fold(out):
        alive.append((out.pair.test_role, sorted(role for role, ref in truth.items() if ref() is not None)))

    pipeline.run_detect(manifest, roles, RunConfig.from_file(tiny_config_path), write_fold=write_fold)
    assert alive[0] == ("problematic", ["problematic", "reference"])  # normal's went once the plan was built
    assert alive[36] == ("reference", ["reference"])  # problematic's went with its last task
    assert not roles and all(ref() is None for ref in truth.values())


def test_no_amplify_flag(tmp_path, tiny_config_path, dataset_dir):
    out = tmp_path / "noamp"
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out), "--folds", "4", "--no-amplify",
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


def test_method_choice_2gram_maps_to_gram(tmp_path, tiny_config_path, dataset_dir):
    out = tmp_path / "m2g"
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out), "--folds", "2", "--method", "2gram",
    ]) == 0
    agg = out / "aggregate"
    assert (agg / "labels_gram.json").exists()
    assert not (agg / "labels_subcall.json").exists()
