import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sleepscan
from sleepscan import mdtlog, storage
from sleepscan.cli import main
from sleepscan.simgen import suite as suite_module

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


def _drop_target_rows(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith("target,")) + "\n")


def _drop_histogram_rows(path, prefix):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines if not line.startswith(prefix)) + "\n")


def _duplicate_line(path, index):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: index + 1] + lines[index:]) + "\n")


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
    ],
    ids=["manifest_not_json", "report_manifest_not_json", "manifest_without_faulty_cell",
         "fold_json_not_json", "scores_test_bad_row", "histograms_without_a_method",
         "labels_not_json", "labels_without_pairings", "scores_train_other_header",
         "histograms_long_row", "histograms_unknown_cell", "histograms_missing_stage",
         "histograms_missing_cell_row", "histograms_duplicate_row"],
)
def test_damaged_run_directory_is_data_error(tmp_path, detect_dir, capsys, command, name, damage):
    run = tmp_path / "run"
    shutil.copytree(detect_dir, run)
    damage(run / name)
    capsys.readouterr()
    assert main([command, "--out", str(run)]) == 3
    assert str(run / name) in capsys.readouterr().err


def _append(path, text):
    path.write_text(path.read_text() + text)


def _drop_key_on_line(path, lineno, key):
    lines = path.read_text().splitlines()
    doc = json.loads(lines[lineno - 1])
    del doc[key]
    lines[lineno - 1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "name,damage",
    [
        ("truth_normal.jsonl", lambda p: _append(p, "{bad")),
        ("truth_normal.jsonl", lambda p: _drop_key_on_line(p, 3, "event_index")),
        ("manifest.json", lambda p: p.write_text("{bad")),
        ("manifest.json", lambda p: _drop_key(p, "grid")),
        ("manifest.json", lambda p: _edit_json(p, lambda d: d["adjacency"].update(x=d["adjacency"].pop("1")))),
        ("manifest.json", lambda p: _edit_json(p, lambda d: d["grid"].update(resolution_m=0))),
        ("manifest.json", lambda p: _edit_json(p, lambda d: d.update(faulty_cell="z"))),
        ("normal_chunk2.jsonl", lambda p: p.unlink()),
        ("truth_reference.jsonl", lambda p: p.unlink()),
    ],
    ids=["truth_not_json", "truth_without_event_index", "manifest_not_json", "manifest_without_grid",
         "manifest_adjacency_key_not_int", "manifest_resolution_zero", "manifest_faulty_cell_not_int",
         "missing_chunk", "missing_truth"],
)
def test_damaged_suite_is_data_error(tmp_path, tiny_config_path, dataset_dir, capsys, name, damage):
    data = tmp_path / "suite"
    shutil.copytree(dataset_dir, data)
    damage(data / name)
    capsys.readouterr()
    assert main([
        "detect", "--config", str(tiny_config_path), "--data", str(data), "--out", str(tmp_path / "out"),
    ]) == 3
    assert name in capsys.readouterr().err


def test_written_suite_and_run_need_no_per_line_parser(dataset_dir, detect_dir, monkeypatch):
    """The writers' own output parses in one pass; a format change that needs the slow path fails here."""
    def per_line(path):
        raise AssertionError(f"{path} needed the per-line parser")

    monkeypatch.setattr(mdtlog, "_read_records_per_line", per_line)
    monkeypatch.setattr(suite_module, "_load_truth_per_line", per_line)
    _, _, roles = suite_module.load_suite(dataset_dir)
    assert sum(len(chunk.log) for role in roles.values() for chunk in role.chunks) > 0
    assert any(chunk.affected.any() for chunk in roles["problematic"].chunks)
    fold_dirs = storage.list_fold_dirs(detect_dir)
    assert len(fold_dirs) == 72
    for fold_dir in fold_dirs:
        storage.read_fold_output(fold_dir)


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
        (lambda lines: lines[:5] + lines[6:], "does not cover the grid"),    # a pixel missing
        (lambda lines: lines[:5] + ["4,0,1.5"] + lines[6:], "malformed"),    # a non-integer row
    ],
    ids=["missing_pixel", "non_integer_row"],
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


def test_method_choice_2gram_maps_to_gram(tmp_path, tiny_config_path, dataset_dir):
    out = tmp_path / "m2g"
    assert main([
        "detect", "--config", str(tiny_config_path),
        "--data", str(dataset_dir), "--out", str(out), "--folds", "2", "--method", "2gram",
    ]) == 0
    agg = out / "aggregate"
    assert (agg / "labels_gram.json").exists()
    assert not (agg / "labels_subcall.json").exists()
