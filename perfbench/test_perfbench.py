"""The benchmark's own test, on the tiny `smoke` workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs the whole harness, the traced run included, in seconds, and checks
that it reports exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_end_to_end():
    check_metrics(last_json(run_bench("--workload", "smoke", "--seed", "42", "--seconds", "1", "--trace", "0")),
                  SPEC["end_to_end"])


def test_smoke_traced():
    check_metrics(last_json(run_bench("--workload", "smoke", "--seed", "42", "--seconds", "1", "--trace", "1")),
                  SPEC["per_layer"])


def test_pinned_outputs_exist_for_every_workload():
    pinned = json.loads((HERE / "pinned.json").read_text())
    for workload in [w["name"] for w in SPEC["workloads"]] + ["smoke"]:
        for kind in ("suite", "run", "labels_combined"):
            assert all(kind in entry for entry in pinned[workload].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "default", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import sleepscan.cli  # noqa: F401
    from sleepscan import detect, pipeline
    from sleepscan.featurize import NGramVocabulary
    from sleepscan.simgen.dominance import DominanceMap
    from tracing import Tracer

    before = (pipeline.run_fold, detect.knn_scores, NGramVocabulary.__dict__["from_subcalls"],
              DominanceMap.__dict__["cell_at"])
    tracer = Tracer()
    tracer.install()
    assert pipeline.run_fold is not before[0]
    tracer.uninstall()
    after = (pipeline.run_fold, detect.knn_scores, NGramVocabulary.__dict__["from_subcalls"],
             DominanceMap.__dict__["cell_at"])
    assert all(a is b for a, b in zip(before, after))
