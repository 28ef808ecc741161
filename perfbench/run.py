#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `sleepscan simulate -> detect -> evaluate`.

    python3 perfbench/run.py --workload default --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, summary tables

Run from the root of a source checkout; the program is imported from
`src/` of the same checkout and nothing is built or installed.

Each run uses three suites, with master seeds seed, seed + 1000 and
seed + 2000 (workloads.py), because the work in one suite varies by up
to a fifth with its seed.

--trace 0  Runs the shipped CLI in child processes, as a user would.
           Set-up: `simulate` once per suite (`setup_s` is the median).
           Then, while another whole cycle fits in `--seconds` (at least
           one runs), a cycle of serial `detect`, `detect --jobs 2` and
           `evaluate` on each suite.  A metric is the median over the
           cycles of each suite, averaged over the suites.
--trace 1  Runs the same commands on the first suite in this process,
           with every layer's public functions wrapped (tracing.py), and
           reports per-layer times, counts, workload shape, self times
           and the traced against untraced detect time.

Every CLI invocation is one operation.  It fails on a non-zero exit or a
failed output check: repeated runs must give byte-identical outputs,
`--jobs 2` must equal serial detect, and at the pinned seed (42) the
suite, run directory and combined labels must match pinned.json.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, config_for, suite_seeds  # noqa: E402

OP_TIMEOUT_S = 150.0
IMPORT_PROBES = 3
EVALUATE_PROBES = 3
PINNED = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
BENCH_WORKLOADS = ("default", "dense", "wide")

END_TO_END_UNITS = {
    "setup_s": "s",
    "detect_s": "s",
    "detect_jobs2_s": "s",
    "detect_peak_rss_mb": "MB",
    "f_score_combined": "ratio",
    "auc_mean": "ratio",
}
# Sampled on every detect round.  evaluate_s is printed here but reported
# by the traced run: mostly interpreter start-up, it varies by more than a
# tenth between runs.
ROUND_METRICS = ("detect_s", "detect_jobs2_s", "evaluate_s", "detect_peak_rss_mb", "f_score_combined", "auc_mean")
RUN_PARTS = ("folds", "aggregate", "detect_manifest.json", "eval")
DETECT_PARTS = ("folds", "aggregate", "detect_manifest.json")


# ---------------------------------------------------------------- helpers


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def tree_digest(base: Path, parts) -> str:
    """sha256 over (relative path, file sha256) of every file under parts."""
    h = hashlib.sha256()
    for part in parts:
        path = base / part
        if path.is_dir():
            files = sorted(f for f in path.rglob("*") if f.is_file())
        elif path.is_file():
            files = [path]
        else:
            h.update(f"missing:{part}\0".encode())
            continue
        for f in files:
            h.update(f.relative_to(base).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def iqr_share(values) -> float:
    """(third quartile - first quartile) / median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def tail_value(values) -> float:
    """The highest percentile with at least 10 values beyond it (the maximum below 11 values)."""
    vals = sorted(values)
    return vals[len(vals) - 11] if len(vals) >= 11 else vals[-1]


@dataclass
class OpLog:
    """CLI invocations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {why}")
            print(f"FAILED {name}: {why}", file=sys.stderr)
        return ok


@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def run_cli(args, cwd: Path, log_name: str) -> ChildResult:
    """Run `python -m sleepscan.cli *args` in cwd; wall time and peak RSS.

    The child runs in its own process group, which is killed (with any
    --jobs workers) on timeout or if this process is interrupted.
    """
    with open(cwd / f"{log_name}.out", "w") as out, open(cwd / f"{log_name}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "sleepscan.cli", *args],
            cwd=cwd, env=child_env(), stdout=out, stderr=err, start_new_session=True,
        )
        pid = 0
        try:
            while not pid and time.perf_counter() - start < OP_TIMEOUT_S:
                time.sleep(0.002)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def environment_stamp(seed: int) -> dict:
    """Versions, BLAS, k-NN backend, cores, seed.  Also warms the bytecode cache."""
    probe = (
        "import json, platform, numpy, scipy\n"
        "import sleepscan.cli\n"
        "try:\n"
        "    from sleepscan.kernels import backend\n"
        "except ImportError:\n"
        "    backend = lambda: 'numpy (single kernel)'\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\","
        " 'backend': backend(), 'sleepscan': sleepscan.cli.__file__}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail_setup(f"cannot import sleepscan from {SRC}:\n{proc.stderr}")
    stamp = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(stamp.pop("sleepscan")).resolve().is_relative_to(SRC.resolve()):
        fail_setup(f"sleepscan was not imported from {SRC}")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    sources = sorted((SRC / "sleepscan").rglob("*.py"))
    stamp.update(
        commit=commit,
        src_sha256=tree_digest(SRC, [p.relative_to(SRC) for p in sources])[:16],
        nproc=len(os.sched_getaffinity(0)),
        seed=seed,
    )
    return stamp


def fresh_workdir(workload: str, seed: int, trace: int) -> Path:
    """Work directory with one <suite seed>/config.json per suite of the run."""
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    for s in suite_seeds(seed)[: 1 if trace else None]:
        (work / str(s)).mkdir(parents=True)
        (work / str(s) / "config.json").write_text(json.dumps(config_for(workload, s), indent=2) + "\n")
    return work


def expected_folds(workload: str) -> int:
    return 2 * WORKLOADS[workload].get("n_chunks", 6) ** 2


def fold_count(run_dir: Path) -> int:
    folds = run_dir / "folds"
    return sum(1 for p in folds.iterdir() if p.is_dir()) if folds.is_dir() else 0


def read_quality(run_dir: Path) -> dict | None:
    """f_score_combined and auc_mean from a run's eval/ directory, None if absent."""
    eval_dir = run_dir / "eval"
    try:
        metrics = json.loads((eval_dir / "metrics_combined.json").read_text())
        auc = [float(line.split(",", 1)[1]) for line in (eval_dir / "roc_auc.csv").read_text().splitlines()
               if line.startswith("mean,")]
        return {"f_score_combined": float(metrics["f_score"]), "auc_mean": auc[0]}
    except (OSError, KeyError, ValueError, IndexError):
        return None


class DigestCheck:
    """Outputs must repeat byte for byte, and match pinned.json at the pinned seed."""

    def __init__(self, workload: str, seed: int):
        self.pin = PINNED.get(workload, {}) if seed == DEFAULT_SEED else {}
        self.seen: dict[str, dict[str, str]] = {}

    def check(self, suite_seed: int, kind: str, digest: str) -> tuple[bool, str]:
        seen = self.seen.setdefault(str(suite_seed), {})
        first = seen.setdefault(kind, digest)
        if digest != first:
            return False, f"{kind} digest {digest[:12]} differs from the first run's {first[:12]}"
        pinned = self.pin.get(str(suite_seed), {}).get(kind)
        if pinned is not None and digest != pinned:
            return False, f"{kind} digest {digest[:12]} differs from pinned {pinned[:12]}"
        return True, ""


def check_run(run_dir: Path, seed: int, checks: DigestCheck) -> tuple[bool, str]:
    """Run directory and combined labels repeat, and match the pin."""
    ok, why = checks.check(seed, "run", tree_digest(run_dir, RUN_PARTS))
    if ok:
        ok, why = checks.check(seed, "labels_combined", file_digest(run_dir / "aggregate" / "labels_combined.json"))
    return ok, why


def suite_digest(suite: Path) -> str:
    return tree_digest(suite, sorted(p.name for p in suite.iterdir()))


# ------------------------------------------------------------- trace 0


def measure(workload: str, seed: int, seconds: float) -> tuple[OpLog, dict, dict, dict]:
    """CLI runs in child processes; returns ops, metrics, raw samples and digests.

    Set-up simulates each of the run's suites once.  The window then runs
    whole cycles over the suites (detect, detect --jobs 2, evaluate on
    each) while another cycle fits in --seconds; at least one cycle runs.
    A metric is the per-suite median over cycles, averaged over suites.
    """
    work = fresh_workdir(workload, seed, 0)
    ops = OpLog()
    checks = DigestCheck(workload, seed)
    setup: list[float] = []
    per_suite = {s: {name: [] for name in ROUND_METRICS} for s in suite_seeds(seed)}

    for s in suite_seeds(seed):
        res = run_cli(["simulate", "--config", "config.json", "--out", "suite"], work / str(s), "simulate")
        ok, why = res.exit_code == 0, f"exit code {res.exit_code}"
        if ok:
            ok, why = checks.check(s, "suite", suite_digest(work / str(s) / "suite"))
        if ops.record(f"simulate[{s}]", ok, why):
            setup.append(res.wall_s)
    if ops.failures:
        return ops, {}, {"setup_s": setup}, checks.seen

    window_start = time.perf_counter()
    cycles, last_cycle = 0, 0.0
    while cycles == 0 or time.perf_counter() - window_start + last_cycle <= seconds:
        cycle_start = time.perf_counter()
        for s, samples in per_suite.items():
            detect_round(workload, work / str(s), s, f"{cycles}", ops, checks, samples)
        cycles += 1
        last_cycle = time.perf_counter() - cycle_start

    samples = {"setup_s": setup}
    metrics = {"setup_s": statistics.median(setup)}
    for name in ROUND_METRICS:
        samples[name] = [x for v in per_suite.values() for x in v[name]]
        if all(v[name] for v in per_suite.values()):
            metrics[name] = statistics.fmean(statistics.median(v[name]) for v in per_suite.values())
    if not ops.failures:
        shutil.rmtree(work, ignore_errors=True)
    return ops, metrics, samples, checks.seen


def detect_round(workload: str, work: Path, s: int, tag: str, ops: OpLog, checks: DigestCheck, samples) -> None:
    """Serial detect, detect --jobs 2 and evaluate on one suite, checked."""
    detect_args = ["detect", "--config", "config.json", "--data", "suite"]
    run_dir, par_dir = work / "run", work / "run_jobs2"
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(par_dir, ignore_errors=True)

    res = run_cli([*detect_args, "--out", run_dir.name], work, f"detect{tag}")
    ok, why = res.exit_code == 0, f"exit code {res.exit_code}"
    if ok and fold_count(run_dir) != expected_folds(workload):
        ok, why = False, f"{fold_count(run_dir)} fold directories, expected {expected_folds(workload)}"
    serial = tree_digest(run_dir, DETECT_PARTS) if ok else ""
    if ok:
        ok, why = checks.check(s, "detect", serial)
    if ops.record(f"detect[{s}/{tag}]", ok, why):
        samples["detect_s"].append(res.wall_s)
        samples["detect_peak_rss_mb"].append(res.peak_rss_mb)

    res = run_cli([*detect_args, "--jobs", "2", "--out", par_dir.name], work, f"jobs2_{tag}")
    ok, why = res.exit_code == 0, f"exit code {res.exit_code}"
    if ok and tree_digest(par_dir, DETECT_PARTS) != serial:
        ok, why = False, "--jobs 2 output differs from serial detect"
    if ops.record(f"detect_jobs2[{s}/{tag}]", ok, why):
        samples["detect_jobs2_s"].append(res.wall_s)
    shutil.rmtree(par_dir, ignore_errors=True)

    res = run_cli(["evaluate", "--out", run_dir.name], work, f"evaluate{tag}")
    ok, why = res.exit_code == 0, f"exit code {res.exit_code}"
    if ok:
        ok, why = check_run(run_dir, s, checks)
    quality = read_quality(run_dir) if ok else None
    if ok and not (quality and all(v > 0 for v in quality.values())):
        ok, why = False, f"quality metrics missing or zero: {quality}"
    if ops.record(f"evaluate[{s}/{tag}]", ok, why):
        samples["evaluate_s"].append(res.wall_s)
        for key, value in quality.items():
            samples[key].append(value)


# ------------------------------------------------------------- trace 1


def import_sleepscan():
    sys.path.insert(0, str(SRC))
    import sleepscan.cli

    if not Path(sleepscan.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        fail_setup(f"sleepscan was not imported from {SRC}")
    return sleepscan.cli


def cold_import_s() -> float:
    probe = "import time; t = time.perf_counter(); import sleepscan.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def call_cli(cli, argv, ops: OpLog, name: str, tracer=None, check=None) -> tuple[bool, float]:
    """cli.main(argv) in this process, optionally traced, then check(); (ok, wall seconds)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        why = f"exit code {code}"
    except Exception:  # an operation that raises is a failed operation
        code, why = -1, traceback.format_exc()
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    ok = code == 0
    if ok and check is not None:
        ok, why = check()
    return ops.record(name, ok, why), wall


def trace_run(workload: str, seed: int, seconds: float) -> tuple[OpLog, dict, dict]:
    """Traced simulate, detect rounds and evaluate; per-layer metrics."""
    from tracing import Tracer

    work = fresh_workdir(workload, seed, 1) / str(seed)
    metrics: dict[str, float] = {"cli.import_s": cold_import_s()}
    cli = import_sleepscan()
    ops = OpLog()
    checks = DigestCheck(workload, seed)
    os.chdir(work)  # relative paths keep detect_manifest.json identical to a CLI run

    sim = Tracer()
    ok, _ = call_cli(cli, ["simulate", "--config", "config.json", "--out", "suite"], ops, "simulate", sim,
                     check=lambda: checks.check(seed, "suite", suite_digest(work / "suite")))
    if not ok:
        return ops, metrics, checks.seen
    if sim.missing:
        print(f"not traced, absent from the program (their metrics read 0): {sim.missing}")

    detect_args = ["detect", "--config", "config.json", "--data", "suite"]
    rounds: list[dict] = []
    untraced: list[float] = []
    det = None
    window_start = time.perf_counter()
    last_round = 0.0
    while not rounds or time.perf_counter() - window_start + last_round <= seconds:
        round_start = time.perf_counter()
        for name in ("run_untraced", "run"):
            shutil.rmtree(work / name, ignore_errors=True)
        detect_check = {
            name: (lambda name=name: checks.check(seed, "detect", tree_digest(work / name, DETECT_PARTS)))
            for name in ("run_untraced", "run")
        }
        ok_u, wall_u = call_cli(cli, [*detect_args, "--out", "run_untraced"], ops, "detect[untraced]",
                                check=detect_check["run_untraced"])
        det = Tracer()
        ok_t, wall_t = call_cli(cli, [*detect_args, "--out", "run"], ops, "detect[traced]", det,
                                check=detect_check["run"])
        if not (ok_u and ok_t):
            return ops, metrics, checks.seen
        untraced.append(wall_u)
        rounds.append(detect_metrics(det, wall_t, work))
        last_round = time.perf_counter() - round_start

    ev = Tracer()
    call_cli(cli, ["evaluate", "--out", "run"], ops, "evaluate", ev, check=lambda: check_run(work / "run", seed, checks))
    # evaluate_s: wall time of the CLI as a user runs it, import included
    evaluate_s = []
    for i in range(EVALUATE_PROBES):
        res = run_cli(["evaluate", "--out", "run"], work, f"evaluate{i}")
        ok, why = res.exit_code == 0, f"exit code {res.exit_code}"
        if ok:
            ok, why = check_run(work / "run", seed, checks)
        if ops.record(f"evaluate[cli {i}]", ok, why):
            evaluate_s.append(res.wall_s)
    if evaluate_s:
        metrics["evaluate_s"] = statistics.median(evaluate_s)

    for key in rounds[0]:
        metrics[key] = statistics.median(r[key] for r in rounds)
    metrics["trace.detect_untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_ratio"] = metrics["trace.detect_traced_s"] / metrics["trace.detect_untraced_s"]
    metrics.update(simulate_metrics(sim))
    metrics.update(evaluate_metrics(ev, work))
    for layer in sim.layer_self_times():
        metrics[f"self.{layer}_s"] = sum(t.layer_self_times()[layer] for t in (sim, det, ev))
    os.chdir(ROOT)
    if not ops.failures:
        shutil.rmtree(work.parent, ignore_errors=True)
    return ops, metrics, checks.seen


def simulate_metrics(t) -> dict:
    records = t.records_per_role
    return {
        "simgen.shadowing_s": t.total("simgen.shadowing"),
        "simgen.radio_map_s": t.total("simgen.radio_map"),
        "simgen.simulate_s": t.total("simgen.simulate"),
        "simgen.write_suite_s": t.total("simgen.write_suite"),
        "simgen.records": sum(records.values()),
        **{f"shape.records_{role}": records.get(role, 0) for role in ("normal", "problematic", "reference")},
    }


def median0(values) -> float:
    """Median, or 0 when a span or count is absent from the program."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio0(num: float, den: float) -> float:
    return num / den if den else 0.0


def detect_metrics(t, wall: float, work: Path) -> dict:
    import numpy as np

    folds = t.named("pipeline.run_fold")
    fold_times = [s.duration for s in folds]
    run_fold_s = sum(fold_times)
    outs = t.fold_outputs
    rows = sum(len(q) for q in t.knn_queries)
    distinct = sum(len(np.unique(q, axis=0)) for q in t.knn_queries)
    return {
        "trace.detect_traced_s": wall,
        "simgen.load_suite_s": t.total("simgen.load_suite"),
        "mdtlog.read_records_s": t.total("mdtlog.read_records"),
        "simgen.load_dominance_s": t.total("simgen.load_dominance"),
        "simgen.load_truth_s": t.total("simgen.load_truth"),
        "mdtlog.group_calls_s": t.total("mdtlog.group_calls"),
        "mdtlog.group_calls_calls": t.counts.get("mdtlog.group_calls_calls", 0),
        "pipeline.fold_inputs_s": t.total("pipeline.fold_inputs"),
        "featurize.windows_s": t.total("featurize.windows"),
        "featurize.vocab_s": t.total("featurize.vocab"),
        "featurize.matrix_s": t.total("featurize.matrix"),
        "featurize.subcalls_train": sum(len(o.train_rows) for o in outs),
        "featurize.subcalls_test": sum(len(o.test_rows) for o in outs),
        "embed.fit_s": t.total("embed.fit"),
        "embed.project_s": t.total("embed.project"),
        "embed.d": median0(o.selected_components for o in outs),
        "detect.knn_s": t.total("detect.knn"),
        "detect.knn_pairs": t.counts.get("detect.knn_pairs", 0),
        "detect.distinct_row_share": ratio0(distinct, rows),
        "detect.threshold_s": t.total("detect.threshold"),
        "localize.subcall_s": t.total("localize.subcall"),
        "localize.gram_s": t.total("localize.gram"),
        "localize.symmetry_s": t.total("localize.symmetry"),
        "localize.target_s": t.total("localize.target"),
        "localize.amplify_s": t.total("localize.amplify"),
        "localize.cell_at_calls": t.counts.get("localize.cell_at_calls", 0),
        "localize.cell_at_points": t.counts.get("localize.cell_at_points", 0),
        "pipeline.run_fold_s": run_fold_s,
        "pipeline.run_fold_median_s": median0(fold_times),
        "pipeline.run_fold_tail_s": tail_value(fold_times) if fold_times else 0.0,
        "pipeline.run_fold_self_s": sum(s.self_time for s in folds),
        "pipeline.run_fold_coverage": ratio0(sum(s.child_time for s in folds), run_fold_s),
        "pipeline.aggregate_s": t.total("pipeline.aggregate"),
        "storage.write_fold_s": t.total("storage.write_fold"),
        "storage.write_aggregate_s": t.total("storage.write_aggregate"),
        "storage.bytes_written": tree_bytes(work / "run"),
        "shape.folds": len(outs),
        "shape.train_subcalls_per_fold": median0(len(o.train_rows) for o in outs),
        "shape.test_subcalls_per_fold": median0(len(o.test_rows) for o in outs),
        "shape.distinct_rows": distinct,
        "shape.vocab_columns": median0(t.vocab_sizes),
        "shape.anomalous_test_rows": int(sum(int(o.test_anomalous.sum()) for o in outs)),
    }


def evaluate_metrics(t, work: Path) -> dict:
    return {
        "storage.read_fold_s": t.total("storage.read_fold"),
        "storage.bytes_read": tree_bytes(work / "suite") + tree_bytes(work / "run" / "folds"),
        "evaluate.confusion_s": t.total("evaluate.count_confusion", "evaluate.confusion_metrics"),
        "evaluate.roc_s": t.total("evaluate.roc"),
        "evaluate.heuristic_s": t.total("evaluate.heuristic"),
    }


# ---------------------------------------------------------------- report


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_coverage", "_ratio")):
        return "ratio"
    if name.startswith("storage.bytes"):
        return "bytes"
    return "count"


def print_table(workload: str, metrics: dict[str, float], samples: dict[str, list[float]], ops: OpLog) -> None:
    """One line per metric: unit, raw sample count, reported value, raw range and IQR / median."""
    print(f"\n== {workload}: {'metric':<33} {'unit':>6} {'n':>3} {'value':>13} {'min':>11} {'max':>11} {'IQR/med':>8}")
    for name in dict.fromkeys([*metrics, *samples]):
        raw = samples.get(name) or [metrics[name]]
        value = f"{metrics[name]:.6g}" if name in metrics else "(none)"
        spread = iqr_share(raw)
        print(
            f"   {name:<42} {unit_of(name):>6} {len(raw):>3} {value:>13} "
            f"{min(raw):>11.5g} {max(raw):>11.5g} {spread:>8.3f}"
        )
    rate = len(ops.failures) / max(ops.attempted, 1)
    print(f"   {'error_rate':<42} {'ratio':>6} {ops.attempted:>3} {rate:>13.6g}")


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Print the stamp, table and digests; return ops and the metrics the JSON line reports."""
    stamp = environment_stamp(seed)
    print(f"environment: {json.dumps(stamp, sort_keys=True)}")
    if trace:
        ops, metrics, digests = trace_run(workload, seed, seconds)
        samples = {}
    else:
        ops, metrics, samples, digests = measure(workload, seed, seconds)
    print_table(workload, metrics, samples, ops)
    print(f"digests ({workload}, seed {seed}): {json.dumps(digests, sort_keys=True)}")
    if not trace:
        missing = [k for k in END_TO_END_UNITS if k not in metrics]
        if missing:
            ops.failures.append(f"no sample for {missing}")
        metrics = {k: v for k, v in metrics.items() if k in END_TO_END_UNITS}
    return ops, metrics


def result_json(ops: OpLog, metrics: dict, prefix: str = "") -> dict:
    return {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {prefix + k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so children are stopped
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sleepscan" / "cli.py").is_file():
        fail_setup(f"no sleepscan sources under {SRC}; run from a source checkout")

    if args.workload != "all":
        ops, metrics = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result_json(ops, metrics)))
        return 0

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in BENCH_WORKLOADS:
        ops, metrics = run_workload(workload, args.seed, args.seconds, args.trace)
        part = result_json(ops, metrics, prefix=f"{workload}.")
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update(part["metrics"])
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
