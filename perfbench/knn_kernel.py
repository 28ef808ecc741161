#!/usr/bin/env python3
"""Time the k-NN scoring kernel on the embedded rows of real folds.

The inputs are the train and test rows that `pipeline.run_fold` hands to
`detect.knn_scores` on the first fold of the `default` and `dense`
workloads (seed 42), so they carry the duplicate rows real folds have.
Every backend that is built must return bit-identical scores.

    python3 perfbench/knn_kernel.py [--repeats 3]

Operation count and bytes are those of the numpy kernel: per (train,
query) pair, 3 flops per dimension for the squared distance, and the
(query block x train) float64 distance matrix is read and written once
per dimension plus once for the partition.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE.parent / ".perfbench_work" / "knn_kernel"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, config_for  # noqa: E402

from sleepscan import cli, pipeline  # noqa: E402
from sleepscan.config import RunConfig  # noqa: E402
from sleepscan.kernels import _knn_py  # noqa: E402
from sleepscan.simgen import load_suite  # noqa: E402

try:
    from sleepscan.kernels import _knn_c
except ImportError:
    _knn_c = None


def fold_rows(workload: str):
    """(config, train rows, test rows) of the workload's first fold."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(config_for(workload, DEFAULT_SEED)))
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["simulate", "--config", str(config), "--out", str(work / "suite")]) != 0:
            raise SystemExit(f"simulate failed for {workload}")
    cfg = RunConfig.from_file(config)
    manifest, _grid, roles = load_suite(work / "suite")
    fold = pipeline.fold_inputs_from_suite(manifest, roles, cfg, limit=1)[0]
    shutil.rmtree(work)
    tracer = Tracer()
    tracer.install()
    try:
        pipeline.run_fold(fold, cfg)
    finally:
        tracer.uninstall()
    train, test = tracer.knn_queries
    return cfg, train, test


def best_of(fn, repeats):
    best, result = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if _knn_c is None:
        print("compiled kernel not built; timing the numpy kernel only")

    header = (
        f"{'fold':>18} {'n_train':>7} {'n_query':>7} {'dim':>3} {'k':>3} {'distinct':>8} "
        f"{'Mflop':>8} {'MB':>8} {'numpy':>9} {'cython':>9}"
    )
    print(header)
    print("-" * len(header))
    for workload in ("default", "dense"):
        cfg, train, test = fold_rows(workload)
        for label, query, exclude_self in (("train", train, True), ("test", test, False)):
            n, q, dim = len(train), len(query), train.shape[1]
            pairs = n * q
            mflop = 3 * dim * pairs / 1e6
            mbytes = 8 * pairs * (2 * dim + 2) / 1e6
            distinct = len(np.unique(query, axis=0))
            t_py, r_py = best_of(lambda: _knn_py.knn_sum_distances(train, query, cfg.knn_k, exclude_self), args.repeats)
            cython = "-"
            if _knn_c is not None:
                t_c, r_c = best_of(lambda: _knn_c.knn_sum_distances(train, query, cfg.knn_k, exclude_self), args.repeats)
                if not np.array_equal(r_py, r_c):
                    raise SystemExit(f"{workload}/{label}: backends diverged")
                cython = f"{t_c * 1e3:.2f}ms"
            print(
                f"{workload + '/' + label:>18} {n:>7} {q:>7} {dim:>3} {cfg.knn_k:>3} {distinct:>8} "
                f"{mflop:>8.1f} {mbytes:>8.1f} {t_py * 1e3:>7.2f}ms {cython:>9}"
            )


if __name__ == "__main__":
    main()
