"""Command-line interface: simulate | detect | evaluate | report.

Each command parses its arguments, calls the library and prints a
summary: `simgen.suite` simulates, writes and loads the suite,
`pipeline.run_detect` runs the folds, and `storage` reads and writes
every file of a run directory.  simulate's configuration is exactly its
`--config` file, or the defaults.  detect runs the configuration its
suite records; its `--config` may differ from that only in
`config.DETECTION_SETTINGS`, and any other difference is a
configuration error before `--out` is touched.  The other options are
paths (`--data`, `--out`) and how detect runs (`--folds`, `--jobs`).

Exit codes: 0 ok, 2 configuration error, 3 data error, 141 standard
output closed before the summary was printed (as a shell reports a
process that SIGPIPE ended).  A command prints only after its files
are written, so detect leaves a complete run directory even then.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import pipeline, storage
from .config import DETECTION_SETTINGS, RunConfig
from .errors import ConfigError, DataError
from .simgen.suite import generate_dataset_suite, load_suite, make_suite_dir, write_suite


def cmd_simulate(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    created = not os.path.exists(args.out)
    make_suite_dir(args.out)  # an unusable --out fails before the simulation, not after it
    try:
        suite = generate_dataset_suite(cfg)
    except BaseException as exc:
        if created:  # a failed simulation leaves no empty suite directory; an --out that existed stays
            os.rmdir(args.out)
        if isinstance(exc, MemoryError):  # numpy refuses an array of the map's pixels or of the UEs
            raise ConfigError(
                "the simulation does not fit in memory: map_resolution_m="
                f"{cfg.map_resolution_m}, map_half_extent_m={cfg.map_half_extent_m}, ues_per_cell={cfg.ues_per_cell}"
            ) from None
        raise
    manifest_path = write_suite(suite, args.out)
    counts = {role: len(data.records) for role, data in suite.roles.items()}
    print(f"wrote dataset suite to {args.out} (config {cfg.config_hash()[:12]})")
    print(f"records per role: {counts}")
    print(f"manifest: {manifest_path}")
    return 0


def _detect_config(cfg: RunConfig | None, suite: RunConfig) -> RunConfig:
    """The suite's configuration, or cfg if each of its settings but DETECTION_SETTINGS is the suite's."""
    if cfg is None:
        return suite
    mine, theirs = cfg.to_dict(), suite.to_dict()
    for key in mine:
        if key not in DETECTION_SETTINGS and mine[key] != theirs[key]:
            raise ConfigError(f"{key} is {mine[key]!r} in the config but {theirs[key]!r} in the suite; "
                              f"detect may change only {', '.join(DETECTION_SETTINGS)}")
    return cfg


def cmd_detect(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else None  # a bad file fails before the suite is read
    if args.folds is not None and args.folds < 1:  # no fold could be aggregated: fail before the run is cleared
        raise ConfigError(f"--folds must be >= 1, got {args.folds}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    manifest, suite_cfg, roles = load_suite(args.data)
    cfg = _detect_config(cfg, suite_cfg)
    cell_ids = cfg.layout().cell_ids
    write_folds = storage.start_run(args.out, cell_ids)
    folds, aggregates = pipeline.run_detect(manifest, roles, cfg, write_folds, limit=args.folds, jobs=args.jobs)
    storage.write_run(args.out, cfg, args.data, folds, aggregates)
    print(f"ran {len(folds)} folds (jobs={args.jobs})")
    for method, agg in aggregates.items():
        for pairing, labels in sorted(agg.labels.items()):
            means = agg.mean_stages[pairing][agg.stage]
            abnormal = [c for c, flag in zip(cell_ids, labels) if flag]
            print(f"{method}/{pairing}: argmax cell {cell_ids[int(np.argmax(means))]}, abnormal {abnormal}")
    return 0


def cmd_evaluate(args) -> int:
    manifest, cfg, outputs = storage.read_run(args.out)
    aggregates = pipeline.aggregate_folds(outputs, cfg)
    metrics, mean_auc = storage.write_eval(args.out, manifest, outputs, aggregates)
    print(f"metrics written to the eval directory of {args.out}")
    for method, m in metrics.items():
        print(f"  {method:9s} F={m['f_score']:.3f} precision={m['precision']:.3f} recall={m['recall']:.3f}")
    if mean_auc is not None:
        print(f"  mean sub-call ROC AUC over problematic folds: {mean_auc:.4f}")
    return 0


def cmd_report(args) -> int:
    manifest, _cfg = storage.read_detect_manifest(args.out)
    print(f"run config hash: {manifest['config_hash'][:12]}, folds: {manifest['n_folds']}")
    for method in manifest["methods"]:
        doc = storage.read_labels(args.out, method, manifest["cell_ids"])
        line = [f"{method:9s} thr={doc['threshold']:.2f}"]
        for pairing, entry in sorted(doc["pairings"].items()):
            line.append(f"{pairing}: argmax cell {entry['argmax_cell']}, abnormal {entry['abnormal_cells']}")
        print("  " + " | ".join(line))
    summary = storage.read_metrics_summary(args.out)
    if summary is None:
        print("(no eval/ directory yet; run evaluate for metrics)")
        return 0
    print("method     accuracy precision recall  f_score  tnr     fpr")
    for method, row in summary:
        print(f"{method:10s} " + " ".join(f"{value:7.4f}" for value in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleepscan",
        description="Sleeping-cell detection from MDT event sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate the dataset suite")
    p_sim.add_argument("--config", help="JSON config file, the suite's whole configuration (defaults built in)")
    p_sim.add_argument("--out", required=True, help="output dataset directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="run fold detection and aggregation")
    p_det.add_argument("--config", help="JSON config file that may differ from the suite's only in detection settings")
    p_det.add_argument("--data", required=True, help="dataset directory from simulate")
    p_det.add_argument("--out", required=True, help="detection output directory")
    p_det.add_argument("--folds", type=int, help="limit to the first N folds")
    p_det.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    p_det.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("evaluate", help="compute metrics from detection outputs")
    p_eval.add_argument("--out", required=True, help="detection output directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="print a summary of a finished run")
    p_rep.add_argument("--out", required=True, help="detection output directory")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when started with no stdout at all: print then writes nothing
            sys.stdout.flush()  # a closed pipe shows here at the latest, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit finds no pipe
        return 141


if __name__ == "__main__":
    sys.exit(main())
