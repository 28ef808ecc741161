"""Command-line interface: simulate | detect | evaluate | report.

Exit codes: 0 ok, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import pipeline, storage
from .config import RunConfig
from .errors import ConfigError, DataError
from .simgen import load_suite, write_suite

METHOD_CHOICES = ("subcall", "2gram", "symmetry", "target", "combined", "all")


def _method_key(choice: str) -> str:
    return "gram" if choice == "2gram" else choice


def _selected_methods(choice: str) -> tuple[str, ...]:
    if choice == "all":
        return pipeline.ALL_METHODS
    return (_method_key(choice),)


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "no_amplify", False):
        overrides["amplify"] = False
    return cfg.with_overrides(**overrides)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    suite = pipeline.suite_from_config(cfg)
    manifest_path = write_suite(
        suite, out_dir, manifest_extra={"config": cfg.to_dict(), "config_hash": cfg.config_hash()}
    )
    counts = {role: len(data.records) for role, data in suite.roles.items()}
    print(f"wrote dataset suite to {out_dir} (config {cfg.config_hash()[:12]})")
    print(f"records per role: {counts}")
    print(f"manifest: {manifest_path}")
    return 0


_WORKER_STATE: dict = {}


def _detect_worker_init(fold_inputs: list, cfg: RunConfig) -> None:
    """Hand a worker the fold inputs the parent already built from the suite."""
    _WORKER_STATE["inputs"] = fold_inputs
    _WORKER_STATE["cfg"] = cfg


def _detect_worker_run(index: int) -> pipeline.FoldOutput:
    return pipeline.run_fold(_WORKER_STATE["inputs"][index], _WORKER_STATE["cfg"])


def cmd_detect(args) -> int:
    cfg = _load_config(args)
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    if args.folds is not None and args.folds < 0:
        raise ConfigError(f"--folds must be >= 0, got {args.folds}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    manifest, _grid, roles = load_suite(data_dir)
    fold_inputs = pipeline.fold_inputs_from_suite(manifest, roles, cfg, limit=args.folds)
    if not fold_inputs:
        raise DataError(f"no fold pairs available in {data_dir}")
    print(f"running {len(fold_inputs)} folds (jobs={args.jobs})")

    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: the import costs every command ~30 ms

        with ProcessPoolExecutor(
            max_workers=args.jobs,
            initializer=_detect_worker_init,
            initargs=(fold_inputs, cfg),
        ) as pool:
            outputs = list(pool.map(_detect_worker_run, range(len(fold_inputs))))
    else:
        outputs = [pipeline.run_fold(fi, cfg) for fi in fold_inputs]

    out_dir.mkdir(parents=True, exist_ok=True)
    for out in outputs:
        storage.write_fold_output(out, out_dir / "folds" / storage.fold_dir_name(out.pair))

    aggregates = pipeline.aggregate_folds(outputs, cfg)
    layout = cfg.layout()
    cell_ids = list(outputs[0].cell_ids)
    for method in _selected_methods(args.method):
        storage.write_method_aggregate(
            aggregates[method], cell_ids, out_dir / "aggregate", layout=layout
        )
    detect_manifest = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "data_dir": str(data_dir),
        "faulty_cell": manifest["faulty_cell"],
        "cell_ids": cell_ids,
        "n_folds": len(outputs),
        "methods": list(_selected_methods(args.method)),
    }
    with open(out_dir / "detect_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(detect_manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for method in _selected_methods(args.method):
        agg = aggregates[method]
        for pairing, labels in sorted(agg.labels.items()):
            means = agg.mean_stages[pairing][agg.stage]
            abnormal = [c for c, flag in zip(cell_ids, labels) if flag]
            print(f"{method}/{pairing}: argmax cell {cell_ids[int(np.argmax(means))]}, abnormal {abnormal}")
    return 0


_MANIFEST_KEYS = ("cell_ids", "config", "config_hash", "faulty_cell", "methods", "n_folds")
_SUMMARY_METRICS = ("accuracy", "precision", "recall", "f_score", "tnr", "fpr")
_SUMMARY_HEADER = ",".join(("method",) + _SUMMARY_METRICS)


def _read_json_object(path: Path, keys) -> dict:
    """A JSON object holding keys, or a DataError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path} does not hold a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise DataError(f"{path} lacks {', '.join(missing)}")
    return doc


def _read_detect_manifest(out_dir: Path) -> tuple[dict, RunConfig]:
    """The detect manifest of a run directory and the configuration it records."""
    path = out_dir / "detect_manifest.json"
    if not path.exists():
        raise DataError(f"no detect_manifest.json in {out_dir}; run detect first")
    manifest = _read_json_object(path, _MANIFEST_KEYS)
    if not (
        all(type(manifest[key]) is int for key in ("faulty_cell", "n_folds"))
        and isinstance(manifest["config_hash"], str) and isinstance(manifest["config"], dict)
        and isinstance(manifest["methods"], list) and all(m in pipeline.ALL_METHODS for m in manifest["methods"])
        and isinstance(manifest["cell_ids"], list) and all(type(c) is int for c in manifest["cell_ids"])
    ):
        raise DataError(f"{path}: needs integer faulty_cell and n_folds, a string config_hash, "
                        f"a config object, methods from {', '.join(pipeline.ALL_METHODS)} "
                        f"and a list of integer cell_ids")
    try:
        cfg = RunConfig.from_dict(manifest["config"])
    except ConfigError as exc:
        raise DataError(f"{path}: invalid config: {exc}") from None
    return manifest, cfg


def cmd_evaluate(args) -> int:
    out_dir = Path(args.out)
    manifest, cfg = _read_detect_manifest(out_dir)
    cell_ids = tuple(manifest["cell_ids"])
    outputs = []
    for fold_dir in storage.list_fold_dirs(out_dir):
        outputs.append(storage.read_fold_output(fold_dir))
        if outputs[-1].cell_ids != cell_ids:  # every histogram must follow one cell order
            raise DataError(f"{fold_dir / 'fold.json'}: cell_ids differ from those of detect_manifest.json")
    aggregates = pipeline.aggregate_folds(outputs, cfg)
    methods = [m for m in _selected_methods(args.method) if m in manifest["methods"]]
    if not methods:
        raise DataError("requested method was not part of the detect run")

    eval_dir = out_dir / "eval"
    eval_dir.mkdir(exist_ok=True)

    summary_rows = []
    for method in methods:
        metrics = ev.method_metrics(aggregates[method], cell_ids, manifest["faulty_cell"])
        with open(eval_dir / f"metrics_{method}.json", "w", encoding="utf-8") as fh:
            json.dump({"method": method, **metrics}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        summary_rows.append([method] + [repr(metrics[k]) for k in _SUMMARY_METRICS])

    with open(eval_dir / "metrics_summary.csv", "w", encoding="utf-8") as fh:
        fh.write(_SUMMARY_HEADER + "\n")
        for row in summary_rows:
            fh.write(",".join(row) + "\n")

    aucs = ev.fold_aucs(outputs)
    mean_auc = ev.mean_auc(aucs) if aucs else None
    with open(eval_dir / "roc_auc.csv", "w", encoding="utf-8") as fh:
        fh.write("fold,auc\n")
        for pair, auc in aucs:
            fh.write(f"{storage.fold_dir_name(pair)},{auc!r}\n")
        if mean_auc is not None:
            fh.write(f"mean,{mean_auc!r}\n")
    curve = ev.pooled_roc(outputs)
    if curve is not None:
        with open(eval_dir / "roc_points.csv", "w", encoding="utf-8") as fh:
            fh.write("fpr,tpr\n")
            for x, y in zip(curve.fpr, curve.tpr):
                fh.write(f"{float(x)!r},{float(y)!r}\n")
            fh.write(f"# auc,{curve.auc!r}\n")

    with open(eval_dir / "heuristic_distances.csv", "w", encoding="utf-8") as fh:
        fh.write("method,variant,scenario,distance_sum,runs\n")
        for method in methods:
            for variant, stage in ev.HEURISTIC_VARIANTS:
                for scenario, (dist, runs) in ev.heuristic_totals(outputs, method, stage).items():
                    fh.write(f"{method},{variant},{scenario},{dist!r},{runs}\n")

    print(f"metrics written to {eval_dir}")
    for row in summary_rows:
        print(f"  {row[0]:9s} F={float(row[4]):.3f} precision={float(row[2]):.3f} recall={float(row[3]):.3f}")
    if mean_auc is not None:
        print(f"  mean sub-call ROC AUC over problematic folds: {mean_auc:.4f}")
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    manifest, _cfg = _read_detect_manifest(out_dir)
    eval_dir = out_dir / "eval"
    agg_dir = out_dir / "aggregate"
    print(f"run config hash: {manifest['config_hash'][:12]}, folds: {manifest['n_folds']}")
    for method in manifest["methods"]:
        path = agg_dir / f"labels_{method}.json"
        if not path.exists():
            continue
        doc = _read_json_object(path, ("threshold", "pairings"))
        entries = doc["pairings"]
        if not (
            isinstance(doc["threshold"], (int, float))
            and isinstance(entries, dict)
            and all(isinstance(e, dict) and {"argmax_cell", "abnormal_cells"} <= e.keys() for e in entries.values())
        ):
            raise DataError(f"{path}: threshold must be a number and pairings map to argmax_cell, abnormal_cells")
        line = [f"{method:9s} thr={doc['threshold']:.2f}"]
        for pairing, entry in sorted(doc["pairings"].items()):
            line.append(
                f"{pairing}: argmax cell {entry['argmax_cell']}, abnormal {entry['abnormal_cells']}"
            )
        print("  " + " | ".join(line))
    summary = eval_dir / "metrics_summary.csv"
    if summary.exists():
        methods, *columns = storage.csv_columns(summary, _SUMMARY_HEADER)
        try:
            values = np.array(columns, dtype=np.float64).T.tolist()
        except ValueError:
            raise DataError(f"malformed {summary}: a metric that is not a number") from None
        print("method     accuracy precision recall  f_score  tnr     fpr")
        for method, row in zip(methods, values):
            print(f"{method:10s} " + " ".join(f"{value:7.4f}" for value in row))
    else:
        print("(no eval/ directory yet; run evaluate for metrics)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleepscan",
        description="Sleeping-cell detection from MDT event sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (defaults built in)")
        p.add_argument("--seed", type=int, help="override the master seed")

    p_sim = sub.add_parser("simulate", help="generate the dataset suite")
    add_common(p_sim)
    p_sim.add_argument("--out", required=True, help="output dataset directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_det = sub.add_parser("detect", help="run fold detection and aggregation")
    add_common(p_det)
    p_det.add_argument("--data", required=True, help="dataset directory from simulate")
    p_det.add_argument("--out", required=True, help="detection output directory")
    p_det.add_argument("--folds", type=int, help="limit to the first N folds")
    p_det.add_argument("--jobs", type=int, default=1, help="parallel fold workers")
    p_det.add_argument("--method", choices=METHOD_CHOICES, default="all")
    p_det.add_argument("--no-amplify", action="store_true", help="label on non-amplified scores")
    p_det.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("evaluate", help="compute metrics from detection outputs")
    p_eval.add_argument("--out", required=True, help="detection output directory")
    p_eval.add_argument("--method", choices=METHOD_CHOICES, default="all")
    p_eval.set_defaults(func=cmd_evaluate)

    p_rep = sub.add_parser("report", help="print a summary of a finished run")
    p_rep.add_argument("--out", required=True, help="detection output directory")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
