"""In-process spans around the public functions of each sleepscan layer.

The program carries no instrumentation of its own: `Tracer.install`
replaces each listed function, wherever a loaded sleepscan module holds
a reference to it, with a wrapper that records a span (name, start, end,
parent) and optional counts; `Tracer.uninstall` puts the originals back.
Spans stay in memory and are reduced to metrics after the run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("simgen", "mdtlog", "featurize", "embed", "detect", "localize", "pipeline", "storage", "evaluate", "cli")

# (module, attribute, span name).  An attribute "Class.method" wraps a
# method or classmethod on the class.  A span name starts with its layer;
# heatmap spans count in storage, and detect.knn covers the kernels.
SPANS = (
    ("simgen.suite", "generate_dataset_suite", "simgen.generate"),
    ("simgen.fields", "make_shadowing", "simgen.shadowing"),
    ("simgen.dominance", "build_radio_map", "simgen.radio_map"),
    ("simgen.engine", "simulate", "simgen.simulate"),
    ("simgen.suite", "write_suite", "simgen.write_suite"),
    ("simgen.suite", "load_suite", "simgen.load_suite"),
    ("simgen.suite", "load_truth", "simgen.load_truth"),
    ("simgen.dominance", "load_dominance_csv", "simgen.load_dominance"),
    ("mdtlog", "read_records", "mdtlog.read_records"),
    ("mdtlog", "group_calls", "mdtlog.group_calls"),
    ("pipeline", "fold_inputs_from_suite", "pipeline.fold_inputs"),
    ("pipeline", "run_fold", "pipeline.run_fold"),
    ("pipeline", "aggregate_folds", "pipeline.aggregate"),
    ("featurize", "windows_for_calls", "featurize.windows"),
    ("featurize", "NGramVocabulary.from_subcalls", "featurize.vocab"),
    ("featurize", "build_feature_matrix", "featurize.matrix"),
    ("embed", "fit_basis", "embed.fit"),
    ("embed", "project_minor", "embed.project"),
    ("detect", "knn_scores", "detect.knn"),
    ("detect", "fit_threshold", "detect.threshold"),
    ("localize", "sc_dominance_subcall_deviation", "localize.subcall"),
    ("localize", "sc_dominance_2gram_deviation", "localize.gram"),
    ("localize", "sc_2gram_symmetry_deviation", "localize.symmetry"),
    ("localize", "sc_target_cell_subcalls", "localize.target"),
    ("localize", "amplify", "localize.amplify"),
    ("storage", "write_fold_output", "storage.write_fold"),
    ("storage", "write_method_aggregate", "storage.write_aggregate"),
    ("storage", "read_fold_output", "storage.read_fold"),
    ("heatmap", "write_heatmap", "heatmap.write"),
    ("evaluate", "count_confusion", "evaluate.count_confusion"),
    ("evaluate", "confusion_metrics", "evaluate.confusion_metrics"),
    ("evaluate", "roc", "evaluate.roc"),
    ("evaluate", "heuristic_distance", "evaluate.heuristic"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_detect", "cli.detect"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Spans and counts of one traced phase (simulate, detect or evaluate)."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    fold_outputs: list = field(default_factory=list)  # FoldOutput per traced run_fold
    vocab_sizes: list[int] = field(default_factory=list)
    records_per_role: dict[str, int] = field(default_factory=dict)
    knn_queries: list[np.ndarray] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # SPANS targets the program no longer has
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple] = field(default_factory=list)

    # -- recording ------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _on_result(self, name: str, args, result) -> None:
        if name == "simgen.generate":
            self.records_per_role = {role: len(data.records) for role, data in result.roles.items()}
        elif name == "pipeline.run_fold":
            self.fold_outputs.append(result)
        elif name == "featurize.vocab":
            self.vocab_sizes.append(len(result))
        elif name == "detect.knn":
            train, query = args[0], args[1]
            self.count("detect.knn_pairs", len(train) * len(query))
            self.knn_queries.append(query)
        elif name == "mdtlog.group_calls":
            self.count("mdtlog.group_calls_calls")

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, time.perf_counter(), parent=parent)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_time += span.duration
            self._on_result(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_cell_at(self, fn):
        def counted(dmap, x, y):
            self.count("localize.cell_at_calls")
            self.count("localize.cell_at_points", np.size(x))
            return fn(dmap, x, y)

        counted.__wrapped__ = fn
        return counted

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        """Wrap every function in SPANS and count DominanceMap.cell_at calls."""
        for mod_name in {m for m, _, _ in SPANS}:
            with contextlib.suppress(ImportError):
                importlib.import_module(f"sleepscan.{mod_name}")
        modules = [m for n, m in sys.modules.items() if n == "sleepscan" or n.startswith("sleepscan.")]
        for mod_name, attr, span_name in SPANS:
            if not self._exists(mod_name, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            owner = sys.modules[f"sleepscan.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    new = self._wrap(raw, span_name)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        if self._exists("simgen.dominance", "DominanceMap.cell_at"):
            dominance = sys.modules["sleepscan.simgen.dominance"].DominanceMap
            raw = dominance.__dict__["cell_at"]
            self._restore.append((dominance, "cell_at", raw))
            dominance.cell_at = self._count_cell_at(raw)

    @staticmethod
    def _exists(mod_name: str, attr: str) -> bool:
        """Whether the program still has the function; a span it lacks reads 0."""
        owner = sys.modules.get(f"sleepscan.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            return cls is not None and meth in vars(cls)
        return getattr(owner, attr, None) is not None

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reduction ------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.duration for name in names for s in self.named(name))

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            out[layer_of(span.name)] += span.self_time
        return out


def layer_of(span_name: str) -> str:
    """Layer of a span: its module, with heatmap counted in storage."""
    module = span_name.split(".", 1)[0]
    return "storage" if module == "heatmap" else module
