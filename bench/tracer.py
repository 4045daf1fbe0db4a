"""Outside-in per-layer tracing for the cleanstream benchmark.

The tracer never edits the package. It replaces public functions at the
module attributes the package looks them up through (and a few model
methods on their classes) with wrappers that record spans and counts, and
puts every original back when the traced pass ends.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span or -1, and ``run`` counts ``harness.run_single`` calls
so the spans of one stream run share an identifier. Spans stay in memory
and are written once, by :meth:`Tracer.write`. A layer's self time is the
sum over its spans of the duration minus the duration of direct children;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import Counter

# Self-time buckets, in the order they are reported. A span name is the
# per-layer metric name without its "_s" or ".self_s" suffix.
SPAN_METRICS = {
    "models.mlp_fit": "models.mlp_fit_s",
    "models.knn_predict": "models.knn_predict_s",
    "models.centroid_predict": "models.centroid_predict_s",
    "models.mlp_predict": "models.mlp_predict_s",
    "models.features_matrix": "models.features_matrix_s",
    "models.evaluate": "models.evaluate_s",
    "frameworks.step": "frameworks.step_s",
    "frameworks.cleanse": "frameworks.cleanse_s",
    "frameworks.select": "frameworks.select_s",
    "frameworks.retrain_label": "frameworks.retrain_label_s",
    "frameworks.retrain_classifier": "frameworks.retrain_classifier_s",
    "baselines.step": "baselines.step_s",
    "baselines.retrain": "baselines.retrain_s",
    "metrics.cumulative": "metrics.cumulative_s",
    "metrics.write_csv": "metrics.write_csv_s",
    "metrics.aggregate": "metrics.aggregate_s",
    "core.generate_synthetic": "core.generate_synthetic_s",
    "core.split_stream": "core.split_stream_s",
    "noise.inject": "noise.inject_s",
    "harness.run_single": "harness.run_single.self_s",
    "harness.run_experiment": "harness.run_experiment.self_s",
    "harness.run_matrix": "harness.run_matrix.self_s",
    "cli.main": "cli.main.self_s",
}

# Counts recorded at the same boundaries; each must repeat exactly for a
# given seed.
COUNT_METRICS = (
    "models.mlp_fit_calls",
    "models.sgd_steps",
    "models.mlp_fit_rows",
    "models.knn_queries",
    "models.knn_distance_evals",
    "models.features_matrix_rows",
    "frameworks.arrived",
    "frameworks.selected",
    "frameworks.selected_dirty",
    "frameworks.reprocessed",
    "frameworks.inactive_peak",
    "frameworks.oracle_queries",
    "frameworks.retrains",
    "noise.flips",
)


class Tracer:
    """Wraps the package's layer boundaries; restore() undoes every wrap."""

    def __init__(self, program):
        self.program = program
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._run = 0
        self._label_spec = None
        self._seen_rows: dict[tuple[int, int], set[bytes]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent, self._run))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        name, start, _, parent, run = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, run)
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _replace(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def _span(self, owner, attr: str, name, before=None, after=None) -> None:
        """Wrap owner.attr in a span; ``name`` may be a function of the call."""

        def make(original):
            def wrapper(*args, **kwargs):
                token = before(*args, **kwargs) if before else None
                index = self._open(name(*args, **kwargs) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
                if after:
                    after(result, token, *args, **kwargs)
                return result

            return wrapper

        self._replace(owner, attr, make)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        p = self.program
        harness, frameworks, baselines, models = p.harness, p.frameworks, p.baselines, p.models
        c = self.counts

        def start_run(config, repetition):
            self._run += 1
            self._label_spec = config.label_spec

        def count_flips(result, token, batch, level, num_classes, rng):
            c["noise.flips"] += p.noise.flip_count(level, len(batch.instances))

        def count_bytes(result, token, reports, path):
            c["metrics.write_bytes"] += os.path.getsize(path)

        def count_step(result, token, state, batch, *rest):
            report = result[1]
            c["frameworks.arrived"] += len(batch.instances)
            c["frameworks.selected"] += report.selected_count
            c["frameworks.selected_dirty"] += (
                report.selected_count - report.selected_true_clean_count
            )
            c["frameworks.inactive_peak"] = max(
                c["frameworks.inactive_peak"], report.inactive_total
            )

        def before_reprocess(state):
            groups = state.inactive[:2]
            c["frameworks.reprocessed"] += sum(len(g) for g in groups)
            return len(state.clean_pool)

        def after_reprocess(result, pool_before, state):
            c["frameworks.reprocess_accepted"] += len(state.clean_pool) - pool_before

        def retrain_role(spec, instances, rng):
            c["frameworks.retrains"] += 1
            if spec is self._label_spec:
                return "frameworks.retrain_label"
            return "frameworks.retrain_classifier"

        def count_rows(result, token, instances):
            c["models.features_matrix_rows"] += len(instances)

        def count_knn(result, token, model, queries):
            c["models.knn_queries"] += len(queries)
            c["models.knn_distance_evals"] += len(queries) * len(model.y)

        def count_fit(model, X, y, rng):
            spec = model.spec
            c["models.mlp_fit_calls"] += 1
            c["models.mlp_fit_rows"] += len(X)
            c["models.sgd_steps"] += spec.mlp_epochs * -(-len(X) // spec.mlp_batch_size)
            seen = self._seen_rows.setdefault((self._run, id(spec)), set())
            before = len(seen)
            seen.update(row.tobytes() for row in X)
            c["models.mlp_fit_new_rows"] += len(seen) - before
            if self._parent_name() == "frameworks.step":
                c["frameworks.retrains"] += 1  # slimmed warm-starts in place

        self._span(p.cli, "main", "cli.main")
        self._span(harness, "run_matrix", "harness.run_matrix")
        self._span(harness, "run_experiment", "harness.run_experiment")
        self._span(harness, "run_single", "harness.run_single", before=start_run)
        self._span(harness, "generate_synthetic", "core.generate_synthetic")
        self._span(harness, "split_stream", "core.split_stream")
        self._span(harness, "inject_symmetric_noise", "noise.inject", after=count_flips)
        self._span(harness, "evaluate_accuracy", "models.evaluate")
        self._span(harness, "active_fraction", "metrics.cumulative")
        self._span(harness, "active_truth_fraction", "metrics.cumulative")
        self._span(harness, "write_reports_csv", "metrics.write_csv", after=count_bytes)
        self._span(harness, "aggregate_runs", "metrics.aggregate")
        self._span(frameworks, "step", "frameworks.step", after=count_step)
        self._span(frameworks, "cleanse", "frameworks.cleanse")
        self._span(frameworks, "voting_filter", "frameworks.select")
        self._span(
            frameworks,
            "reprocess_history",
            "frameworks.select",
            before=before_reprocess,
            after=after_reprocess,
        )
        self._span(frameworks, "train_model", retrain_role)
        self._span(baselines, "step", "baselines.step")
        self._span(baselines, "train_model", "baselines.retrain")
        # frameworks imported features_matrix by name, so it has its own attribute
        self._span(models, "features_matrix", "models.features_matrix", after=count_rows)
        self._span(frameworks, "features_matrix", "models.features_matrix", after=count_rows)
        self._span(models.KnnModel, "predict_many", "models.knn_predict", after=count_knn)
        self._span(models.CentroidModel, "predict_many", "models.centroid_predict")
        self._span(models.MlpModel, "predict_many", "models.mlp_predict")
        self._span(models.MlpModel, "fit", "models.mlp_fit", before=count_fit)

        def make_answer(original):
            def answer(oracle, instance):
                c["frameworks.oracle_queries"] += 1
                return original(oracle, instance)

            return answer

        self._replace(frameworks.GroundTruthOracle, "answer", make_answer)

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not take."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        broken = []
        for owner, attr, original in self._saved:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._saved.clear()
        return broken

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = dict.fromkeys(SPAN_METRICS, 0.0)
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return totals

    def metrics(self, traced_run_s: float, untraced_run_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        times = self.self_times()
        for span, metric in SPAN_METRICS.items():
            out[metric] = (times[span], "s")
        for name in COUNT_METRICS:
            out[name] = (c[name], "count")
        out["metrics.write_bytes"] = (c["metrics.write_bytes"], "bytes")

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out["models.sgd_step_us"] = (
            ratio(times["models.mlp_fit"], c["models.sgd_steps"], 1e6),
            "us",
        )
        out["models.knn_distance_ns"] = (
            ratio(times["models.knn_predict"], c["models.knn_distance_evals"], 1e9),
            "ns",
        )
        out["models.fit_new_row_ratio"] = (
            ratio(c["models.mlp_fit_new_rows"], c["models.mlp_fit_rows"]),
            "fraction",
        )
        out["frameworks.reprocess_accept_ratio"] = (
            ratio(c["frameworks.reprocess_accepted"], c["frameworks.reprocessed"]),
            "fraction",
        )
        out["trace.overhead_frac"] = (traced_run_s / untraced_run_s - 1.0, "fraction")
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, after the traced pass ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )
