"""Experiment harness: config files, run loops, and result files.

A config file is flat ``key = value`` lines (``#`` starts a comment). The
same mapping drives single runs and matrix runs; the CLI layers
``--key=value`` overrides on top before anything is parsed into typed
config objects.

Output layout, rooted at ``run.output_dir``::

    <out>/<variant>/<noise>/<repetition>/batches.csv
    <out>/summary.txt          one line per run plus aggregates
    <out>/comparison.txt       every variant against the baselines at its noise

A single run is a matrix of one cell. Reruns with identical inputs rewrite
byte-identical files.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frameworks
from .core import (
    Dataset,
    LabeledInstance,
    StreamConfig,
    fit_feature_ranges,
    generate_synthetic,
    load_csv,
    scale_features,
    split_stream,
)
from .frameworks import ALL_VARIANTS, FrameworkState, GroundTruthOracle, OracleBudget
from .metrics import (
    RunResult,
    RunSummary,
    active_fraction,
    active_truth_fraction,
    aggregate_runs,
    attach_improvements,
    write_reports_csv,
)
from .models import ClassifierSpec, evaluate_accuracy, stack_test_set
from .noise import NoiseSpec, draw_batch_noise_level, inject_symmetric_noise


class ConfigError(ValueError):
    """A config file or override is malformed or names an unknown key."""


class RepetitionError(RuntimeError):
    """One repetition failed; carries where, so other repetitions can go on."""

    def __init__(self, repetition: int, batch_index: int, stage: str, cause: Exception):
        super().__init__(
            f"repetition {repetition}, batch {batch_index}, stage {stage}: {cause}"
        )
        self.repetition = repetition
        self.batch_index = batch_index
        self.stage = stage
        self.cause = cause


@dataclass
class ExperimentConfig:
    """Fully typed description of one (variant, noise) experiment."""

    stream: StreamConfig
    noise: NoiseSpec
    variant: str
    classifier_spec: ClassifierSpec
    label_spec: ClassifierSpec | None
    budget: OracleBudget
    dataset_source: str
    dataset_path: str | None
    separation: float
    scale: bool
    initial_clean: bool
    repetitions: int
    output_dir: str | None


# ---------------------------------------------------------------------------
# config parsing

def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError
    return value


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _split_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


# What each parser that can fail expects, for error messages.
_EXPECTED = {
    int: "an integer",
    _finite_float: "a finite number",
    _bool: "true/false",
    _int_tuple: "comma-separated integers",
}

_MODEL_OPTIONS = {
    "knn_k": (int, ClassifierSpec.knn_k),
    "mlp_hidden": (_int_tuple, ClassifierSpec.mlp_hidden),
    "mlp_epochs": (int, ClassifierSpec.mlp_epochs),
    "mlp_learning_rate": (_finite_float, ClassifierSpec.mlp_learning_rate),
    "mlp_batch_size": (int, ClassifierSpec.mlp_batch_size),
}

# Every settable key, mapped to (parser, default). Each section whose option
# names match a dataclass's fields is built from that section alone; a default
# the dataclass also declares is read from it.
CONFIG_KEYS = {
    "dataset.source": (str, "synthetic"),
    "dataset.path": (str, None),
    "dataset.separation": (_finite_float, 3.0),
    "dataset.scale": (_bool, False),
    "initial.clean": (_bool, False),
    "stream.num_classes": (int, 4),
    "stream.num_features": (int, 20),
    "stream.initial_batch_size": (int, 1000),
    "stream.batch_size": (int, 300),
    "stream.num_batches": (int, 20),
    "stream.test_size": (int, 2000),
    "stream.seed": (int, StreamConfig.seed),
    "stream.stratify": (_bool, StreamConfig.stratify),
    "noise.mean": (_finite_float, 0.3),
    "noise.std_mode": (str, NoiseSpec.std_dev_mode),
    "noise.std": (_finite_float, NoiseSpec.std_dev),
    "noise.seed": (int, NoiseSpec.seed),
    "framework.variant": (str, "rad"),
    "label_model.kind": (str, "mlp"),
    **{f"label_model.{option}": entry for option, entry in _MODEL_OPTIONS.items()},
    "classifier.kind": (str, "knn"),
    **{f"classifier.{option}": entry for option, entry in _MODEL_OPTIONS.items()},
    "classifier.seed": (int, ClassifierSpec.seed),
    "oracle.fraction": (_finite_float, OracleBudget.fraction),
    "run.repetitions": (int, 1),
    "run.output_dir": (str, None),
    "matrix.variants": (_split_list, ()),
    "matrix.noise_levels": (_split_list, ()),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines into a string mapping. Later keys win."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{source}: line {lineno}: expected 'key = value'")
        mapping[key] = value
    return mapping


def load_config_file(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(mapping: dict[str, str], overrides: dict[str, str]) -> dict[str, str]:
    merged = dict(mapping)
    merged.update(overrides)
    return merged


def _typed_values(mapping: dict[str, str]) -> dict:
    """Every key's typed value, parsed from the mapping or else its default."""
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, (parser, default) in CONFIG_KEYS.items():
        raw = mapping.get(key)
        try:
            values[key] = default if raw is None else parser(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {_EXPECTED[parser]}, got {raw!r}") from None
    return values


def _build(cls, values: dict, section: str, **fields):
    """Build ``cls`` from the options under ``section.`` plus ``fields``.

    A value the class rejects is reported with the section's name.
    """
    for key, value in values.items():
        name, _, option = key.partition(".")
        if name == section:
            fields[option] = value
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a typed experiment config, rejecting unknown keys early."""
    values = _typed_values(mapping)
    variant = values["framework.variant"]
    if variant not in ALL_VARIANTS:
        raise ConfigError(
            f"framework.variant: expected one of {', '.join(ALL_VARIANTS)}, "
            f"got {variant!r}"
        )
    source = values["dataset.source"]
    if source not in ("synthetic", "csv"):
        raise ConfigError(f"dataset.source: expected synthetic or csv, got {source!r}")
    if source == "csv" and not values["dataset.path"]:
        raise ConfigError("dataset.path is required when dataset.source = csv")
    if values["run.repetitions"] < 1:
        raise ConfigError(f"run.repetitions must be >= 1, got {values['run.repetitions']}")

    stream = _build(StreamConfig, values, "stream")
    try:
        noise = NoiseSpec(
            mean_level=values["noise.mean"],
            std_dev_mode=values["noise.std_mode"],
            std_dev=values["noise.std"],
            seed=values["noise.seed"],
        )
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from None
    k = stream.num_classes
    return ExperimentConfig(
        stream=stream,
        noise=noise,
        variant=variant,
        classifier_spec=_build(ClassifierSpec, values, "classifier", num_classes=k),
        label_spec=_build(ClassifierSpec, values, "label_model", num_classes=k),
        budget=_build(OracleBudget, values, "oracle"),
        dataset_source=source,
        dataset_path=values["dataset.path"],
        separation=values["dataset.separation"],
        scale=values["dataset.scale"],
        initial_clean=values["initial.clean"],
        repetitions=values["run.repetitions"],
        output_dir=values["run.output_dir"],
    )


def expand_matrix(mapping: dict[str, str]) -> list[ExperimentConfig]:
    """One config per (variant, noise level) pair named by the matrix keys.

    A variant or noise level listed twice would give two cells one result
    directory, so it is rejected.
    """
    values = _typed_values(mapping)
    variants = values["matrix.variants"] or [values["framework.variant"]]
    noise_levels = values["matrix.noise_levels"] or [str(values["noise.mean"])]
    for level in noise_levels:  # checked here, so errors name this key and entry
        where = f"matrix.noise_levels: entry {level!r}"
        try:
            mean = _finite_float(level)
        except ValueError:
            raise ConfigError(f"{where}: expected a finite number") from None
        try:
            NoiseSpec(mean_level=mean)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    configs = []
    for noise_level in noise_levels:
        for variant in variants:
            cell = dict(mapping)
            cell["framework.variant"] = variant
            cell["noise.mean"] = noise_level
            configs.append(config_from_mapping(cell))
    first_row = configs[: len(variants)]  # every variant at the first noise level
    first_column = configs[:: len(variants)]  # the first variant at every noise level
    for key, names in (
        ("matrix.variants", [c.variant for c in first_row]),
        ("matrix.noise_levels", [format_noise(c.noise.mean_level) for c in first_column]),
    ):
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ConfigError(f"{key}: {repeated[0]} is listed more than once")
    return configs


# ---------------------------------------------------------------------------
# running

def _load_dataset(config: ExperimentConfig) -> Dataset:
    if config.dataset_source != "csv":
        return generate_synthetic(config.stream, separation=config.separation)
    dataset = load_csv(config.dataset_path, config.stream.num_classes)
    width = config.stream.num_features
    if dataset and len(dataset[0].features) != width:
        raise ConfigError(
            f"stream.num_features = {width}, but {config.dataset_path} has "
            f"{len(dataset[0].features)} feature columns"
        )
    return dataset


def _audit_test_purity(state: FrameworkState, test: list[LabeledInstance]) -> None:
    test_ids = {id(inst) for inst in test}
    for inst in itertools.chain(state.clean_pool, *state.inactive):
        if id(inst) in test_ids:
            raise RuntimeError("a test instance leaked into a training pool")


def run_single(config: ExperimentConfig, repetition: int) -> RunResult:
    """Run one repetition end to end; deterministic in (config, repetition)."""
    stage, batch_index = "load-dataset", 0
    try:
        dataset = _load_dataset(config)
        stage = "split"
        split_rng = np.random.default_rng(config.stream.seed ^ repetition)
        initial, arrivals, test = split_stream(dataset, config.stream, split_rng)
        if config.scale:
            lo, hi = fit_feature_ranges(initial.instances)
            scale_features(initial.instances, lo, hi)
            for batch in arrivals:
                scale_features(batch.instances, lo, hi)
            scale_features(test, lo, hi)

        stage = "noise"
        noise_rng = np.random.default_rng(config.noise.seed ^ repetition)
        if not config.initial_clean:
            level = draw_batch_noise_level(config.noise, noise_rng)
            inject_symmetric_noise(initial, level, config.stream.num_classes, noise_rng)

        stage = "initialize"
        train_rng = np.random.default_rng(config.classifier_spec.seed ^ repetition)
        state = frameworks.initialize(
            config.variant, initial, config.label_spec, config.classifier_spec, train_rng
        )
        oracle = GroundTruthOracle()

        stage = "evaluate"
        stacked_test = stack_test_set(test)
        initial_accuracy = evaluate_accuracy(state.classifier, stacked_test)

        reports = []
        for batch in arrivals:
            batch_index = batch.index
            stage = "noise"
            level = draw_batch_noise_level(config.noise, noise_rng)
            inject_symmetric_noise(batch, level, config.stream.num_classes, noise_rng)
            stage = "step"
            state, report = frameworks.step(state, batch, oracle, config.budget)
            stage = "evaluate"
            report.test_accuracy = evaluate_accuracy(state.classifier, stacked_test)
            reports.append(report)
            report.cumulative_A = active_fraction(reports, config.stream.batch_size)
            report.cumulative_A_truth = active_truth_fraction(
                reports, config.stream.batch_size
            )

        stage = "audit"
        _audit_test_purity(state, test)
    except Exception as exc:
        raise RepetitionError(repetition, batch_index, stage, exc) from exc

    return RunResult(
        variant=config.variant,
        noise_mean=config.noise.mean_level,
        repetition=repetition,
        seed=config.stream.seed ^ repetition,
        initial_accuracy=initial_accuracy,
        reports=reports,
        oracle_queries_total=state.oracle_queries_total,
    )


@dataclass
class ExperimentOutcome:
    config: ExperimentConfig
    results: list[RunResult]
    summary: RunSummary | None
    errors: list[RepetitionError]


def format_noise(noise_mean: float) -> str:
    return f"{noise_mean:g}"


def result_dir(output_dir, variant: str, noise_mean: float, repetition: int) -> Path:
    return Path(output_dir) / variant / format_noise(noise_mean) / str(repetition)


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_lines(results: list[RunResult], summaries: list[RunSummary]) -> list[str]:
    lines = []
    for r in results:
        lines.append(
            f"run variant={r.variant} noise={format_noise(r.noise_mean)} "
            f"repetition={r.repetition} seed={r.seed} "
            f"initial_accuracy={_fmt(r.initial_accuracy)} "
            f"final_accuracy={_fmt(r.final_accuracy)} "
            f"final_A={_fmt(r.final_A)} final_A_truth={_fmt(r.final_A_truth)} "
            f"oracle_queries={r.oracle_queries_total}"
        )
    for s in summaries:
        lines.append(
            f"aggregate variant={s.variant} noise={format_noise(s.noise_mean)} "
            f"repetitions={s.repetitions} "
            f"initial_accuracy={_fmt(s.initial_accuracy)} "
            f"final_accuracy={_fmt(s.final_accuracy)} "
            f"final_accuracy_variance={_fmt(s.final_accuracy_variance)} "
            f"final_A={_fmt(s.final_A)} final_A_truth={_fmt(s.final_A_truth)} "
            f"mean_oracle_queries={_fmt(s.mean_oracle_queries)} "
            f"improvement={_fmt(s.improvement)} "
            f"improvement_room={_fmt(s.improvement_room)}"
        )
    return lines


COMPARISON_COLUMNS = (
    "variant",
    "noise",
    "initial_accuracy",
    "no_sel",
    "opt_sel",
    "full_clean",
    "final_accuracy",
    "improvement_room",
    "improvement",
)


def _by_noise(summaries: list[RunSummary]) -> dict[float, dict[str, RunSummary]]:
    """Summaries grouped by noise level, then keyed by variant."""
    groups: dict[float, dict[str, RunSummary]] = {}
    for s in summaries:
        groups.setdefault(s.noise_mean, {})[s.variant] = s
    return groups


def comparison_lines(summaries: list[RunSummary]) -> list[str]:
    """Fixed-width table relating every variant to the baselines at its noise."""
    by_noise = _by_noise(summaries)

    def cell(value) -> str:
        return "NA" if value is None else f"{value:.4f}"

    rows = [COMPARISON_COLUMNS]
    for s in summaries:
        anchors = by_noise[s.noise_mean]
        no_sel = anchors.get("no_sel")
        opt_sel = anchors.get("opt_sel")
        full_clean = anchors.get("full_clean")
        rows.append(
            (
                s.variant,
                format_noise(s.noise_mean),
                cell(s.initial_accuracy),
                cell(no_sel.final_accuracy if no_sel else None),
                cell(opt_sel.final_accuracy if opt_sel else None),
                cell(full_clean.final_accuracy if full_clean else None),
                cell(s.final_accuracy),
                cell(s.improvement_room),
                cell(s.improvement),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(COMPARISON_COLUMNS))]
    return ["  ".join(text.ljust(w) for text, w in zip(row, widths)).rstrip() for row in rows]


def run_matrix(configs: list[ExperimentConfig]) -> list[ExperimentOutcome]:
    """Run every repetition of every config; a failed repetition doesn't stop the rest.

    Each failed repetition is recorded as a :class:`RepetitionError` on its
    config's outcome. Improvement fields are attached wherever the same noise
    level also ran the no_sel and full_clean baselines. When the shared
    output dir is set and some repetition completed, writes every
    batches.csv, one summary.txt and one comparison.txt.
    """
    if not configs:
        raise ValueError("matrix expansion produced no configs")
    outcomes: list[ExperimentOutcome] = []
    for config in configs:
        results: list[RunResult] = []
        errors: list[RepetitionError] = []
        for repetition in range(config.repetitions):
            try:
                results.append(run_single(config, repetition))
            except RepetitionError as exc:
                errors.append(exc)
        summary = aggregate_runs(results) if results else None
        outcomes.append(ExperimentOutcome(config, results, summary, errors))

    summaries = [o.summary for o in outcomes if o.summary is not None]
    by_noise = _by_noise(summaries)
    for s in summaries:
        anchors = by_noise[s.noise_mean]
        if "no_sel" in anchors and "full_clean" in anchors:
            attach_improvements(s, anchors["no_sel"], anchors["full_clean"])

    all_results = [r for o in outcomes for r in o.results]
    output_dir = configs[0].output_dir
    if output_dir and all_results:
        for r in all_results:
            directory = result_dir(output_dir, r.variant, r.noise_mean, r.repetition)
            directory.mkdir(parents=True, exist_ok=True)
            write_reports_csv(r.reports, directory / "batches.csv")
        out = Path(output_dir)
        text = "\n".join(summary_lines(all_results, summaries)) + "\n"
        (out / "summary.txt").write_text(text, encoding="utf-8")
        table = "\n".join(comparison_lines(summaries)) + "\n"
        (out / "comparison.txt").write_text(table, encoding="utf-8")
    return outcomes


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run all repetitions of one config: a matrix of one cell."""
    return run_matrix([config])[0]
