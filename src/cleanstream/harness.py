"""Experiment harness: config files, run loops, and result files.

A config file is flat ``key = value`` lines (``#`` starts a comment). The
same mapping drives single runs and matrix runs; the CLI layers
``--key=value`` overrides on top. Then each value is parsed once, by its
key's parser in ``CONFIG_KEYS`` (a matrix entry like the key it names).

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import frameworks
from .core import (
    Dataset,
    LabeledInstance,
    StreamConfig,
    generate_synthetic,
    load_csv,
    split_stream,
)
from .frameworks import ALL_VARIANTS, BASELINE_KINDS, FrameworkState, OracleBudget
from .metrics import (
    RunResult,
    RunSummary,
    active_fraction,
    active_truth_fraction,
    aggregate_runs,
    write_reports_csv,
)
from .models import MODEL_KINDS, ClassifierSpec, evaluate_accuracy, stack_test_set
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


@dataclass
class ExperimentConfig:
    """Fully typed description of one (variant, noise) experiment.

    A run loads the CSV at ``dataset_path`` if it is non-empty, else synthetic data.
    """

    stream: StreamConfig
    noise: NoiseSpec
    variant: str
    classifier_spec: ClassifierSpec
    label_spec: ClassifierSpec | None
    budget: OracleBudget
    dataset_path: str | None
    separation: float
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


def _kind(raw: str) -> str:
    if raw not in ALL_VARIANTS:
        raise ValueError
    return raw


def _model_kind(raw: str) -> str:
    if raw not in MODEL_KINDS:
        raise ValueError
    return raw


# What each parser that can fail expects, for error messages.
_EXPECTED = {
    int: "an integer",
    _finite_float: "a finite number",
    _bool: "true/false",
    _kind: f"one of {', '.join(ALL_VARIANTS)}",
    _model_kind: f"one of {', '.join(MODEL_KINDS)}",
}

# Every settable key, mapped to (parser, default); ``[parser]`` reads a comma
# list. Each section that makes a dataclass is built from that section alone
# (see ``_build``); a default the dataclass also declares is read from it.
CONFIG_KEYS = {
    "dataset.path": (str, None),
    "dataset.separation": (_finite_float, 3.0),
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
    "noise.std": (_finite_float, NoiseSpec.std_dev),
    "noise.seed": (int, NoiseSpec.seed),
    "framework.variant": (_kind, "rad"),
    "label_model.kind": (_model_kind, "mlp"),
    "label_model.knn_k": (int, ClassifierSpec.knn_k),
    "classifier.kind": (_model_kind, "knn"),
    "classifier.knn_k": (int, ClassifierSpec.knn_k),
    "classifier.seed": (int, ClassifierSpec.seed),
    "oracle.fraction": (_finite_float, OracleBudget.fraction),
    "run.repetitions": (int, 1),
    "run.output_dir": (str, None),
    "matrix.variants": ([_kind], None),
    "matrix.noise_levels": ([_finite_float], None),
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


def _typed_values(mapping: dict[str, str]) -> dict:
    """Every key's typed value, parsed from the mapping or else its default."""
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {
        key: default if key not in mapping else _parse(key, parser, mapping[key])
        for key, (parser, default) in CONFIG_KEYS.items()
    }


def _parse(where: str, parser, raw: str):
    """``raw`` as ``parser`` reads it; a parser in a list reads each entry of a comma list."""
    if isinstance(parser, list):
        entries = [part.strip() for part in raw.split(",") if part.strip()]
        return [_parse(f"{where}: entry {entry!r}", parser[0], entry) for entry in entries]
    try:
        return parser(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {_EXPECTED[parser]}, got {raw!r}") from None


# The options whose dataclass field has another name.
_FIELD_NAMES = {"noise.mean": "mean_level", "noise.std": "std_dev"}


def _build(cls, values: dict, section: str, **fields):
    """Build ``cls`` from the options under ``section.`` plus ``fields``.

    Each option sets the field of its own name, or the one ``_FIELD_NAMES``
    gives. A value the class rejects is reported with the section's name.
    """
    for key, value in values.items():
        name, _, option = key.partition(".")
        if name == section:
            fields[_FIELD_NAMES.get(key, option)] = value
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a typed experiment config, rejecting unknown keys early."""
    return _config(_typed_values(mapping))


def _config(values: dict) -> ExperimentConfig:
    if values["run.repetitions"] < 1:
        raise ConfigError(f"run.repetitions must be >= 1, got {values['run.repetitions']}")
    if values["dataset.separation"] <= 0:
        raise ConfigError(f"dataset.separation must be > 0, got {values['dataset.separation']}")

    stream = _build(StreamConfig, values, "stream")
    k = stream.num_classes
    return ExperimentConfig(
        stream=stream,
        noise=_build(NoiseSpec, values, "noise"),
        variant=values["framework.variant"],
        classifier_spec=_build(ClassifierSpec, values, "classifier", num_classes=k),
        label_spec=_build(ClassifierSpec, values, "label_model", num_classes=k),
        budget=_build(OracleBudget, values, "oracle"),
        dataset_path=values["dataset.path"],
        separation=values["dataset.separation"],
        initial_clean=values["initial.clean"],
        repetitions=values["run.repetitions"],
        output_dir=values["run.output_dir"],
    )


def expand_matrix(mapping: dict[str, str]) -> list[ExperimentConfig]:
    """One config per (variant, noise level) pair named by the matrix keys.

    Each cell is the mapping's own config with its variant and noise mean
    replaced, each list entry parsed like the key it stands for. A variant
    or noise level listed twice would give two cells one result directory,
    so it is rejected.
    """
    values = _typed_values(mapping)
    base = _config(values)
    variants = values["matrix.variants"] or [base.variant]
    noises = []
    for mean in values["matrix.noise_levels"] or [base.noise.mean_level]:
        try:
            noises.append(replace(base.noise, mean_level=mean))
        except ValueError as exc:
            where = f"matrix.noise_levels: entry {format_noise(mean)!r}"
            raise ConfigError(f"{where}: {exc}") from None
    for key, names in (
        ("matrix.variants", variants),
        ("matrix.noise_levels", [format_noise(noise.mean_level) for noise in noises]),
    ):
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            raise ConfigError(f"{key}: {repeated[0]} is listed more than once")
    return [
        replace(base, variant=variant, noise=noise) for noise in noises for variant in variants
    ]


# ---------------------------------------------------------------------------
# running

# While ``run_matrix`` runs, the datasets it has loaded, by what they were built
# from; None at any other time, so a bare ``run_single`` builds its own. A
# loaded dataset can be shared because records are frozen and their feature
# rows are read-only. ``run_single`` keeps its two arguments, so the store is
# reached here rather than passed down.
_loaded: dict[tuple, Dataset] | None = None


def _load_dataset(config: ExperimentConfig) -> Dataset:
    path = config.dataset_path
    key = (path, config.stream.num_classes) if path else (config.stream, config.separation)
    dataset = None if _loaded is None else _loaded.get(key)
    if dataset is None:
        if path:
            dataset = load_csv(path, config.stream.num_classes)
        else:
            dataset = generate_synthetic(config.stream, separation=config.separation)
        if _loaded is not None:
            _loaded[key] = dataset
    width = config.stream.num_features
    if dataset and len(dataset[0].features) != width:
        raise ConfigError(
            f"stream.num_features = {width}, but {path} has "
            f"{len(dataset[0].features)} feature columns"
        )
    return dataset


def _audit_test_purity(state: FrameworkState, test: list[LabeledInstance]) -> None:
    test_uids = {inst.uid for inst in test}
    for inst in itertools.chain(state.clean_pool, *state.inactive):
        if inst.uid in test_uids:
            raise RuntimeError("a test instance leaked into a training pool")


def run_single(config: ExperimentConfig, repetition: int) -> RunResult:
    """Run one repetition end to end; deterministic in (config, repetition)."""
    stage, batch_index = "load-dataset", 0
    try:
        dataset = _load_dataset(config)
        stage = "split"
        split_rng = np.random.default_rng(config.stream.seed ^ repetition)
        initial, arrivals, test = split_stream(dataset, config.stream, split_rng)

        stage = "noise"
        noise_rng = np.random.default_rng(config.noise.seed ^ repetition)
        if not config.initial_clean:
            level = draw_batch_noise_level(config.noise, noise_rng)
            inject_symmetric_noise(initial, level, config.stream.num_classes, noise_rng)

        stage = "initialize"
        train_rng = np.random.default_rng(config.classifier_spec.seed ^ repetition)
        state = frameworks.initialize(
            config.variant, initial, config.label_spec, config.classifier_spec,
            train_rng, config.budget,
        )

        stage = "evaluate"
        stacked_test = stack_test_set(test)
        initial_accuracy = evaluate_accuracy(state.classifier, stacked_test)

        reports = []
        cumulative_A = cumulative_A_truth = 0.0
        for batch in arrivals:
            batch_index = batch.index
            stage = "noise"
            level = draw_batch_noise_level(config.noise, noise_rng)
            inject_symmetric_noise(batch, level, config.stream.num_classes, noise_rng)
            stage = "step"
            state, report = frameworks.step(state, batch)
            stage = "evaluate"
            report.test_accuracy = evaluate_accuracy(state.classifier, stacked_test)
            reports.append(report)
            # running sums: the same additions, in the same order, as summing
            # every report so far
            cumulative_A += active_fraction([report], config.stream.batch_size)
            cumulative_A_truth += active_truth_fraction([report], config.stream.batch_size)
            report.cumulative_A, report.cumulative_A_truth = cumulative_A, cumulative_A_truth

        stage = "audit"
        _audit_test_purity(state, test)
    except Exception as exc:
        raise RepetitionError(repetition, batch_index, stage, exc) from exc

    return RunResult(
        repetition=repetition,
        seed=config.stream.seed ^ repetition,
        initial_accuracy=initial_accuracy,
        reports=reports,
    )


@dataclass
class ExperimentOutcome:
    """One config with what its repetitions measured: the home of a run's identity."""

    config: ExperimentConfig
    results: list[RunResult]
    summary: RunSummary | None
    errors: list[RepetitionError]


def format_noise(noise_mean: float) -> str:
    return f"{noise_mean:g}"


def format_cell(config: ExperimentConfig) -> str:
    return f"variant={config.variant} noise={format_noise(config.noise.mean_level)}"


def result_dir(output_dir, variant: str, noise_mean: float, repetition: int) -> Path:
    return Path(output_dir) / variant / format_noise(noise_mean) / str(repetition)


def _fmt(value) -> str:
    return "NA" if value is None else repr(value)


def _against_baselines(outcomes: list[ExperimentOutcome]):
    """Each summarised outcome with the baselines at its noise level and its gains.

    Yields ``(outcome, (no_sel, opt_sel, full_clean), improvement,
    improvement_room)``, pairing outcomes by their config's variant and noise
    mean. A baseline summary that is missing at that noise level is None; the
    improvement is the gain over no_sel, the room is full_clean's gain over
    no_sel, and both are None unless no_sel and full_clean have summaries.
    """
    done = [o for o in outcomes if o.summary is not None]
    at = {(o.config.variant, o.config.noise.mean_level): o.summary for o in done}
    for o in done:
        noise = o.config.noise.mean_level
        baselines = tuple(at.get((name, noise)) for name in BASELINE_KINDS)
        no_sel, _, full_clean = baselines
        if no_sel is None or full_clean is None:
            yield o, baselines, None, None
        else:
            base = no_sel.final_accuracy
            yield o, baselines, o.summary.final_accuracy - base, full_clean.final_accuracy - base


def summary_lines(outcomes: list[ExperimentOutcome]) -> list[str]:
    lines = []
    for o in outcomes:
        for r in o.results:
            lines.append(
                f"run {format_cell(o.config)} repetition={r.repetition} seed={r.seed} "
                f"initial_accuracy={_fmt(r.initial_accuracy)} "
                f"final_accuracy={_fmt(r.final_accuracy)} "
                f"final_A={_fmt(r.final_A)} final_A_truth={_fmt(r.final_A_truth)} "
                f"oracle_queries={r.oracle_queries_total}"
            )
    for o, _, improvement, room in _against_baselines(outcomes):
        s = o.summary
        lines.append(
            f"aggregate {format_cell(o.config)} repetitions={s.repetitions} "
            f"initial_accuracy={_fmt(s.initial_accuracy)} "
            f"final_accuracy={_fmt(s.final_accuracy)} "
            f"final_accuracy_variance={_fmt(s.final_accuracy_variance)} "
            f"final_A={_fmt(s.final_A)} final_A_truth={_fmt(s.final_A_truth)} "
            f"mean_oracle_queries={_fmt(s.mean_oracle_queries)} "
            f"improvement={_fmt(improvement)} improvement_room={_fmt(room)}"
        )
    return lines


COMPARISON_COLUMNS = (
    "variant",
    "noise",
    "initial_accuracy",
    *BASELINE_KINDS,
    "final_accuracy",
    "improvement_room",
    "improvement",
)


def comparison_lines(outcomes: list[ExperimentOutcome]) -> list[str]:
    """Fixed-width table relating every variant to the baselines at its noise."""
    def cell(value) -> str:
        return "NA" if value is None else f"{value:.4f}"

    rows = [COMPARISON_COLUMNS]
    for o, baselines, improvement, room in _against_baselines(outcomes):
        rows.append(
            (
                o.config.variant,
                format_noise(o.config.noise.mean_level),
                cell(o.summary.initial_accuracy),
                *(cell(None if b is None else b.final_accuracy) for b in baselines),
                cell(o.summary.final_accuracy),
                cell(room),
                cell(improvement),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(COMPARISON_COLUMNS))]
    return ["  ".join(text.ljust(w) for text, w in zip(row, widths)).rstrip() for row in rows]


def run_matrix(configs: list[ExperimentConfig]) -> list[ExperimentOutcome]:
    """Run every repetition of every config; a failed repetition doesn't stop the rest.

    Each config's results are aggregated on their own, so a summary never
    mixes configs. Each distinct dataset is built once per call and shared by
    every cell and repetition that reads it. Each failed repetition is
    recorded as a :class:`RepetitionError` on its config's outcome. When the
    shared output dir is set and some repetition completed, writes every
    batches.csv, one summary.txt and one comparison.txt; the last two give
    each variant's gain over the baselines at its noise level (see
    :func:`_against_baselines`).
    """
    global _loaded
    if not configs:
        raise ValueError("run_matrix needs at least one config")
    outcomes: list[ExperimentOutcome] = []
    _loaded = {}
    try:
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
    finally:
        _loaded = None

    output_dir = configs[0].output_dir
    if output_dir and any(o.results for o in outcomes):
        for o in outcomes:
            noise = o.config.noise.mean_level
            for r in o.results:
                directory = result_dir(output_dir, o.config.variant, noise, r.repetition)
                directory.mkdir(parents=True, exist_ok=True)
                write_reports_csv(r.reports, directory / "batches.csv")
        out = Path(output_dir)
        text = "\n".join(summary_lines(outcomes)) + "\n"
        (out / "summary.txt").write_text(text, encoding="utf-8")
        table = "\n".join(comparison_lines(outcomes)) + "\n"
        (out / "comparison.txt").write_text(table, encoding="utf-8")
    return outcomes


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Run all repetitions of one config: a matrix of one cell."""
    return run_matrix([config])[0]
