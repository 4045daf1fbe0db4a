"""Experiment harness: config parsing, run loop wiring, files, and the CLI."""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from test_reference_run import EDGE_CASES, SMALL, check_fixed_stream

import cleanstream.harness as harness
from cleanstream.cli import _parse_overrides
from cleanstream.cli import main as cli_main
from cleanstream.core import load_csv
from cleanstream.frameworks import ALL_VARIANTS
from cleanstream.harness import (
    CONFIG_KEYS,
    ConfigError,
    RepetitionError,
    comparison_lines,
    config_from_mapping,
    expand_matrix,
    parse_config_text,
    result_dir,
    run_experiment,
    run_matrix,
    run_single,
    summary_lines,
)
from cleanstream.metrics import BatchReport, RunResult, aggregate_runs, write_reports_csv


def small_mapping(**overrides) -> dict[str, str]:
    mapping = dict(SMALL)
    mapping.update({k: str(v) for k, v in overrides.items()})
    return mapping


# ---------------------------------------------------------------------------
# config text parsing

def test_parse_config_text_comments_blanks_and_later_wins():
    text = """
    # a comment
    stream.seed = 7

    noise.mean = 0.1   # trailing comment
    noise.mean = 0.4
    """
    mapping = parse_config_text(text)
    assert mapping == {"stream.seed": "7", "noise.mean": "0.4"}


def test_parse_config_text_rejects_non_assignments():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("# fine\nnot an assignment\n")


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigError, match="stream.nmu_classes"):
        config_from_mapping(small_mapping(**{"stream.nmu_classes": "4"}))


MLP_OPTIONS = {
    "mlp_hidden": "8", "mlp_epochs": "5", "mlp_learning_rate": "0.1", "mlp_batch_size": "4",
}


@pytest.mark.parametrize(
    "key, value",
    [
        ("noise.std_mode", "absolute"),
        ("dataset.scale", "true"),
        ("stream.stratify", "true"),
        *((f"{role}.{option}", value) for role in ("label_model", "classifier")
          for option, value in MLP_OPTIONS.items()),
    ],
)
def test_removed_keys_are_unknown_keys(tmp_path, capsys, key, value):
    # the spread is always std * mean, features are used as loaded, a stream
    # is split by one permutation and the MLP's hyper-parameters are set from
    # Python; naming a removed key must fail rather than run without what it
    # asked for
    with pytest.raises(ConfigError, match=f"unknown config keys: {re.escape(key)}"):
        config_from_mapping(small_mapping(**{key: value}))
    config = write_config(tmp_path)
    assert cli_main(["run", "--config", str(config), f"--{key}={value}"]) == 2
    captured = capsys.readouterr()
    assert f"unknown config keys: {key}" in captured.err
    assert captured.out == ""


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="stream.batch_size"):
        config_from_mapping(small_mapping(**{"stream.batch_size": "many"}))
    with pytest.raises(ConfigError, match="noise.mean"):
        config_from_mapping(small_mapping(**{"noise.mean": "lots"}))
    with pytest.raises(ConfigError, match="initial.clean"):
        config_from_mapping(small_mapping(**{"initial.clean": "perhaps"}))
    with pytest.raises(ConfigError, match=r"^run.repetitions must be >= 1, got 0$"):
        config_from_mapping(small_mapping(**{"run.repetitions": "0"}))
    for key in ("stream.seed", "noise.seed", "classifier.seed"):
        section = key.partition(".")[0]
        with pytest.raises(ConfigError, match=rf"^{section}: seed must be >= 0, got -1$"):
            config_from_mapping(small_mapping(**{key: "-1"}))


@pytest.mark.parametrize("key", ["noise.std", "dataset.separation", "oracle.fraction"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected(key, raw):
    with pytest.raises(ConfigError, match=rf"{re.escape(key)}: expected a finite number"):
        config_from_mapping(small_mapping(**{key: raw}))


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_non_positive_separation_is_a_config_error(tmp_path, capsys, raw):
    # one error that names the key before any run starts, not one per
    # repetition from the synthetic generator
    with pytest.raises(ConfigError, match=r"^dataset.separation must be > 0"):
        config_from_mapping(small_mapping(**{"dataset.separation": raw}))
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(write_config(tmp_path)), "--run.repetitions=3",
                     f"--dataset.separation={raw}", f"--run.output_dir={out}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("dataset.separation") == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("key", ["label_model.kind", "classifier.kind"])
def test_bad_model_kind_is_reported_under_its_key(tmp_path, capsys, key):
    message = f"{key}: expected one of knn, centroid, mlp, got 'bogus'"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        config_from_mapping(small_mapping(**{key: "bogus"}))
    code = cli_main(["run", "--config", str(write_config(tmp_path)), f"--{key}=bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count(key) == 1
    assert captured.out == ""


def test_variant_and_source_validation():
    with pytest.raises(ConfigError, match="framework.variant"):
        config_from_mapping(small_mapping(**{"framework.variant": "psychic"}))
    # dataset.path alone selects a CSV; no other key does
    with pytest.raises(ConfigError, match="unknown config keys: dataset.source"):
        config_from_mapping(small_mapping(**{"dataset.source": "csv"}))


def test_defaults_and_typed_fields():
    config = config_from_mapping(small_mapping())
    assert config.stream.num_classes == 3
    assert config.noise.std_dev == 0.2
    assert config.classifier_spec.kind == "knn"
    assert config.classifier_spec.num_classes == 3
    assert config.label_spec.kind == "centroid"
    assert config.budget.fraction == 1.0
    assert config.repetitions == 1
    assert config.output_dir is None
    for raw in ("false", "no", "0", "off", "OFF"):
        assert config_from_mapping(small_mapping(**{"initial.clean": raw})).initial_clean is False


def test_readme_config_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    documented = {}  # key -> its Default cell, as a config file writes it
    for row in table.splitlines()[2:]:
        key_cell, default_cell, meaning = row.strip("|").split("|")
        for key in re.findall(r"`([^`]+)`", key_cell):
            if key.endswith(".*"):
                options = re.findall(r"`(\w+)` \(`?([^`)]*)`?\)", meaning)
                documented.update((key[:-1] + option, value) for option, value in options)
            else:
                documented[key] = default_cell.strip().strip("`")

    def written(default) -> str:
        if default is None:
            return ""
        if isinstance(default, bool):
            return str(default).lower()
        return str(default)

    assert documented == {key: written(default) for key, (_, default) in CONFIG_KEYS.items()}


# ---------------------------------------------------------------------------
# run loop wiring

def test_repetitions_differ_but_are_individually_deterministic():
    config = config_from_mapping(small_mapping())
    a0 = run_single(config, 0)
    a0_again = run_single(config, 0)
    a1 = run_single(config, 1)
    trace = lambda res: [(r.selected_count, r.test_accuracy) for r in res.reports]
    assert trace(a0) == trace(a0_again)
    assert a0.seed != a1.seed


def test_initial_batch_noise_can_be_disabled():
    # mean 1.0 with zero spread corrupts every initial instance, so
    # initialization must fail; initial.clean=true rescues it
    mapping = small_mapping(**{
        "noise.mean": "1.0",
        "noise.std": "0.0",
        "framework.variant": "no_sel",
    })
    with pytest.raises(RepetitionError, match="initialize") as err:
        run_single(config_from_mapping(mapping), 0)
    assert "no clean" in str(err.value) and "initial.clean = true" in str(err.value)
    mapping["initial.clean"] = "true"
    result = run_single(config_from_mapping(mapping), 0)
    assert len(result.reports) == 3


def test_repetition_error_names_batch_and_stage():
    mapping = small_mapping(**{"dataset.path": "/nonexistent/never.csv"})
    with pytest.raises(RepetitionError, match="stage load-dataset") as err:
        run_single(config_from_mapping(mapping), 0)
    assert err.value.repetition == 0


def test_splits_use_the_generated_features_as_loaded(monkeypatch):
    # dataset.separation shapes the data that is split, and every split keeps
    # the features it was given
    from cleanstream.core import generate_synthetic

    split_stream, splits = harness.split_stream, []

    def keep_split(dataset, stream, rng):
        initial, arrivals, test = split_stream(dataset, stream, rng)
        parts = [initial.instances, *(batch.instances for batch in arrivals), test]
        raw = [np.stack([inst.features for inst in part]) for part in parts]
        splits.append((np.stack([inst.features for inst in dataset]), parts, raw))
        return initial, arrivals, test

    monkeypatch.setattr(harness, "split_stream", keep_split)
    config = config_from_mapping(small_mapping(**{"dataset.separation": "7.5"}))
    run_single(config, 0)
    (dataset, parts, raw), = splits
    expected = generate_synthetic(config.stream, separation=7.5)
    np.testing.assert_array_equal(dataset, np.stack([inst.features for inst in expected]))
    for part, before in zip(parts, raw):
        np.testing.assert_array_equal(np.stack([inst.features for inst in part]), before)


def test_csv_dataset_width_must_match_num_features(tmp_path):
    from cleanstream.core import generate_synthetic, save_csv

    config = config_from_mapping(small_mapping(**{"stream.num_features": "3"}))
    path = tmp_path / "stream.csv"
    save_csv(generate_synthetic(config.stream), path)
    mapping = small_mapping(**{"dataset.path": str(path), "stream.num_features": "20"})
    with pytest.raises(RepetitionError, match="stage load-dataset") as err:
        run_single(config_from_mapping(mapping), 0)
    assert "stream.num_features = 20" in str(err.value)
    assert "3 feature columns" in str(err.value)


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_stream_edge_cases_keep_run_invariants(tmp_path, variant, case):
    check_fixed_stream(tmp_path, case, variant)


# ---------------------------------------------------------------------------
# files and layout

def test_experiment_writes_expected_layout(tmp_path):
    mapping = small_mapping(**{
        "run.repetitions": "2",
        "run.output_dir": str(tmp_path / "out"),
    })
    outcome = run_experiment(config_from_mapping(mapping))
    assert outcome.summary is not None
    assert outcome.summary.repetitions == 2
    for rep in range(2):
        csv = result_dir(tmp_path / "out", "voting", 0.3, rep) / "batches.csv"
        assert csv.is_file()
        lines = csv.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 3
    text = (tmp_path / "out" / "summary.txt").read_text(encoding="utf-8")
    assert text.count("run variant=voting") == 2
    assert "aggregate variant=voting" in text
    assert "final_accuracy=" in text


def test_matrix_expands_variants_times_noise_levels():
    mapping = small_mapping(**{
        "matrix.variants": "rad, voting, no_sel",
        "matrix.noise_levels": "0.0, 0.4",
    })
    configs = expand_matrix(mapping)
    assert len(configs) == 6
    assert {(c.variant, c.noise.mean_level) for c in configs} == {
        (v, nz) for v in ("rad", "voting", "no_sel") for nz in (0.0, 0.4)
    }


@pytest.mark.parametrize(
    "matrix, variants, noise_levels",
    [
        ({"matrix.variants": "rad, ,voting", "matrix.noise_levels": " 0.3 ,0.6"},
         ["rad", "voting"], ["0.3", "0.6"]),
        ({"matrix.variants": ",active,"}, ["active"], ["0.3"]),
        ({"matrix.noise_levels": "0,, 1"}, ["voting"], ["0", "1"]),
        ({}, ["voting"], ["0.3"]),
    ],
)
def test_matrix_cells_equal_single_configs(matrix, variants, noise_levels):
    """Each cell is the single config of its variant and noise mean."""
    single = small_mapping()
    assert expand_matrix({**single, **matrix}) == [
        config_from_mapping({**single, "framework.variant": variant, "noise.mean": noise})
        for noise in noise_levels
        for variant in variants
    ]


@pytest.mark.parametrize("key, raw", [("matrix.variants", "rad,bogus"),
                                      ("matrix.noise_levels", "0.3,abc")])
def test_single_configs_check_matrix_entries_too(key, raw):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: entry "):
        config_from_mapping(small_mapping(**{key: raw}))


def test_run_matrix_rejects_an_empty_list():
    with pytest.raises(ValueError, match="run_matrix needs at least one config"):
        run_matrix([])


@pytest.mark.parametrize(
    "variants, noise_levels, message",
    [
        ("rad,rad", "0.3", "matrix.variants: rad"),
        ("rad, voting", "0.3,0.30", "matrix.noise_levels: 0.3"),
        ("no_sel", "0.4, 4e-1", "matrix.noise_levels: 0.4"),
    ],
)
def test_matrix_rejects_repeated_cells(variants, noise_levels, message):
    mapping = small_mapping(**{
        "matrix.variants": variants,
        "matrix.noise_levels": noise_levels,
    })
    with pytest.raises(ConfigError, match=re.escape(message)):
        expand_matrix(mapping)


BAD_MATRIX_ENTRIES = [
    ({"matrix.noise_levels": "0.3,1.5"},
     "matrix.noise_levels: entry '1.5': mean_level must be in [0, 1]"),
    ({"matrix.noise_levels": "0.3,abc"},
     "matrix.noise_levels: entry 'abc': expected a finite number"),
    ({"matrix.noise_levels": "inf"}, "matrix.noise_levels: entry 'inf': expected a finite number"),
    ({"matrix.variants": "rad,bogus"}, "matrix.variants: entry 'bogus': expected one of rad,"),
    # the base variant is checked even when the matrix replaces it in every cell
    ({"framework.variant": "bogus", "matrix.variants": "rad"},
     "framework.variant: expected one of rad,"),
]


@pytest.mark.parametrize(
    "overrides, message",
    BAD_MATRIX_ENTRIES,
    ids=["-".join([*overrides.values(), message]) for overrides, message in BAD_MATRIX_ENTRIES],
)
def test_matrix_names_the_bad_entry(tmp_path, capsys, overrides, message):
    """A bad matrix entry, or base key, is reported under its own key."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        expand_matrix(small_mapping(**overrides))
    code = cli_main(["matrix", "--config", str(write_config(tmp_path)),
                     *(f"--{key}={value}" for key, value in overrides.items())])
    assert code == 2
    assert message in capsys.readouterr().err


def summary_of(variant: str, noise: float, final: float) -> harness.ExperimentOutcome:
    """A one-repetition outcome whose final accuracy is ``final``."""
    base = config_from_mapping(small_mapping())
    config = replace(base, variant=variant, noise=replace(base.noise, mean_level=noise))
    result = RunResult(0, 0, 0.5, [BatchReport(1, noise, 10, 5, 0, 0, test_accuracy=final)])
    return harness.ExperimentOutcome(config, [result], aggregate_runs([result]), [])


def test_gains_use_only_the_baselines_at_the_same_noise():
    outcomes = [
        summary_of("rad", 0.3, 0.8),
        summary_of("no_sel", 0.3, 0.7),
        summary_of("full_clean", 0.3, 0.9),
        summary_of("rad", 0.6, 0.8),
    ]
    header, *rows = [line.split() for line in comparison_lines(outcomes)]
    at_03, at_06 = dict(zip(header, rows[0])), dict(zip(header, rows[3]))
    assert (at_03["improvement"], at_03["improvement_room"]) == ("0.1000", "0.2000")
    assert (at_06["no_sel"], at_06["full_clean"]) == ("NA", "NA")
    assert (at_06["improvement"], at_06["improvement_room"]) == ("NA", "NA")

    aggregates = [line for line in summary_lines(outcomes) if line.startswith("aggregate ")]
    assert aggregates[0].endswith(f"improvement={0.8 - 0.7!r} improvement_room={0.9 - 0.7!r}")
    assert aggregates[3].endswith("improvement=NA improvement_room=NA")


# What the matrix below must write, byte for byte: comparison.txt, and summary.txt's digest.
PINNED_COMPARISON = """\
variant     noise  initial_accuracy  no_sel  opt_sel  full_clean  final_accuracy  improvement_room  improvement
rad         0.3    0.9500            0.7875  NA       0.9625      0.9625          0.1750            0.1750
no_sel      0.3    0.9500            0.7875  NA       0.9625      0.7875          0.1750            0.0000
full_clean  0.3    0.9500            0.7875  NA       0.9625      0.9625          0.1750            0.1750
voting      0.3    0.9500            0.7875  NA       0.9625      0.9625          0.1750            0.1750
rad         0.6    0.9625            0.6500  NA       NA          0.9625          NA                NA
no_sel      0.6    0.9625            0.6500  NA       NA          0.6500          NA                NA
"""
PINNED_SUMMARY_SHA256 = "30734be34a1bf90582158846274d73dcd0700a095f30beac09330e441a55469b"


def test_matrix_report_files_are_pinned(tmp_path):
    """A matrix with gaps in its baselines writes pinned summary and comparison files."""
    base = config_from_mapping(small_mapping(**{
        "run.repetitions": "2",
        "run.output_dir": str(tmp_path),
    }))
    cells = [("rad", 0.3), ("no_sel", 0.3), ("full_clean", 0.3), ("voting", 0.3),
             ("rad", 0.6), ("no_sel", 0.6)]
    run_matrix([
        replace(base, variant=variant, noise=replace(base.noise, mean_level=noise))
        for variant, noise in cells
    ])
    assert (tmp_path / "comparison.txt").read_text(encoding="utf-8") == PINNED_COMPARISON
    summary = (tmp_path / "summary.txt").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == PINNED_SUMMARY_SHA256


def test_matrix_isolates_failing_configs(tmp_path, monkeypatch):
    real = harness.run_single

    def failing(config, repetition):
        if config.variant == "voting":
            raise RepetitionError(repetition, 0, "step", RuntimeError("boom"))
        return real(config, repetition)

    monkeypatch.setattr(harness, "run_single", failing)
    mapping = small_mapping(**{"matrix.variants": "voting, no_sel"})
    outcomes = run_matrix(expand_matrix(mapping))
    by_variant = {o.config.variant: o for o in outcomes}
    assert by_variant["voting"].summary is None
    assert by_variant["voting"].errors
    assert by_variant["no_sel"].summary is not None


def test_failed_repetition_does_not_stop_the_rest(monkeypatch):
    real = harness.run_single
    calls = []

    def flaky(config, repetition):
        calls.append(repetition)
        if repetition == 1:
            raise RepetitionError(repetition, 2, "step", RuntimeError("boom"))
        return real(config, repetition)

    monkeypatch.setattr(harness, "run_single", flaky)
    config = config_from_mapping(small_mapping(**{"run.repetitions": "3"}))
    outcome = harness.run_experiment(config)
    assert calls == [0, 1, 2]
    assert outcome.summary.repetitions == 2
    assert len(outcome.errors) == 1


def test_experiment_returns_errors_when_every_repetition_fails(tmp_path, monkeypatch):
    def failing(config, repetition):
        raise RepetitionError(repetition, 0, "step", RuntimeError("boom"))

    monkeypatch.setattr(harness, "run_single", failing)
    out = tmp_path / "out"
    config = config_from_mapping(small_mapping(**{
        "run.repetitions": "2",
        "run.output_dir": str(out),
    }))
    outcome = run_experiment(config)
    assert outcome.results == [] and outcome.summary is None
    assert [e.repetition for e in outcome.errors] == [0, 1]
    assert not out.exists()


# ---------------------------------------------------------------------------
# one dataset per distinct stream in a run_matrix call

def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``harness.<name>`` so that each call's arguments are recorded."""
    real, calls = getattr(harness, name), []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_matrix_builds_its_dataset_once_and_writes_what_single_runs_write(
    tmp_path, monkeypatch
):
    builds = count_calls(monkeypatch, "generate_synthetic")
    out = tmp_path / "matrix"
    configs = expand_matrix(small_mapping(**{
        "matrix.variants": "voting, slimmed, no_sel, full_clean",
        "matrix.noise_levels": "0.3, 0.6",
        "run.repetitions": "2",
        "run.output_dir": str(out),
    }))
    outcomes = run_matrix(configs)
    assert len(builds) == 1
    assert [len(o.results) for o in outcomes] == [2] * 8
    alone = tmp_path / "alone.csv"
    for config in configs:
        for repetition in range(2):
            write_reports_csv(run_single(config, repetition).reports, alone)
            cell = result_dir(out, config.variant, config.noise.mean_level, repetition)
            assert (cell / "batches.csv").read_bytes() == alone.read_bytes()
    assert len(builds) == 1 + 16  # a bare run_single builds its own


def test_matrix_builds_one_dataset_per_separation(monkeypatch):
    builds = count_calls(monkeypatch, "generate_synthetic")
    base = config_from_mapping(small_mapping(**{"run.repetitions": "2"}))
    run_matrix([
        replace(base, variant=variant, separation=separation)
        for separation in (3.0, 7.5) for variant in ("voting", "no_sel")
    ])
    assert [kwargs["separation"] for _, kwargs in builds] == [3.0, 7.5]


def test_csv_matrix_loads_once_and_checks_each_width(tmp_path, monkeypatch):
    from cleanstream.core import generate_synthetic, save_csv

    path = tmp_path / "stream.csv"
    save_csv(generate_synthetic(config_from_mapping(small_mapping()).stream), path)
    loads = count_calls(monkeypatch, "load_csv")
    base = config_from_mapping(small_mapping(**{
        "dataset.path": str(path), "run.repetitions": "2",
    }))
    # a config of another width reads the same file, and its check still fails
    wide = replace(base, variant="no_sel", stream=replace(base.stream, num_features=20))
    outcomes = run_matrix([base, wide, replace(base, variant="no_sel")])
    assert len(loads) == 1
    assert [len(o.results) for o in outcomes] == [2, 0, 2]
    assert [e.stage for e in outcomes[1].errors] == ["load-dataset"] * 2
    assert all("5 feature columns" in str(e) for e in outcomes[1].errors)


def test_loaded_csv_rows_are_read_only(tmp_path):
    from cleanstream.core import generate_synthetic, save_csv

    path = tmp_path / "stream.csv"
    save_csv(generate_synthetic(config_from_mapping(small_mapping()).stream), path)
    dataset = load_csv(path, 3)
    assert not any(inst.features.flags.writeable for inst in dataset)
    with pytest.raises(ValueError):
        dataset[0].features[0] = 1.0


def test_no_dataset_outlives_its_matrix_call(monkeypatch):
    builds = count_calls(monkeypatch, "generate_synthetic")
    config = config_from_mapping(small_mapping())
    run_matrix([config])
    run_single(config, 0)
    real = harness.run_single

    def interrupted(config, repetition):
        real(config, repetition)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "run_single", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_matrix([config])
    monkeypatch.setattr(harness, "run_single", real)
    run_single(config, 0)
    run_matrix([config])
    assert len(builds) == 5


def test_purity_audit_catches_a_leak():
    from cleanstream.core import LabeledInstance
    from cleanstream.frameworks import FrameworkState

    test = LabeledInstance(features=np.zeros(2), given_label=0, true_label=0, uid=5)
    other = LabeledInstance(features=np.zeros(2), given_label=0, true_label=0, uid=6)
    # the instance itself, or a relabelled copy of it, in the pool or the history
    for leaked in (test, test.relabeled(1)):
        for pool, inactive in (([other, leaked], []), ([other], [[other], [leaked]])):
            state = FrameworkState(
                "no_sel", classifier=None, clean_pool=pool, rng=None, inactive=inactive
            )
            with pytest.raises(RuntimeError, match="leak"):
                harness._audit_test_purity(state, [test])
    clean = FrameworkState("no_sel", classifier=None, clean_pool=[other], rng=None,
                           inactive=[[other.relabeled(1)]])
    harness._audit_test_purity(clean, [test])


def test_run_single_audits_the_pools_against_the_test_set(monkeypatch):
    split_stream = harness.split_stream

    def leaky_split(dataset, stream, rng):
        initial, arrivals, test = split_stream(dataset, stream, rng)
        initial.instances.extend(test[:1])
        return initial, arrivals, test

    monkeypatch.setattr(harness, "split_stream", leaky_split)
    mapping = small_mapping(**{"framework.variant": "no_sel", "initial.clean": "true"})
    with pytest.raises(RepetitionError, match="stage audit: a test instance leaked"):
        run_single(config_from_mapping(mapping), 0)


# ---------------------------------------------------------------------------
# command line

def write_config(tmp_path, extra=""):
    lines = [f"{k} = {v}" for k, v in SMALL.items()]
    path = tmp_path / "exp.conf"
    path.write_text("\n".join(lines) + "\n" + extra, encoding="utf-8")
    return path


def test_cli_run_writes_results_and_prints_summary(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "cli-out"
    code = cli_main(["run", "--config", str(config), f"--run.output_dir={out}"])
    captured = capsys.readouterr()
    assert code == 0
    assert "aggregate variant=voting" in captured.out
    assert (out / "summary.txt").is_file()
    assert (result_dir(out, "voting", 0.3, 0) / "batches.csv").is_file()


def test_cli_override_changes_the_run(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli_main(["run", "--config", str(config), "--noise.mean=0.0",
                     "--noise.std=0.0"]) == 0
    out = capsys.readouterr().out
    assert "noise=0 " in out  # the override reached the run
    assert "noise=0.3" not in out


def test_cli_matrix_prints_comparison(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "matrix-out"
    code = cli_main([
        "matrix",
        "--config", str(config),
        "--matrix.variants=rad,no_sel,full_clean",
        "--matrix.noise_levels=0.3",
        f"--run.output_dir={out}",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0].startswith("variant")
    assert (out / "comparison.txt").is_file()


RUN_ARGS = ["--run.repetitions=2"]
MATRIX_ARGS = ["--matrix.variants=voting,no_sel", "--matrix.noise_levels=0.3"]


@pytest.mark.parametrize(
    "command, extra, failing, expected_code",
    [
        ("run", RUN_ARGS, (), 0),
        ("run", RUN_ARGS, (("voting", 0),), 1),
        ("run", RUN_ARGS, (("voting", 0), ("voting", 1)), 2),
        ("matrix", MATRIX_ARGS, (), 0),
        ("matrix", MATRIX_ARGS, (("voting", 0),), 1),
        ("matrix", MATRIX_ARGS, (("voting", 0), ("no_sel", 0)), 2),
    ],
)
def test_cli_exit_codes_match_for_run_and_matrix(
    tmp_path, capsys, monkeypatch, command, extra, failing, expected_code
):
    real = harness.run_single

    def flaky(config, repetition):
        if (config.variant, repetition) in failing:
            raise RepetitionError(repetition, 1, "step", RuntimeError("boom"))
        return real(config, repetition)

    monkeypatch.setattr(harness, "run_single", flaky)
    out = tmp_path / "out"
    code = cli_main([command, "--config", str(write_config(tmp_path)), *extra,
                     f"--run.output_dir={out}"])
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.err.count("error: variant=") == len(failing)
    for variant, repetition in failing:
        assert f"error: variant={variant} noise=0.3: repetition {repetition}," in captured.err
    files_written = expected_code < 2
    assert (out / "summary.txt").is_file() == files_written
    assert (out / "comparison.txt").is_file() == files_written
    assert (captured.out != "") == files_written


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--matrix.variants=rad,voting"], "matrix.variants"),
        (["--matrix.noise_levels=0.1,0.5"], "matrix.noise_levels"),
        (MATRIX_ARGS, "matrix.noise_levels, matrix.variants"),
    ],
)
def test_cli_run_rejects_matrix_keys(tmp_path, capsys, extra, named):
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(write_config(tmp_path)), *extra,
                     f"--run.output_dir={out}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {named}:")
    assert "cleanstream matrix" in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_gen_synthetic_produces_loadable_csv(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "data.csv"
    code = cli_main(["gen-synthetic", "--config", str(config), "--out", str(out)])
    assert code == 0
    dataset = load_csv(out, 3)
    assert len(dataset) == 50 + 3 * 20 + 40


def test_cli_module_runs_every_kind_on_a_csv_in_a_subprocess(tmp_path):
    # the module run as a program, so the exit status is what sys.exit makes
    # of main's return value
    config, data, out = write_config(tmp_path), tmp_path / "data.csv", tmp_path / "out"
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def cleanstream(command, *args):
        argv = [sys.executable, "-m", "cleanstream.cli", command, "--config", str(config), *args]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)

    assert cleanstream("gen-synthetic", "--out", str(data)).returncode == 0
    assert len(load_csv(data, 3)) == 50 + 3 * 20 + 40
    run = cleanstream("run", f"--dataset.path={data}", f"--run.output_dir={out / 'run'}")
    assert run.returncode == 0, run.stderr
    assert "aggregate variant=voting" in run.stdout
    assert (result_dir(out / "run", "voting", 0.3, 0) / "batches.csv").stat().st_size > 0
    matrix = cleanstream("matrix", f"--dataset.path={data}",
                         f"--matrix.variants={','.join(ALL_VARIANTS)}",
                         f"--run.output_dir={out / 'matrix'}")
    assert matrix.returncode == 0, matrix.stderr
    assert (out / "matrix" / "summary.txt").stat().st_size > 0
    comparison = (out / "matrix" / "comparison.txt").read_text(encoding="utf-8")
    for kind in ALL_VARIANTS:
        assert f"\n{kind} " in comparison
        assert (result_dir(out / "matrix", kind, 0.3, 0) / "batches.csv").stat().st_size > 0
    missing = cleanstream("run", f"--dataset.path={tmp_path / 'missing.csv'}")
    assert missing.returncode == 2 and "missing.csv" in missing.stderr


@pytest.mark.parametrize("width", [None, 3])
def test_cli_run_never_falls_back_from_a_dataset_path(tmp_path, capsys, width):
    # a missing file (width None), or a CSV 3 features wide where the config says 5
    config = write_config(tmp_path)
    path = tmp_path / "data.csv"
    if width is not None:
        assert cli_main(["gen-synthetic", "--config", str(config), "--out", str(path),
                         f"--stream.num_features={width}"]) == 0
        capsys.readouterr()
    code = cli_main(["run", "--config", str(config), f"--dataset.path={path}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "stage load-dataset" in captured.err and str(path) in captured.err
    if width is not None:
        assert "stream.num_features = 5, but" in captured.err
        assert "3 feature columns" in captured.err
    assert captured.out == ""


def test_cli_reports_config_errors_with_nonzero_exit(tmp_path, capsys):
    config = write_config(tmp_path, extra="stream.batch_size = soup\n")
    code = cli_main(["run", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert "stream.batch_size" in captured.err


def test_cli_rejects_malformed_overrides(tmp_path, capsys):
    config = write_config(tmp_path)
    code = cli_main(["run", "--config", str(config), "--bad-override"])
    captured = capsys.readouterr()
    assert code == 2
    assert "override" in captured.err or "key=value" in captured.err
    # argparse rejects "--=1" as an ambiguous abbreviation before the override
    # parser sees it; the parser's own check stands behind that
    code = cli_main(["run", "--config", str(config), "--=1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--=1" in captured.err and captured.out == ""
    with pytest.raises(ConfigError, match="override '--=1' has no key"):
        _parse_overrides(["--=1"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run"], "--config"),
        (["sail", "--config", "c.cfg"], "invalid choice"),
        (["gen-synthetic", "--config", "c.cfg"], "--out"),
        ([], "command"),
    ],
)
def test_cli_returns_2_with_the_parsers_message(argv, message, capsys):
    # called in-process, as the benchmark calls it: an exit code, not SystemExit
    code = cli_main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err and captured.out == ""


def test_cli_help_returns_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "gen-synthetic" in capsys.readouterr().out


def test_cli_missing_config_file(tmp_path, capsys):
    code = cli_main(["run", "--config", str(tmp_path / "absent.conf")])
    captured = capsys.readouterr()
    assert code == 2
    assert "absent.conf" in captured.err
