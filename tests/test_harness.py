"""Experiment harness: config parsing, run loop wiring, files, and the CLI."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import cleanstream.harness as harness
from cleanstream.cli import main as cli_main
from cleanstream.core import load_csv
from cleanstream.frameworks import ALL_VARIANTS
from cleanstream.harness import (
    CONFIG_KEYS,
    ConfigError,
    RepetitionError,
    apply_overrides,
    config_from_mapping,
    expand_matrix,
    parse_config_text,
    result_dir,
    run_experiment,
    run_matrix,
    run_single,
)

SMALL = {
    "stream.num_classes": "3",
    "stream.num_features": "5",
    "stream.initial_batch_size": "50",
    "stream.batch_size": "20",
    "stream.num_batches": "3",
    "stream.test_size": "40",
    "noise.mean": "0.3",
    "classifier.kind": "knn",
    "classifier.knn_k": "3",
    "label_model.kind": "centroid",
    "framework.variant": "voting",
}


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


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="stream.batch_size"):
        config_from_mapping(small_mapping(**{"stream.batch_size": "many"}))
    with pytest.raises(ConfigError, match="noise.mean"):
        config_from_mapping(small_mapping(**{"noise.mean": "lots"}))
    with pytest.raises(ConfigError, match="dataset.scale"):
        config_from_mapping(small_mapping(**{"dataset.scale": "perhaps"}))


@pytest.mark.parametrize(
    "key", ["noise.std", "dataset.separation", "classifier.mlp_learning_rate", "oracle.fraction"]
)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_numbers_are_rejected(key, raw):
    with pytest.raises(ConfigError, match=rf"{re.escape(key)}: expected a finite number"):
        config_from_mapping(small_mapping(**{key: raw}))


def test_variant_and_source_validation():
    with pytest.raises(ConfigError, match="framework.variant"):
        config_from_mapping(small_mapping(**{"framework.variant": "psychic"}))
    with pytest.raises(ConfigError, match="dataset.source"):
        config_from_mapping(small_mapping(**{"dataset.source": "parquet"}))
    with pytest.raises(ConfigError, match="dataset.path"):
        config_from_mapping(small_mapping(**{"dataset.source": "csv"}))


def test_defaults_and_typed_fields():
    config = config_from_mapping(small_mapping())
    assert config.stream.num_classes == 3
    assert config.noise.std_dev_mode == "relative"
    assert config.classifier_spec.kind == "knn"
    assert config.classifier_spec.num_classes == 3
    assert config.label_spec.kind == "centroid"
    assert config.budget.fraction == 1.0
    assert config.repetitions == 1
    assert config.output_dir is None


def test_mlp_hidden_parses_comma_separated_widths():
    config = config_from_mapping(small_mapping(**{"label_model.kind": "mlp",
                                                  "label_model.mlp_hidden": "12,7"}))
    assert config.label_spec.mlp_hidden == (12, 7)


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
        if isinstance(default, tuple):
            return ",".join(str(part) for part in default)
        return str(default)

    assert documented == {key: written(default) for key, (_, default) in CONFIG_KEYS.items()}


def test_overrides_layer_on_top():
    merged = apply_overrides(small_mapping(), {"noise.mean": "0.9"})
    assert merged["noise.mean"] == "0.9"
    assert merged["stream.batch_size"] == "20"


# ---------------------------------------------------------------------------
# run loop wiring

def test_run_single_fills_cumulative_metrics():
    result = run_single(config_from_mapping(small_mapping()), 0)
    assert len(result.reports) == 3
    running_a = 0.0
    for r in result.reports:
        running_a += r.selected_count / 20
        assert r.cumulative_A == running_a
        assert r.cumulative_A >= r.cumulative_A_truth
        assert 0.0 <= r.test_accuracy <= 1.0
    assert result.final_accuracy == result.reports[-1].test_accuracy


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
        "noise.std_mode": "absolute",
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
    mapping = small_mapping(**{
        "dataset.source": "csv",
        "dataset.path": "/nonexistent/never.csv",
    })
    with pytest.raises(RepetitionError, match="stage load-dataset") as err:
        run_single(config_from_mapping(mapping), 0)
    assert err.value.repetition == 0


def test_feature_scaling_toggle_changes_inputs():
    plain = run_single(config_from_mapping(small_mapping()), 0)
    scaled = run_single(config_from_mapping(small_mapping(**{"dataset.scale": "true"})), 0)
    assert len(plain.reports) == len(scaled.reports)
    # same stream, different feature geometry; selection usually shifts
    assert plain.reports[0].selected_count >= 0 and scaled.reports[0].selected_count >= 0


def test_csv_dataset_source_round_trip(tmp_path):
    from cleanstream.core import generate_synthetic, save_csv

    config = config_from_mapping(small_mapping())
    path = tmp_path / "stream.csv"
    save_csv(generate_synthetic(config.stream, separation=4.0), path)
    mapping = small_mapping(**{"dataset.source": "csv", "dataset.path": str(path)})
    result = run_single(config_from_mapping(mapping), 0)
    assert len(result.reports) == 3


def test_csv_dataset_width_must_match_num_features(tmp_path):
    from cleanstream.core import generate_synthetic, save_csv

    config = config_from_mapping(small_mapping(**{"stream.num_features": "3"}))
    path = tmp_path / "stream.csv"
    save_csv(generate_synthetic(config.stream), path)
    mapping = small_mapping(**{
        "dataset.source": "csv",
        "dataset.path": str(path),
        "stream.num_features": "20",
    })
    with pytest.raises(RepetitionError, match="stage load-dataset") as err:
        run_single(config_from_mapping(mapping), 0)
    assert "stream.num_features = 20" in str(err.value)
    assert "3 feature columns" in str(err.value)


EDGE_CASES = {
    "batch_of_one": {"stream.batch_size": "1"},
    "two_classes": {"stream.num_classes": "2"},
    "knn_k_beyond_pool": {
        "classifier.knn_k": "500",
        "label_model.kind": "knn",
        "label_model.knn_k": "500",
    },
    "zero_oracle_budget": {"oracle.fraction": "0"},
    "all_noise_arrivals": {
        "noise.mean": "1.0",
        "noise.std_mode": "absolute",
        "noise.std": "0.0",
        "initial.clean": "true",
    },
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_stream_edge_cases_keep_run_invariants(variant, case):
    mapping = small_mapping(**EDGE_CASES[case])
    mapping["framework.variant"] = variant
    config = config_from_mapping(mapping)
    result = run_single(config, 0)
    batch_size = config.stream.batch_size
    cap = config.budget.max_queries(batch_size)
    assert len(result.reports) == config.stream.num_batches
    for r in result.reports:
        assert 0 <= r.selected_count <= batch_size
        assert r.cumulative_A >= r.cumulative_A_truth
        assert r.oracle_queries <= cap
    assert result.oracle_queries_total == sum(r.oracle_queries for r in result.reports)


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


def test_rerun_is_byte_identical(tmp_path):
    for name in ("one", "two"):
        mapping = small_mapping(**{"run.output_dir": str(tmp_path / name)})
        run_experiment(config_from_mapping(mapping))
    first = (result_dir(tmp_path / "one", "voting", 0.3, 0) / "batches.csv").read_bytes()
    second = (result_dir(tmp_path / "two", "voting", 0.3, 0) / "batches.csv").read_bytes()
    assert first == second
    assert (tmp_path / "one" / "summary.txt").read_bytes() == (
        tmp_path / "two" / "summary.txt"
    ).read_bytes()


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


@pytest.mark.parametrize(
    "noise_levels, message",
    [
        ("0.3,1.5", "matrix.noise_levels: entry '1.5': mean_level must be in [0, 1]"),
        ("0.3,abc", "matrix.noise_levels: entry 'abc': expected a finite number"),
        ("inf", "matrix.noise_levels: entry 'inf': expected a finite number"),
    ],
)
def test_matrix_names_the_bad_noise_level(tmp_path, capsys, noise_levels, message):
    mapping = small_mapping(**{"matrix.noise_levels": noise_levels})
    with pytest.raises(ConfigError, match=re.escape(message)):
        expand_matrix(mapping)
    code = cli_main(["matrix", "--config", str(write_config(tmp_path)),
                     f"--matrix.noise_levels={noise_levels}"])
    assert code == 2
    assert message in capsys.readouterr().err


def test_matrix_runs_attach_improvements_and_write_comparison(tmp_path):
    mapping = small_mapping(**{
        "matrix.variants": "rad, no_sel, full_clean",
        "matrix.noise_levels": "0.3",
        "run.output_dir": str(tmp_path / "matrix"),
        "label_model.kind": "centroid",
    })
    outcomes = run_matrix(expand_matrix(mapping))
    assert len(outcomes) == 3
    summaries = {o.summary.variant: o.summary for o in outcomes}
    rad = summaries["rad"]
    assert rad.improvement == pytest.approx(
        rad.final_accuracy - summaries["no_sel"].final_accuracy
    )
    assert rad.improvement_room == pytest.approx(
        summaries["full_clean"].final_accuracy - summaries["no_sel"].final_accuracy
    )
    comparison = (tmp_path / "matrix" / "comparison.txt").read_text(encoding="utf-8")
    header, *rows = comparison.strip().split("\n")
    assert header.split()[:2] == ["variant", "noise"]
    assert len(rows) == 3
    assert (tmp_path / "matrix" / "summary.txt").is_file()
    for variant in ("rad", "no_sel", "full_clean"):
        assert (result_dir(tmp_path / "matrix", variant, 0.3, 0) / "batches.csv").is_file()


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


def test_purity_audit_catches_a_leak():
    from cleanstream.core import LabeledInstance
    from cleanstream.frameworks import FrameworkState

    leaked = LabeledInstance(features=np.zeros(2), given_label=0, true_label=0)
    for pool, inactive in (([leaked], []), ([], [[leaked]])):
        state = FrameworkState("no_sel", None, None, pool, None, inactive=inactive)
        with pytest.raises(RuntimeError, match="leak"):
            harness._audit_test_purity(state, [leaked])


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
                     "--noise.std_mode=absolute", "--noise.std=0.0"]) == 0
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


def test_cli_missing_config_file(tmp_path, capsys):
    code = cli_main(["run", "--config", str(tmp_path / "absent.conf")])
    captured = capsys.readouterr()
    assert code == 2
    assert "absent.conf" in captured.err
