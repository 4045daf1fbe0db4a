"""Selection metrics, report CSV schema, and cross-repetition aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from cleanstream.metrics import (
    CSV_COLUMNS,
    BatchReport,
    RunResult,
    active_fraction,
    active_truth_fraction,
    aggregate_runs,
    write_reports_csv,
)


def report(index, selected, clean, **kw):
    base = dict(
        batch_index=index,
        drawn_noise_level=0.3,
        selected_count=selected,
        selected_true_clean_count=clean,
        oracle_queries=0,
        inactive_total=0,
    )
    base.update(kw)
    return BatchReport(**base)


def run_result(finals, rep=0):
    reports = [
        report(i + 1, 10, 5, test_accuracy=acc) for i, acc in enumerate(finals)
    ]
    return RunResult(
        repetition=rep,
        seed=rep,
        initial_accuracy=0.5,
        reports=reports,
    )


# ---------------------------------------------------------------------------
# the two cumulative fractions

def test_fraction_arithmetic_by_hand():
    # batch size 30: 30/30 + 15/30 = 1.5 selected; 20/30 + 10/30 = 1.0 correct
    reports = [report(1, 30, 20), report(2, 15, 10)]
    assert active_fraction(reports, 30) == pytest.approx(1.5)
    assert active_truth_fraction(reports, 30) == pytest.approx(1.0)


def test_fractions_of_empty_history_are_zero():
    assert active_fraction([], 30) == 0.0
    assert active_truth_fraction([], 30) == 0.0


def test_fraction_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        active_fraction([], 0)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        active_truth_fraction([], 0)


def test_truth_fraction_stalls_when_selection_is_all_wrong():
    # selected instances whose labels are all wrong: A grows, A-truth stays flat
    reports = [report(i, 10, 0) for i in range(1, 6)]
    assert active_fraction(reports, 10) == pytest.approx(5.0)
    assert active_truth_fraction(reports, 10) == 0.0


# ---------------------------------------------------------------------------
# csv schema

def test_csv_columns_match_report_fields_in_order():
    assert CSV_COLUMNS == (
        "batch_index",
        "drawn_noise_level",
        "selected_count",
        "selected_true_clean_count",
        "oracle_queries",
        "inactive_total",
        "test_accuracy",
        "cumulative_A",
        "cumulative_A_truth",
    )


def test_written_csv_round_trips_values(tmp_path):
    reports = [
        report(1, 30, 20, test_accuracy=1 / 3, cumulative_A=1.0, cumulative_A_truth=2 / 3),
        report(2, 15, 10, test_accuracy=0.55, cumulative_A=1.5, cumulative_A_truth=1.0),
    ]
    path = tmp_path / "batches.csv"
    write_reports_csv(reports, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[6]) == 1 / 3  # full-precision round trip
    assert first[2] == "30"


# ---------------------------------------------------------------------------
# aggregation

def test_aggregate_means_and_variances_match_numpy():
    results = [run_result([0.5, 0.6], rep=0), run_result([0.7, 0.8], rep=1),
               run_result([0.6, 0.9], rep=2)]
    summary = aggregate_runs(results)
    finals = np.array([0.6, 0.8, 0.9])
    assert summary.final_accuracy == pytest.approx(finals.mean())
    assert summary.final_accuracy_variance == pytest.approx(finals.var())
    assert summary.initial_accuracy == 0.5
    assert summary.mean_oracle_queries == 0.0
    assert summary.repetitions == 3


def test_aggregate_adds_left_to_right_on_every_python():
    # a compensated sum, as the built-in sum() of 3.12 on, gives 0.9355000000000001
    summary = aggregate_runs([run_result([acc]) for acc in (0.935, 0.936, 0.9355)])
    assert summary.final_accuracy == 0.9354999999999999


def test_aggregate_rejects_no_results():
    with pytest.raises(ValueError, match="at least one"):
        aggregate_runs([])


def test_aggregate_single_run_has_zero_variance():
    summary = aggregate_runs([run_result([0.5, 0.75])])
    assert summary.final_accuracy == 0.75
    assert summary.final_accuracy_variance == 0.0


def test_run_result_without_arrivals_falls_back_to_initial():
    result = RunResult(repetition=0, seed=0, initial_accuracy=0.41, reports=[])
    assert result.final_accuracy == 0.41
    assert result.final_A == 0.0
    assert result.final_A_truth == 0.0
