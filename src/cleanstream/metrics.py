"""Per-batch reports, run results, and cross-repetition aggregation.

The two stream-selection metrics are cumulative sums over arriving batches
(the initial batch never counts): ``active_fraction`` adds the selected
share of each batch, and ``active_truth_fraction`` adds the share whose
label, after any replacement or oracle correction, matches ground truth.
The first can only over-count the second, never the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class BatchReport:
    """What one arrival produced. Field order is the batches.csv column order."""

    batch_index: int
    drawn_noise_level: float
    selected_count: int
    selected_true_clean_count: int
    oracle_queries: int
    inactive_total: int
    test_accuracy: float = float("nan")
    cumulative_A: float = float("nan")
    cumulative_A_truth: float = float("nan")


CSV_COLUMNS = tuple(f.name for f in fields(BatchReport))


def _sum(values) -> float:
    """Add left to right: since Python 3.12 the built-in ``sum`` of floats is compensated."""
    total = 0.0
    for value in values:
        total += value
    return total


def _batch_share_sum(counts, batch_size: int) -> float:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return _sum(count / batch_size for count in counts)


def active_fraction(reports: list[BatchReport], batch_size: int) -> float:
    """Sum over arrivals of selected_count / batch size."""
    return _batch_share_sum((r.selected_count for r in reports), batch_size)


def active_truth_fraction(reports: list[BatchReport], batch_size: int) -> float:
    """Sum over arrivals of selected-and-correctly-labelled count / batch size."""
    return _batch_share_sum((r.selected_true_clean_count for r in reports), batch_size)


def write_reports_csv(reports: list[BatchReport], path) -> None:
    """Write per-batch rows with full-precision floats, one line per arrival."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for report in reports:
            cells = []
            for column in CSV_COLUMNS:
                value = getattr(report, column)
                cells.append(repr(float(value)) if isinstance(value, float) else str(value))
            fh.write(",".join(cells) + "\n")


@dataclass
class RunResult:
    """What one repetition of a config measured; the config says what ran."""

    repetition: int
    seed: int
    initial_accuracy: float
    reports: list[BatchReport]

    @property
    def oracle_queries_total(self) -> int:
        return sum(r.oracle_queries for r in self.reports)

    @property
    def final_accuracy(self) -> float:
        if not self.reports:
            return self.initial_accuracy
        return self.reports[-1].test_accuracy

    @property
    def final_A(self) -> float:
        return self.reports[-1].cumulative_A if self.reports else 0.0

    @property
    def final_A_truth(self) -> float:
        return self.reports[-1].cumulative_A_truth if self.reports else 0.0


@dataclass
class RunSummary:
    """Mean behaviour of one config's repetitions; the config says what ran."""

    repetitions: int
    initial_accuracy: float
    final_accuracy: float
    final_accuracy_variance: float
    final_A: float
    final_A_truth: float
    mean_oracle_queries: float


def _mean(values: list[float]) -> float:
    return _sum(values) / len(values)


def _variance(values: list[float]) -> float:
    m = _mean(values)
    return _sum((v - m) ** 2 for v in values) / len(values)


def aggregate_runs(results: list[RunResult]) -> RunSummary:
    """Average the repetitions of one config, whose seeds differ, into one summary."""
    if not results:
        raise ValueError("need at least one run result")
    finals = [r.final_accuracy for r in results]
    return RunSummary(
        repetitions=len(results),
        initial_accuracy=_mean([r.initial_accuracy for r in results]),
        final_accuracy=_mean(finals),
        final_accuracy_variance=_variance(finals),
        final_A=_mean([r.final_A for r in results]),
        final_A_truth=_mean([r.final_A_truth for r in results]),
        mean_oracle_queries=_mean([float(r.oracle_queries_total) for r in results]),
    )
