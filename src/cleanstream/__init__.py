"""Continual learning from label-noisy data streams.

A two-layer pipeline: a label-quality model decides which arriving
instances look correctly labelled, and a classifier trains only on the
accepted pool. Variants add classifier voting, an oracle for disagreements,
and a slimmed single-model mode. Baselines (take-everything, omniscient
selection, fully clean labels) bracket what selection can achieve.
"""

from .core import (
    Batch,
    CsvFormatError,
    Dataset,
    LabeledInstance,
    StreamConfig,
    StreamSizeError,
    generate_synthetic,
    load_csv,
    save_csv,
    split_stream,
)
from .frameworks import (
    BASELINE_KINDS,
    VARIANTS,
    FrameworkState,
    GroundTruthOracle,
    OracleBudget,
    cleanse,
    initialize,
    voting_filter,
)
from .harness import ExperimentConfig, config_from_mapping, run_experiment, run_matrix, run_single
from .metrics import BatchReport, RunResult, RunSummary, active_fraction, active_truth_fraction
from .models import ClassifierSpec, evaluate_accuracy, predict_batch, train
from .noise import NoiseSpec, draw_batch_noise_level, inject_symmetric_noise

__version__ = "0.1.0"

__all__ = [
    "BASELINE_KINDS",
    "Batch",
    "BatchReport",
    "ClassifierSpec",
    "CsvFormatError",
    "Dataset",
    "ExperimentConfig",
    "FrameworkState",
    "GroundTruthOracle",
    "LabeledInstance",
    "NoiseSpec",
    "OracleBudget",
    "RunResult",
    "RunSummary",
    "StreamConfig",
    "StreamSizeError",
    "VARIANTS",
    "active_fraction",
    "active_truth_fraction",
    "cleanse",
    "config_from_mapping",
    "draw_batch_noise_level",
    "evaluate_accuracy",
    "generate_synthetic",
    "initialize",
    "inject_symmetric_noise",
    "load_csv",
    "predict_batch",
    "run_experiment",
    "run_matrix",
    "run_single",
    "save_csv",
    "split_stream",
    "train",
    "voting_filter",
]
