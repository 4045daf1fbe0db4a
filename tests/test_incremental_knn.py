"""Cross-check: incremental kNN test scoring predicts what ``predict_many`` does.

``StackedTestSet`` keeps each test row's k nearest pool rows and, when a kNN
model trained on a longer prefix of the same pool arrives, computes distances
only to the appended rows. Every kind runs through ``harness.run_single`` here
with ``evaluate_accuracy`` wrapped, so that at every evaluation the scorer's
predictions are compared with a full ``predict_many`` on the same model.
"""

from __future__ import annotations

import numpy as np
import pytest

from cleanstream import harness
from cleanstream.core import LabeledInstance, save_csv
from cleanstream.frameworks import ALL_VARIANTS
from cleanstream.models import KnnModel

SCENARIOS = {
    # integer features in {0, 1, 2}: the arithmetic is exact and many pool
    # rows tie at the k-th distance
    "integer_grid": {
        "grid": True,
        "stream.num_classes": "3",
        "stream.num_features": "2",
        "stream.initial_batch_size": "30",
        "stream.batch_size": "20",
        "stream.num_batches": "5",
        "classifier.knn_k": "4",
    },
    # knn_k is beyond the initial pool, so k grows while the stream runs
    "k_grows": {
        "grid": True,
        "stream.num_classes": "3",
        "stream.num_features": "3",
        "stream.initial_batch_size": "6",
        "stream.batch_size": "4",
        "stream.num_batches": "8",
        "classifier.knn_k": "15",
    },
    "two_classes_batch_of_one": {
        "grid": True,
        "stream.num_classes": "2",
        "stream.num_features": "2",
        "stream.initial_batch_size": "5",
        "stream.batch_size": "1",
        "stream.num_batches": "12",
        "classifier.knn_k": "3",
    },
    "continuous": {
        "grid": False,
        "stream.num_classes": "4",
        "stream.num_features": "5",
        "stream.initial_batch_size": "40",
        "stream.batch_size": "25",
        "stream.num_batches": "4",
        "classifier.knn_k": "5",
    },
}


def grid_dataset(path, size: int, num_features: int, num_classes: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(size, num_features)).astype(np.float64)
    labels = (X.sum(axis=1).astype(np.int64) + rng.integers(0, 2, size)) % num_classes
    save_csv(
        [LabeledInstance(x, int(c), int(c), uid=i) for i, (x, c) in enumerate(zip(X, labels))],
        path,
    )


def scenario_config(tmp_path, name: str, variant: str) -> harness.ExperimentConfig:
    settings = dict(SCENARIOS[name])
    grid = settings.pop("grid")
    mapping = {
        **settings,
        "stream.test_size": "40",
        "framework.variant": variant,
        "noise.mean": "0.3",
        "initial.clean": "true",
        "classifier.kind": "knn",
        "label_model.kind": "knn",
        "label_model.knn_k": "1",
    }
    if grid:
        size = (
            int(settings["stream.initial_batch_size"])
            + int(settings["stream.batch_size"]) * int(settings["stream.num_batches"])
            + 40
        )
        path = tmp_path / "grid.csv"
        grid_dataset(
            path,
            size,
            int(settings["stream.num_features"]),
            int(settings["stream.num_classes"]),
            seed=len(name),
        )
        mapping["dataset.path"] = str(path)
    return harness.config_from_mapping(mapping)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_incremental_scoring_matches_predict_many(monkeypatch, tmp_path, scenario, variant):
    evaluations = []  # (folded incrementally, rows the model was trained on)
    original = harness.evaluate_accuracy

    def checked(model, test):
        accuracy = original(model, test)
        folded = (
            isinstance(model, KnnModel)
            and test.pool is model.pool
            and test.folded == model.trained_on_count
        )
        evaluations.append((folded, model.trained_on_count))
        np.testing.assert_array_equal(test.predict(model), model.predict_many(test.X))
        assert accuracy == np.mean(model.predict_many(test.X) == test.truth)
        return accuracy

    monkeypatch.setattr(harness, "evaluate_accuracy", checked)
    config = scenario_config(tmp_path, scenario, variant)
    harness.run_single(config, 0)

    assert len(evaluations) == config.stream.num_batches + 1
    folded = [f for f, _ in evaluations]
    if variant == "slimmed":
        # slimmed retrains on a window, not the pool, so after its first
        # arrival every evaluation takes the full path
        assert folded == [True] + [False] * config.stream.num_batches
    else:
        assert all(folded)
    if variant in ("no_sel", "full_clean"):
        # these take every arrival, so the pool outgrows at least one
        # doubling of its buffers
        trained = [n for _, n in evaluations]
        assert trained[-1] > 2 * trained[0]
        if scenario == "k_grows":
            assert trained[0] < config.classifier_spec.knn_k < trained[-1]
