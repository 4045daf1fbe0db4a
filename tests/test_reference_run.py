"""Differential test: ``run_single`` against the literal reference run.

For every kind, hypothesis draws small streams (two to four classes, three
features, batches of 1 to 25, 1 to 6 arrivals, ``knn_k`` 1, 3 or beyond
the pool, any noise level and oracle budget, all-noise arrivals after a
clean initial batch, close or far classes) with any model kind in either
role and 2-epoch MLPs. Each must give the reference's initial accuracy and
per-arrival reports, field for field, and fail exactly when the reference
fails. So the optimised paths (the lazy label-model retrain, the
incremental kNN fold and its prefilter, the pool buffers, the fused SGD
step, the batched flip draw) are held to a plain reading of the kinds.
Each kind is its own test, so every kind gets the whole example budget.

The same ``run_single`` run is checked after every arrival against the run
invariants, and at every evaluation the incremental test scorer against a
fresh ``predict_many`` (:func:`checked_arrivals`). The fixed streams of
``FIXED_STREAMS`` go through the same checks for every kind: the stream
edge cases, integer-grid streams whose kNN distances tie exactly, which
random continuous streams never do, overlapping classes on which the
oracle changes labels, and a stream read from a CSV. The edge cases run
under ``tests/test_harness.py``'s ``test_stream_edge_cases_keep_run_invariants``,
the others under :func:`test_fixed_stream_matches_the_reference_run`; both
call :func:`check_fixed_stream`.
"""

from __future__ import annotations

import ast
import itertools
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_run import reference_run

from cleanstream import frameworks, harness
from cleanstream.core import LabeledInstance, generate_synthetic, save_csv
from cleanstream.frameworks import ALL_VARIANTS, LABEL_MODEL_VARIANTS, GroundTruthOracle
from cleanstream.harness import RepetitionError, config_from_mapping, run_single
from cleanstream.models import MODEL_KINDS, KnnModel, features_matrix, given_labels


@contextmanager
def checked_arrivals(config):
    """Check the ``run_single`` run inside after every arrival and evaluation.

    After every arrival it checks the run invariants. At every evaluation it
    checks that the test set's scorer predicts what ``predict_many`` does, and
    records whether the scorer took the incremental fold, with the number of
    rows the model was trained on. A failure is recorded, not raised, since
    ``run_single`` would turn it into a ``RepetitionError``, which the
    differential test reads as a failure the reference must share.
    """
    # relabels: oracle answers that differ from the given label;
    # evaluations: (folded incrementally, rows the model was trained on)
    checks = SimpleNamespace(queries=0, relabels=0, evaluations=[], failures=[])
    step, answer, evaluate = frameworks.step, GroundTruthOracle.answer, harness.evaluate_accuracy
    delivered: set[int] = set()  # uids, since a relabel makes a new record

    def counting_answer(oracle, instance):
        checks.queries += 1
        checks.relabels += instance.given_label != instance.true_label
        return answer(oracle, instance)

    def checked_step(state, batch):
        if not delivered:  # the pool as initialize seeded it from the initial batch
            delivered.update(inst.uid for inst in state.clean_pool)
        delivered.update(inst.uid for inst in batch.instances)
        queries, trained_before = checks.queries, state.classifier.trained_on_count
        state, report = step(state, batch)
        try:
            check_arrival(config, state, batch, report, checks.queries - queries, trained_before)
            held = {inst.uid for inst in itertools.chain(state.clean_pool, *state.inactive)}
            assert held <= delivered
        except AssertionError as exc:
            checks.failures.append(f"arrival {batch.index}: {exc}")
        return state, report

    def checked_evaluate(model, test):
        accuracy = evaluate(model, test)
        folded = (
            isinstance(model, KnnModel)
            and test.pool is model.pool
            and test.folded == model.trained_on_count
        )
        checks.evaluations.append((folded, model.trained_on_count))
        # the model's rows are folded in by now, so this folds nothing new
        if not np.array_equal(test.predict(model), model.predict_many(test.X)):
            checks.failures.append(
                f"evaluation {len(checks.evaluations) - 1}: the scorer differs from predict_many"
            )
        return accuracy

    with patch.object(frameworks, "step", checked_step), patch.object(
        GroundTruthOracle, "answer", counting_answer
    ), patch.object(harness, "evaluate_accuracy", checked_evaluate):
        yield checks


def check_arrival(config, state, batch, report, queries, trained_before) -> None:
    assert 0 <= report.selected_count <= len(batch.instances)
    assert report.oracle_queries == queries
    assert report.oracle_queries <= config.budget.max_queries(len(batch.instances))
    # records are immutable, so the pool's buffers, stacked once at append
    # time, still match its instances
    np.testing.assert_array_equal(state.clean_pool.X, features_matrix(state.clean_pool))
    np.testing.assert_array_equal(state.clean_pool.y, given_labels(state.clean_pool))
    # the models are the only record of what they were trained on
    assert state.classifier.spec is config.classifier_spec
    if config.variant in LABEL_MODEL_VARIANTS:
        assert state.label_model.spec is config.label_spec
        # the label model retrains on its first read after the classifier
        # did, so it is either current or one retrain behind a classifier
        # trained on the whole pool
        assert state.label_model.trained_on_count == state.classifier.trained_on_count or (
            state.label_model.trained_on_count == trained_before
            and state.classifier.trained_on_count == len(state.clean_pool)
        )
    if config.variant != "slimmed":  # slimmed trains on a window
        trained = state.classifier.trained_on_count
        assert trained <= len(state.clean_pool)
        if config.variant != "voting":  # voting's history joins after the retrain
            assert trained == len(state.clean_pool)


def model_options(draw, role: str) -> dict:
    return {
        f"{role}.kind": draw(st.sampled_from(MODEL_KINDS)),
        f"{role}.knn_k": draw(st.sampled_from([1, 3, 500])),  # 500 is beyond every pool here
    }


@st.composite
def configs(draw):
    """A small config and a repetition; only ``framework.variant`` is left at its default."""
    mapping = {
        "stream.num_classes": draw(st.integers(2, 4)),
        "stream.num_features": 3,
        "stream.initial_batch_size": draw(st.integers(1, 20)),
        "stream.batch_size": draw(st.integers(1, 25)),
        "stream.num_batches": draw(st.integers(1, 6)),
        "stream.test_size": draw(st.integers(1, 20)),
        "stream.seed": draw(st.integers(0, 10_000)),
        "dataset.separation": draw(st.floats(0.5, 3.0)),
        "noise.mean": draw(st.floats(0.0, 1.0)),
        "noise.std": draw(st.sampled_from([0.0, 0.2, 1.0])),
        "noise.seed": draw(st.integers(0, 10_000)),
        "initial.clean": draw(st.booleans()),
        "oracle.fraction": draw(st.sampled_from([0.0, 0.1, 0.29, 0.5, 1.0])),
        "classifier.seed": draw(st.integers(0, 10_000)),
        **model_options(draw, "label_model"),
        **model_options(draw, "classifier"),
    }
    if draw(st.integers(0, 3)) == 0:  # about one in four: every arrival is all noise
        mapping.update({"noise.mean": 1, "noise.std": 0, "initial.clean": True})
    config = config_from_mapping({key: str(value) for key, value in mapping.items()})
    # the MLP's sizes are set from Python, as config files cannot name them
    mlp = {"mlp_hidden": (4,), "mlp_epochs": 2, "mlp_batch_size": draw(st.sampled_from([1, 8]))}
    config = replace(
        config,
        label_spec=replace(config.label_spec, **mlp),
        classifier_spec=replace(config.classifier_spec, **mlp),
    )
    return config, draw(st.integers(0, 3))


def checked_run(config, repetition: int):
    """``run_single`` under :func:`checked_arrivals`, held to ``reference_run``.

    Returns the result, or ``None`` if the run failed as the reference does,
    with the checks.
    """
    with checked_arrivals(config) as checks:
        try:
            result = run_single(config, repetition)
        except RepetitionError:
            result = None
    assert not checks.failures, checks.failures[0]
    if result is None:
        with pytest.raises(ValueError):
            reference_run(config, repetition)
        return None, checks
    for report in result.reports:
        assert report.cumulative_A >= report.cumulative_A_truth
    initial_accuracy, reports = reference_run(config, repetition)
    assert result.initial_accuracy == initial_accuracy
    assert result.reports == reports
    return result, checks


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@settings(max_examples=100, deadline=None)
@given(case=configs())
def test_run_single_matches_the_reference_run(variant, case):
    config, repetition = case
    checked_run(replace(config, variant=variant), repetition)


def grid_dataset(path, size: int, num_features: int, num_classes: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(size, num_features)).astype(np.float64)
    labels = (X.sum(axis=1).astype(np.int64) + rng.integers(0, 2, size)) % num_classes
    save_csv(
        [LabeledInstance(x, int(c), int(c), uid=i) for i, (x, c) in enumerate(zip(X, labels))],
        path,
    )


# the small stream of the edge cases and of tests/test_harness.py
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
# kNN in both roles on a clean initial batch, for the fold's scenarios
KNN = {
    "stream.test_size": "40",
    "noise.mean": "0.3",
    "initial.clean": "true",
    "classifier.kind": "knn",
    "label_model.kind": "knn",
    "label_model.knn_k": "1",
}
# three close classes and two different models, so the active kind's label
# model and classifier can both disagree with a label and send it to the oracle
OVERLAPPING = {
    "stream.num_classes": "3", "stream.num_features": "3", "stream.initial_batch_size": "12",
    "stream.batch_size": "12", "stream.num_batches": "4", "stream.test_size": "5",
    "stream.seed": "11", "dataset.separation": "0.5",
    "noise.mean": "0.4", "noise.std": "0", "noise.seed": "11", "initial.clean": "true",
    "label_model.kind": "centroid", "classifier.kind": "knn", "classifier.knn_k": "3",
}

# the stream edge cases, on SMALL
EDGE_CASES = {
    # one instance per arrival
    "batch_of_one": {**SMALL, "stream.batch_size": "1"},
    # K=2, the fewest classes
    "two_classes": {**SMALL, "stream.num_classes": "2"},
    # k beyond every pool, in both roles
    "knn_k_beyond_pool": {
        **SMALL,
        "classifier.knn_k": "500",
        "label_model.kind": "knn",
        "label_model.knn_k": "500",
    },
    # no oracle query at all
    "zero_oracle_budget": {**SMALL, "oracle.fraction": "0"},
    # every arrival all noise, after a clean initial batch
    "all_noise_arrivals": {
        **SMALL,
        "noise.mean": "1.0",
        "noise.std": "0.0",
        "initial.clean": "true",
    },
}
# Each stream runs for every kind, which sets ``framework.variant``. A
# ``source`` of ``grid`` reads an integer-grid CSV, and ``csv`` the synthetic
# stream saved to a CSV. Every stream has a kNN classifier, so the scorer's
# fold is checked at every evaluation.
FIXED_STREAMS = {
    **EDGE_CASES,
    # integer features in {0, 1, 2}: the arithmetic is exact and many pool
    # rows tie at the k-th distance
    "integer_grid": {
        **KNN,
        "source": "grid",
        "stream.num_classes": "3",
        "stream.num_features": "2",
        "stream.initial_batch_size": "30",
        "stream.batch_size": "20",
        "stream.num_batches": "5",
        "classifier.knn_k": "4",
    },
    # knn_k is beyond the initial pool, so k grows while the stream runs
    "k_grows": {
        **KNN,
        "source": "grid",
        "stream.num_classes": "3",
        "stream.num_features": "3",
        "stream.initial_batch_size": "6",
        "stream.batch_size": "4",
        "stream.num_batches": "8",
        "classifier.knn_k": "15",
    },
    # grid ties with K=2 and a fold of one row per arrival
    "two_classes_batch_of_one": {
        **KNN,
        "source": "grid",
        "stream.num_classes": "2",
        "stream.num_features": "2",
        "stream.initial_batch_size": "5",
        "stream.batch_size": "1",
        "stream.num_batches": "12",
        "classifier.knn_k": "3",
    },
    # continuous features over more columns than the grids, blocks of many rows
    "continuous": {
        **KNN,
        "stream.num_classes": "4",
        "stream.num_features": "5",
        "stream.initial_batch_size": "40",
        "stream.batch_size": "25",
        "stream.num_batches": "4",
        "classifier.knn_k": "5",
    },
    # oracle answers that change a label, for the active and slimmed kinds
    "oracle_relabels": OVERLAPPING,
    # 0.29 * 100 is 28.999... in binary floating point; the cap is 29
    "oracle_cap_29_of_100": {
        **OVERLAPPING,
        "stream.batch_size": "100",
        "oracle.fraction": "0.29",
    },
    # a CSV stream runs as the synthetic stream it was saved from
    "csv": {**SMALL, "source": "csv", "dataset.separation": "4.0"},
}


def stream_config(tmp_path, name: str, kind: str):
    """The fixed stream's config for one kind, with its CSV written under ``tmp_path``."""
    mapping = {**FIXED_STREAMS[name], "framework.variant": kind}
    source = mapping.pop("source", None)
    config = config_from_mapping(mapping)
    if source is None:
        return config
    stream, path = config.stream, tmp_path / f"{name}.csv"
    if source == "grid":
        size = stream.initial_batch_size + stream.batch_size * stream.num_batches
        grid_dataset(
            path, size + stream.test_size, stream.num_features, stream.num_classes, seed=len(name)
        )
    else:
        save_csv(generate_synthetic(stream, separation=config.separation), path)
    return replace(config, dataset_path=str(path))


def check_fixed_stream(tmp_path, name: str, kind: str) -> None:
    """Run the fixed stream for one kind through :func:`checked_run` and its coverage checks."""
    config = stream_config(tmp_path, name, kind)
    result, checks = checked_run(config, 0)
    assert result is not None
    stream = config.stream
    assert len(checks.evaluations) == stream.num_batches + 1
    folded = [f for f, _ in checks.evaluations]
    trained = [n for _, n in checks.evaluations]
    if kind == "slimmed":
        # slimmed retrains on a window, not the pool, so after its first
        # arrival every evaluation takes the full path
        assert folded == [True] + [False] * stream.num_batches
    else:
        assert all(folded)
    arrived = stream.batch_size * stream.num_batches
    if kind in ("no_sel", "full_clean") and arrived > stream.initial_batch_size:
        # these take every arrival, so where the arrivals outnumber the
        # initial batch, the pool outgrows at least one doubling of its buffers
        assert trained[-1] > 2 * trained[0]
        if name == "k_grows":
            assert trained[0] < config.classifier_spec.knn_k < trained[-1]
    if name in ("oracle_relabels", "oracle_cap_29_of_100") and kind in ("active", "slimmed"):
        assert checks.relabels >= 1
    if name == "oracle_cap_29_of_100" and kind == "slimmed":
        assert max(report.oracle_queries for report in result.reports) == 29
    if name == "csv":
        synthetic = run_single(replace(config, dataset_path=None), 0)
        assert synthetic.initial_accuracy == result.initial_accuracy
        assert synthetic.reports == result.reports


@pytest.mark.parametrize("kind", ALL_VARIANTS)
@pytest.mark.parametrize("name", [name for name in FIXED_STREAMS if name not in EDGE_CASES])
def test_fixed_stream_matches_the_reference_run(tmp_path, name, kind):
    check_fixed_stream(tmp_path, name, kind)


def test_the_reference_shares_only_the_data_layer():
    # the reference cannot check what it imports from the package; its
    # docstring names the same list
    tree = ast.parse(Path(__file__).with_name("reference_run.py").read_text(encoding="utf-8"))
    shared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("cleanstream") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cleanstream"):
            module = node.module.removeprefix("cleanstream.")
            shared |= {f"{module}.{alias.name}" for alias in node.names}
    assert shared == {"core.Batch", "core.generate_synthetic", "core.load_csv",
                      "harness.ExperimentConfig", "metrics.BatchReport", "models.ClassifierSpec"}
    assert all(f"``{name}``" in ast.get_docstring(tree) for name in shared)
