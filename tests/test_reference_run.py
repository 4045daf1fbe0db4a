"""Differential test: ``run_single`` against the literal reference run.

For every kind, hypothesis draws small streams (two to four classes, three
features, batches of 1 to 25, 1 to 6 arrivals, ``knn_k`` 1, 3 or beyond
the pool, any noise level and oracle budget, all-noise arrivals after a
clean initial batch, close or far classes, with or without stratification)
with any model kind in either role and 2-epoch MLPs. Each must give the
reference's initial accuracy and per-arrival reports, field for field, and
fail exactly when the reference fails. So the optimised paths (the lazy
label-model retrain, the incremental kNN fold and its prefilter, the pool
buffers, the fused SGD step) are held to a plain reading of the kinds. Each
kind is its own test, so every kind gets the whole example budget.

The same ``run_single`` run is checked after every arrival against the run
invariants (:func:`checked_arrivals`). Fixed overlapping streams make sure
that ``active`` and ``slimmed`` meet oracle answers that change a label, and
that a cap of 0.29 of a batch of 100 binds at 29, the decimal as written.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_run import reference_run

from cleanstream import frameworks
from cleanstream.frameworks import ALL_VARIANTS, LABEL_MODEL_VARIANTS, GroundTruthOracle
from cleanstream.harness import RepetitionError, config_from_mapping, run_single
from cleanstream.models import MODEL_KINDS, features_matrix, given_labels


@contextmanager
def checked_arrivals(config):
    """Check the run invariants after every arrival of the ``run_single`` run inside.

    A failure is recorded, not raised, since ``run_single`` would turn it into
    a ``RepetitionError``, which the differential test reads as a failure the
    reference must share.
    """
    # relabels: oracle answers that differ from the given label
    checks = SimpleNamespace(queries=0, relabels=0, failures=[])
    step, answer = frameworks.step, GroundTruthOracle.answer
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

    with patch.object(frameworks, "step", checked_step), patch.object(
        GroundTruthOracle, "answer", counting_answer
    ):
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
        "stream.stratify": draw(st.booleans()),
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


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@settings(max_examples=100, deadline=None)
@given(case=configs())
def test_run_single_matches_the_reference_run(variant, case):
    config, repetition = case
    config = replace(config, variant=variant)
    try:
        with checked_arrivals(config) as checks:
            result = run_single(config, repetition)
    except RepetitionError:
        assert not checks.failures, checks.failures[0]
        with pytest.raises(ValueError):
            reference_run(config, repetition)
        return
    assert not checks.failures, checks.failures[0]
    for report in result.reports:
        assert report.cumulative_A >= report.cumulative_A_truth
    initial_accuracy, reports = reference_run(config, repetition)
    assert result.initial_accuracy == initial_accuracy
    assert result.reports == reports


@pytest.mark.parametrize(
    "variant, overrides, binding_cap",
    [
        ("active", {}, None),
        ("slimmed", {}, None),
        # 0.29 * 100 is 28.999... in binary floating point; the cap is 29
        ("slimmed", {"stream.batch_size": 100, "oracle.fraction": 0.29}, 29),
    ],
    ids=["active", "slimmed", "slimmed-batch100-fraction0.29"],
)
def test_oracle_relabels_keep_the_pool_buffers_in_step(variant, overrides, binding_cap):
    # two different models, so the active variant's label model and
    # classifier can both disagree with a label and send it to the oracle
    mapping = {
        "framework.variant": variant,
        "stream.num_classes": 3, "stream.num_features": 3, "stream.initial_batch_size": 12,
        "stream.batch_size": 12, "stream.num_batches": 4, "stream.test_size": 5,
        "stream.seed": 11, "dataset.separation": 0.5,
        "noise.mean": 0.4, "noise.std": 0, "noise.seed": 11, "initial.clean": True,
        "label_model.kind": "centroid", "classifier.kind": "knn", "classifier.knn_k": 3,
        **overrides,
    }
    config = config_from_mapping({key: str(value) for key, value in mapping.items()})
    with checked_arrivals(config) as checks:
        result = run_single(config, 0)
    assert not checks.failures, checks.failures[0]
    assert checks.relabels >= 1
    if binding_cap is not None:
        assert max(report.oracle_queries for report in result.reports) == binding_cap
