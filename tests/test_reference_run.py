"""Differential test: ``run_single`` against the literal reference run.

For every kind, hypothesis draws small streams (two to four classes, three
features, batches of 1 to 25, 1 to 6 arrivals, ``knn_k`` 1, 3 or beyond
the pool, any noise level and oracle budget, close or far classes, with or
without stratification) with any model kind in either role and 2-epoch
MLPs. Each must give the reference's initial accuracy and per-arrival
reports, field for field, and fail exactly when the reference fails. So the
optimised paths (the lazy label-model retrain, the incremental kNN fold and
its prefilter, the pool buffers, the fused SGD step) are held to a plain
reading of the kinds. Each kind is its own test, so every kind gets the
whole example budget.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_run import reference_run

from cleanstream.frameworks import ALL_VARIANTS
from cleanstream.harness import RepetitionError, config_from_mapping, run_single
from cleanstream.models import MODEL_KINDS


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
        "oracle.fraction": draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        "classifier.seed": draw(st.integers(0, 10_000)),
        **model_options(draw, "label_model"),
        **model_options(draw, "classifier"),
    }
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
        result = run_single(config, repetition)
    except RepetitionError:
        with pytest.raises(ValueError):
            reference_run(config, repetition)
        return
    initial_accuracy, reports = reference_run(config, repetition)
    assert result.initial_accuracy == initial_accuracy
    assert result.reports == reports
