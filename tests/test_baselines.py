"""Baseline semantics: take-everything, omniscient selection, clean labels."""

from __future__ import annotations

import numpy as np
import pytest

from cleanstream import frameworks
from cleanstream.core import Batch, LabeledInstance, StreamConfig, generate_synthetic, split_stream
from cleanstream.frameworks import BASELINE_KINDS
from cleanstream.harness import config_from_mapping, run_single
from cleanstream.models import ClassifierSpec
from cleanstream.noise import inject_symmetric_noise

SPEC = ClassifierSpec(kind="knn", num_classes=3, knn_k=3)


def make_inst(uid: int, given: int, true: int | None = None) -> LabeledInstance:
    return LabeledInstance(
        features=np.array([float(uid), 0.0]),
        given_label=given,
        true_label=given if true is None else true,
        uid=uid,
    )


def noisy_stream(noise=0.5, num_batches=4):
    config = StreamConfig(
        num_classes=3,
        num_features=4,
        initial_batch_size=30,
        batch_size=12,
        num_batches=num_batches,
        test_size=10,
        seed=5,
    )
    dataset = generate_synthetic(config, separation=4.0)
    rng = np.random.default_rng(7)
    initial, arrivals, test = split_stream(dataset, config, rng)
    for batch in arrivals:
        inject_symmetric_noise(batch, noise, config.num_classes, rng)
    return initial, arrivals, test


def initialize(kind, batch):
    return frameworks.initialize(kind, batch, None, SPEC, np.random.default_rng(0))


def test_initialize_uses_only_truly_clean_part():
    batch = Batch(index=0, instances=[make_inst(0, 0), make_inst(1, 1, true=0), make_inst(2, 2)])
    state = initialize("no_sel", batch)
    assert sorted(i.uid for i in state.clean_pool) == [0, 2]
    assert state.label_model is None
    with pytest.raises(ValueError, match="no clean"):
        initialize("no_sel", Batch(index=0, instances=[make_inst(0, 1, true=0)]))
    with pytest.raises(ValueError, match="variant"):
        initialize("all_sel", batch)


def test_no_sel_takes_every_instance():
    initial, arrivals, _ = noisy_stream()
    state = initialize("no_sel", initial)
    pool_sizes = [len(state.clean_pool)]
    for batch in arrivals:
        state, report = frameworks.step(state, batch)
        pool_sizes.append(len(state.clean_pool))
        assert report.selected_count == len(batch.instances)
        assert report.selected_true_clean_count == sum(
            1 for i in batch.instances if i.is_clean
        )
    assert pool_sizes == [len(state.clean_pool) - 12 * i for i in range(len(arrivals), -1, -1)]


def test_opt_sel_keeps_exactly_the_truly_clean():
    initial, arrivals, _ = noisy_stream()
    state = initialize("opt_sel", initial)
    for batch in arrivals:
        clean_uids = {i.uid for i in batch.instances if i.is_clean}
        state, report = frameworks.step(state, batch)
        assert report.selected_count == len(clean_uids)
        assert report.selected_true_clean_count == report.selected_count
        assert clean_uids <= {i.uid for i in state.clean_pool}
        dirty_uids = {i.uid for i in batch.instances} - clean_uids
        assert not dirty_uids & {i.uid for i in state.clean_pool}
    assert all(i.is_clean for i in state.clean_pool)


def test_full_clean_resets_labels_to_truth():
    initial, arrivals, _ = noisy_stream()
    state = initialize("full_clean", initial)
    for batch in arrivals:
        delivered = list(batch.instances)
        pool_before = len(state.clean_pool)
        state, report = frameworks.step(state, batch)
        added = state.clean_pool.instances[pool_before:]
        assert [i.uid for i in added] == [i.uid for i in delivered]
        # a clean instance joins as it is, a mislabelled one as a relabelled copy
        for got, sent in zip(added, delivered):
            assert got.is_clean
            assert (got is sent) == sent.is_clean
        assert batch.instances == delivered  # the arrival itself is left as it came
        assert report.selected_count == len(batch.instances)
        assert report.selected_true_clean_count == len(batch.instances)
        assert not all(i.is_clean for i in delivered)  # sanity: the stream was noisy
    assert all(i.is_clean for i in state.clean_pool)


def test_baselines_coincide_on_a_noise_free_stream():
    # without noise the three baselines see identical data, so their whole
    # accuracy traces must match
    base = {
        "stream.num_classes": "3",
        "stream.num_features": "6",
        "stream.initial_batch_size": "60",
        "stream.batch_size": "30",
        "stream.num_batches": "4",
        "stream.test_size": "80",
        "noise.mean": "0.0",
        "noise.std": "0.0",
        "classifier.kind": "knn",
    }
    traces = []
    for kind in BASELINE_KINDS:
        mapping = dict(base)
        mapping["framework.variant"] = kind
        result = run_single(config_from_mapping(mapping), 0)
        traces.append((
            result.initial_accuracy,
            [r.test_accuracy for r in result.reports],
            [r.selected_count for r in result.reports],
        ))
    first, *others = traces
    assert others and all(trace == first for trace in others)


def test_retrain_skipped_when_nothing_selected():
    initial, _, _ = noisy_stream(num_batches=1)
    state = initialize("opt_sel", initial)
    model_before = state.classifier
    all_dirty = Batch(index=1, instances=[make_inst(100 + i, 1, true=0) for i in range(5)])
    state, report = frameworks.step(state, all_dirty)
    assert report.selected_count == 0
    assert state.classifier is model_before
