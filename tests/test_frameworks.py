"""Step semantics of every kind: cleansing, voting, history, oracle, slimmed window, baselines.

The decision-rule tests drive the steps with stub models whose predictions
are scripted per instance, so expected pool contents are hand-computable.
From the slimmed section on, the tests step the real models over small
generated streams; the baselines come last.
"""

from __future__ import annotations

import numpy as np
import pytest

import cleanstream.frameworks as frameworks
from cleanstream.core import Batch, LabeledInstance, StreamConfig, generate_synthetic, split_stream
from cleanstream.frameworks import (
    BASELINE_KINDS,
    GroundTruthOracle,
    OracleBudget,
    cleanse,
    initialize,
    reprocess_history,
    voting_filter,
)
from cleanstream.harness import config_from_mapping, run_single
from cleanstream.models import ClassifierSpec, MlpModel, predict_batch
from cleanstream.noise import inject_symmetric_noise


def make_inst(uid: int, given: int, true: int | None = None) -> LabeledInstance:
    return LabeledInstance(
        features=np.array([float(uid)]),
        given_label=given,
        true_label=given if true is None else true,
        uid=uid,
    )


class StubModel:
    """Predicts per-uid scripted answers; unknown uids get the default."""

    num_features = 1

    def __init__(self, answers: dict[int, int] | None = None, default: int = 0):
        self.answers = dict(answers or {})
        self.default = default


def as_trained(stub: StubModel, spec: ClassifierSpec, instances) -> StubModel:
    """The stub, recording ``spec`` and the training-set size as a model does."""
    stub.spec = spec
    stub.trained_on_count = len(instances)
    return stub


def stub_predict_batch(model, instances):
    if isinstance(model, StubModel):
        return [model.answers.get(inst.uid, model.default) for inst in instances]
    return predict_batch(model, instances)


LABEL_SPEC = ClassifierSpec(kind="centroid", num_classes=5)
CLF_SPEC = ClassifierSpec(kind="knn", num_classes=5)


def stubbed_state(monkeypatch, variant, label_stub, clf_stub, initial_instances):
    """Build a FrameworkState whose models are scripted stubs."""
    monkeypatch.setattr(frameworks, "predict_batch", stub_predict_batch)

    def fake_train(spec, instances, rng):
        return as_trained(label_stub if spec is LABEL_SPEC else clf_stub, spec, instances)

    monkeypatch.setattr(frameworks, "train_model", fake_train)
    state = initialize(
        variant,
        Batch(index=0, instances=initial_instances),
        LABEL_SPEC if variant != "slimmed" else None,
        CLF_SPEC,
        np.random.default_rng(0),
    )
    return state


# ---------------------------------------------------------------------------
# cleanse and the voting rule

def test_cleanse_partitions_by_label_model_agreement(monkeypatch):
    monkeypatch.setattr(frameworks, "predict_batch", stub_predict_batch)
    label_model = StubModel({1: 0, 2: 2, 3: 1})
    instances = [make_inst(1, 0), make_inst(2, 1), make_inst(3, 1)]
    agreed, disagreed, disagreed_preds = cleanse(label_model, instances)
    assert [i.uid for i in agreed] == [1, 3]
    assert [i.uid for i in disagreed] == [2]
    assert disagreed_preds == [2]


def test_voting_filter_rule_table(monkeypatch):
    monkeypatch.setattr(frameworks, "predict_batch", stub_predict_batch)
    # label model said 2 for all three; classifier: confirms given / agrees
    # with label model / disagrees with both
    dirty = [make_inst(11, 1), make_inst(12, 1), make_inst(13, 1)]
    clf = StubModel({11: 1, 12: 2, 13: 3})
    accepted, rejected = voting_filter(dirty, [2, 2, 2], clf)
    assert [i.uid for i in accepted] == [11, 12]
    assert accepted[0] is dirty[0]  # confirmed, unchanged
    assert accepted[1].given_label == 2  # a copy relabelled to the agreed class
    assert dirty[1].given_label == 1  # the record passed in is left alone
    assert rejected == [dirty[2]]  # rejects keep their label


def test_voting_filter_empty_input():
    accepted, rejected = voting_filter([], [], StubModel())
    assert accepted == [] and rejected == []


# ---------------------------------------------------------------------------
# initialization

def test_initialize_keeps_only_truly_clean_instances():
    instances = [make_inst(0, 0), make_inst(1, 1, true=0), make_inst(2, 1)]
    state = initialize(
        "rad",
        Batch(index=0, instances=instances),
        ClassifierSpec(kind="centroid", num_classes=3),
        ClassifierSpec(kind="knn", num_classes=3),
        np.random.default_rng(0),
    )
    assert [i.uid for i in state.clean_pool] == [0, 2]
    assert state.label_model is not None


def test_initialize_rejects_fully_dirty_first_batch():
    instances = [make_inst(0, 1, true=0), make_inst(1, 0, true=2)]
    with pytest.raises(ValueError, match="no clean"):
        initialize(
            "rad",
            Batch(index=0, instances=instances),
            ClassifierSpec(kind="centroid", num_classes=3),
            ClassifierSpec(kind="knn", num_classes=3),
            np.random.default_rng(0),
        )


def test_initialize_validates_variant_and_label_spec():
    batch = Batch(index=0, instances=[make_inst(0, 0)])
    with pytest.raises(ValueError, match="variant"):
        initialize("bogus", batch, LABEL_SPEC, CLF_SPEC, np.random.default_rng(0))
    with pytest.raises(ValueError, match="label-model"):
        initialize("voting", batch, None, CLF_SPEC, np.random.default_rng(0))


def test_slimmed_initialize_has_no_label_model():
    batch = Batch(index=0, instances=[make_inst(0, 0), make_inst(1, 1)])
    state = initialize(
        "slimmed", batch, None, ClassifierSpec(kind="centroid", num_classes=2),
        np.random.default_rng(0),
    )
    assert state.label_model is None


# ---------------------------------------------------------------------------
# scripted multi-arrival walkthroughs

def test_rad_selects_exactly_label_model_agreement(monkeypatch):
    label = StubModel({10: 0, 11: 2, 12: 1}, default=4)
    state = stubbed_state(monkeypatch, "rad", label, StubModel(), [make_inst(0, 0)])
    batch = Batch(index=1, instances=[make_inst(10, 0), make_inst(11, 1), make_inst(12, 1)])
    state, report = frameworks.step(state, batch)
    assert sorted(i.uid for i in state.clean_pool) == [0, 10, 12]
    assert report.selected_count == 2
    assert report.inactive_total == 0
    assert report.oracle_queries == 0


def test_voting_walkthrough_over_three_arrivals(monkeypatch):
    # scripted predictions; pool and history contents computed by hand
    label = StubModel({10: 0, 11: 0, 12: 0, 13: 0, 20: 2, 21: 1, 30: 0}, default=0)
    clf = StubModel({11: 1, 12: 0, 13: 2, 21: 3}, default=0)
    state = stubbed_state(
        monkeypatch, "voting", label, clf, [make_inst(0, 0), make_inst(1, 0)]
    )

    # arrival 1: 10 confirmed; 11 classifier-confirmed; 12 replaced to 0; 13 rejected
    batch1 = Batch(
        index=1,
        instances=[
            make_inst(10, 0),
            make_inst(11, 1, true=1),
            make_inst(12, 1, true=0),
            make_inst(13, 1, true=1),
        ],
    )
    state, report1 = frameworks.step(state, batch1)
    assert sorted(i.uid for i in state.clean_pool) == [0, 1, 10, 11, 12]
    assert {i.uid: i.given_label for i in state.clean_pool}[12] == 0
    assert batch1.instances[2].given_label == 1  # the pool holds a relabelled copy
    assert report1.selected_count == 3
    assert report1.selected_true_clean_count == 3  # 10, 11, and the corrected 12
    assert report1.inactive_total == 1

    # arrival 2: 20 confirmed, 21 rejected; history group {13} reprocessed, stays
    batch2 = Batch(index=2, instances=[make_inst(20, 2), make_inst(21, 0)])
    state, report2 = frameworks.step(state, batch2)
    assert sorted(i.uid for i in state.clean_pool) == [0, 1, 10, 11, 12, 20]
    assert report2.selected_count == 1
    assert report2.inactive_total == 2
    assert sorted(len(g) for g in state.inactive) == [1, 1]

    # arrival 3: classifier flips its answer for 13 -> history acceptance
    clf.answers[13] = 1  # now confirms the given label
    batch3 = Batch(index=3, instances=[make_inst(30, 0)])
    state, report3 = frameworks.step(state, batch3)
    assert sorted(i.uid for i in state.clean_pool) == [0, 1, 10, 11, 12, 13, 20, 30]
    assert [i.uid for i in state.clean_pool].count(13) == 1  # accepted exactly once
    assert report3.inactive_total == 1  # only {21} left


def test_reprocessing_touches_only_two_largest_groups(monkeypatch):
    seen: list[int] = []

    def recording_predict(model, instances):
        seen.extend(inst.uid for inst in instances)
        return stub_predict_batch(model, instances)

    label = StubModel(default=9)  # disagrees with everything
    clf = StubModel(default=8)  # disagrees with both -> all rejected again
    state = stubbed_state(monkeypatch, "voting", label, clf, [make_inst(0, 0)])
    monkeypatch.setattr(frameworks, "predict_batch", recording_predict)
    state.inactive = [
        [make_inst(50, 1), make_inst(51, 1), make_inst(52, 1)],
        [make_inst(60, 1)],
        [make_inst(70, 1), make_inst(71, 1)],
    ]
    state.inactive.sort(key=len, reverse=True)
    reprocess_history(state)
    # each reprocessed instance is predicted twice: label model, then classifier
    assert set(seen) == {50, 51, 52, 70, 71}  # group {60} untouched
    assert [len(g) for g in state.inactive] == [3, 2, 1]  # size order restored
    assert len(state.clean_pool) == 1  # nothing was accepted


def test_history_acceptance_joins_pool_without_retraining(monkeypatch):
    trains: list[int] = []
    label = StubModel(default=9)
    clf = StubModel({50: 1}, default=8)  # confirms 50's given label on reprocess
    state = stubbed_state(monkeypatch, "voting", label, clf, [make_inst(0, 0)])

    def counting_train(spec, instances, rng):
        trains.append(len(instances))
        return as_trained(label if spec is LABEL_SPEC else clf, spec, instances)

    monkeypatch.setattr(frameworks, "train_model", counting_train)
    state.inactive = [[make_inst(50, 1)]]
    reprocess_history(state)
    assert sorted(i.uid for i in state.clean_pool) == [0, 50]
    assert trains == []  # acceptance is deferred to the next arrival's retrain
    assert state.inactive == []


def test_no_selection_skips_retraining(monkeypatch):
    trains: list[int] = []
    label = StubModel(default=9)  # rejects whole batch
    state = stubbed_state(monkeypatch, "rad", label, StubModel(), [make_inst(0, 0)])

    def counting_train(spec, instances, rng):
        trains.append(len(instances))
        return as_trained(StubModel(), spec, instances)

    monkeypatch.setattr(frameworks, "train_model", counting_train)
    clf_before, label_before = state.classifier, state.label_model
    state, report = frameworks.step(state, Batch(index=1, instances=[make_inst(10, 0)]))
    assert report.selected_count == 0
    assert trains == []
    assert state.classifier is clf_before
    assert state.label_model is label_before


def test_label_model_never_trains_on_rows_the_classifier_has_not_seen(monkeypatch):
    label = StubModel(default=0)
    state = stubbed_state(monkeypatch, "rad", label, StubModel(), [make_inst(0, 0)])
    state, _ = frameworks.step(state, Batch(index=1, instances=[make_inst(10, 0)]))
    assert (label.trained_on_count, state.classifier.trained_on_count) == (1, 2)
    state.clean_pool.append([make_inst(11, 0)])
    with pytest.raises(RuntimeError, match="pool grew to 3 rows"):
        frameworks._label_model(state)


# ---------------------------------------------------------------------------
# oracle and budget

def test_budget_arithmetic():
    assert OracleBudget().max_queries(300) == 300
    limited = OracleBudget(fraction=0.2)
    assert limited.max_queries(300) == 60
    assert OracleBudget(fraction=0.35).max_queries(20) == 7
    assert OracleBudget(fraction=0.0).max_queries(50) == 0
    # a product that is not a whole number is rounded down
    assert OracleBudget(fraction=0.1).max_queries(7) == 0
    assert OracleBudget(fraction=0.29).max_queries(7) == 2
    # the cap is taken on the decimal as written, not its binary approximation
    assert OracleBudget(fraction=0.29).max_queries(100) == 29
    assert OracleBudget(fraction=0.57).max_queries(100) == 57
    with pytest.raises(ValueError):
        OracleBudget(fraction=-0.1)
    with pytest.raises(ValueError):
        OracleBudget(fraction=1.5)


class CountingOracle(GroundTruthOracle):
    def __init__(self):
        self.asked: list[int] = []

    def answer(self, instance):
        self.asked.append(instance.uid)
        return super().answer(instance)


def oracle_state(fraction: float, seed: int):
    """A bare state whose rng, budget and oracle are all that ``_ask_oracle`` reads."""
    return frameworks.FrameworkState(
        "active", classifier=None, clean_pool=None, rng=np.random.default_rng(seed),
        budget=OracleBudget(fraction), oracle=CountingOracle(),
    )


def test_ask_oracle_relabels_a_uniform_subset_in_batch_order():
    candidates = [make_inst(i, 0, true=i % 3) for i in range(10)]
    state = oracle_state(0.4, seed=5)
    asked = frameworks._ask_oracle(state, candidates, 10)
    assert len(asked) == 4  # floor(0.4 * 10)
    uids = [i.uid for i in asked]
    assert uids == sorted(uids)  # batch order preserved
    assert set(uids) <= set(range(10))
    # one draw from the state's rng picks the subset
    assert uids == sorted(np.random.default_rng(5).choice(10, size=4, replace=False).tolist())
    assert state.oracle.asked == uids
    # the answers are relabelled copies; the candidates passed in are left alone
    assert all(inst.given_label == inst.true_label for inst in asked)
    assert all(inst.given_label == 0 for inst in candidates)
    again = oracle_state(0.4, seed=5)
    assert [i.uid for i in frameworks._ask_oracle(again, candidates, 10)] == uids
    # candidates that fit under the cap are all asked, in order
    few = [make_inst(u, 0, true=1) for u in (20, 21, 22)]
    answered = frameworks._ask_oracle(state, few, 10)
    assert [(i.uid, i.given_label) for i in answered] == [(20, 1), (21, 1), (22, 1)]
    assert [inst.given_label for inst in few] == [0, 0, 0]
    assert state.oracle.asked == uids + [20, 21, 22]


def test_active_queries_only_double_disagreements(monkeypatch):
    label = StubModel({10: 0, 11: 0, 12: 0}, default=0)
    clf = StubModel({11: 1, 12: 3}, default=0)
    state = stubbed_state(monkeypatch, "active", label, clf, [make_inst(0, 0)])
    oracle = CountingOracle()
    batch = Batch(
        index=1,
        instances=[make_inst(10, 0), make_inst(11, 1, true=2), make_inst(12, 1, true=2)],
    )
    # 10 label-confirmed; 11 classifier-confirms given; 12 disagrees twice -> oracle
    state.oracle = oracle
    state, report = frameworks.step(state, batch)
    assert oracle.asked == [12]
    answered = state.clean_pool.instances[-1]
    assert (answered.uid, answered.given_label) == (12, 2)  # the oracle's relabelled copy
    assert batch.instances[2].given_label == 1
    assert report.oracle_queries == 1
    assert report.selected_count == 3
    assert report.inactive_total == 0


def test_active_budget_discards_unsampled(monkeypatch):
    label = StubModel(default=9)  # everything predicted dirty
    clf = StubModel(default=8)  # everything disagrees -> all are oracle candidates
    state = stubbed_state(monkeypatch, "active", label, clf, [make_inst(0, 0)])
    batch = Batch(index=1, instances=[make_inst(u, 1, true=0) for u in range(10, 20)])
    state.budget = OracleBudget(fraction=0.3)
    state.rng = np.random.default_rng(1)
    state, report = frameworks.step(state, batch)
    assert report.oracle_queries == 3  # floor(0.3 * 10)
    assert report.selected_count == 3
    assert state.inactive == []
    assert len(state.clean_pool) == 1 + 3  # the rest of the batch is discarded
    # the oracle's answers reach the pool's label buffer, not just the instances
    assert state.clean_pool.y.tolist() == [inst.given_label for inst in state.clean_pool] == [0] * 4


# ---------------------------------------------------------------------------
# slimmed variant

def small_stream(num_batches=4, batch_size=12, noise=0.4, seed=3, separation=4.0):
    config = StreamConfig(
        num_classes=3,
        num_features=4,
        initial_batch_size=40,
        batch_size=batch_size,
        num_batches=num_batches,
        test_size=10,
        seed=seed,
    )
    dataset = generate_synthetic(config, separation=separation)
    rng = np.random.default_rng(seed)
    initial, arrivals, test = split_stream(dataset, config, rng)
    for batch in arrivals:
        inject_symmetric_noise(batch, noise, config.num_classes, rng)
    return initial, arrivals, test


def test_slimmed_mlp_warm_starts_instead_of_retraining():
    initial, arrivals, _ = small_stream(num_batches=2)
    spec = ClassifierSpec(kind="mlp", num_classes=3, mlp_hidden=(6,), mlp_epochs=3)
    state = initialize("slimmed", initial, None, spec, np.random.default_rng(0))
    model = state.classifier
    assert isinstance(model, MlpModel)
    for batch in arrivals:
        state, _ = frameworks.step(state, batch)
        assert state.classifier is model  # same object, weights updated in place


def test_slimmed_budget_caps_queries_and_discards_rest():
    initial, arrivals, _ = small_stream(num_batches=3, batch_size=10, noise=0.9)
    spec = ClassifierSpec(kind="centroid", num_classes=3)
    budget = OracleBudget(fraction=0.2)
    state = initialize("slimmed", initial, None, spec, np.random.default_rng(0), budget)
    assert state.budget is budget
    for batch in arrivals:
        pool_before = len(state.clean_pool)
        state, report = frameworks.step(state, batch)
        assert report.oracle_queries <= 2  # floor(0.2 * 10)
        assert len(state.clean_pool) - pool_before == report.selected_count
        assert report.selected_count <= len(batch.instances)


# ---------------------------------------------------------------------------
# integration with real models

@pytest.mark.parametrize(
    "label_kind, classifier_kind, asks",
    [("knn", "knn", False), ("centroid", "centroid", False), ("centroid", "knn", True)],
)
def test_active_asks_the_oracle_only_when_its_two_models_differ(
    label_kind, classifier_kind, asks
):
    # the same deterministic model trained on the same pool agrees with the
    # label model's class, so the voting filter relabels every rejection and
    # nothing is left undecided for the oracle
    initial, arrivals, _ = small_stream(noise=0.4, separation=0.5)
    state = initialize(
        "active",
        initial,
        ClassifierSpec(kind=label_kind, num_classes=3, knn_k=3),
        ClassifierSpec(kind=classifier_kind, num_classes=3, knn_k=3),
        np.random.default_rng(0),
    )
    oracle = state.oracle = CountingOracle()
    rejected = 0
    for batch in arrivals:
        rejected += len(cleanse(frameworks._label_model(state), batch.instances)[1])
        state, _ = frameworks.step(state, batch)
    assert rejected > 0  # the label model did reject labels
    assert (len(oracle.asked) > 0) == asks


def test_rad_fits_its_label_model_once_per_arrival_on_the_classifiers_rows(monkeypatch):
    # the label model retrains on its first read after the pool grew, so the
    # fit after the last arrival, which nothing reads, never runs
    initial, arrivals, _ = small_stream(num_batches=5, noise=0.2)
    label_spec = ClassifierSpec(kind="mlp", num_classes=3, mlp_hidden=(6,), mlp_epochs=2)
    real_train, real_cleanse = frameworks.train_model, frameworks.cleanse
    label_fits = 0
    screened_by: list[np.ndarray] = []  # the rows behind each screening label model

    def counting_train(spec, pool, rng):
        nonlocal label_fits
        model = real_train(spec, pool, rng)
        if spec is label_spec:
            label_fits += 1
            model.fit_rows = pool.X.copy()
        return model

    def recording_cleanse(model, instances):
        screened_by.append(model.fit_rows)
        return real_cleanse(model, instances)

    monkeypatch.setattr(frameworks, "train_model", counting_train)
    monkeypatch.setattr(frameworks, "cleanse", recording_cleanse)
    state = initialize(
        "rad", initial, label_spec, ClassifierSpec(kind="knn", num_classes=3, knn_k=3),
        np.random.default_rng(0),
    )
    classifier_rows = []  # the classifier's rows at the end of the previous arrival
    for batch in arrivals:
        classifier_rows.append(state.classifier.X.copy())
        pool_before = len(state.clean_pool)
        state, _ = frameworks.step(state, batch)
        assert len(state.clean_pool) > pool_before  # so every later arrival retrains
    assert label_fits == len(arrivals)  # in initialize, then before each later screen
    assert len(screened_by) == len(arrivals)
    for rows, expected in zip(screened_by, classifier_rows):
        assert rows.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# baselines

BASELINE_SPEC = ClassifierSpec(kind="knn", num_classes=3, knn_k=3)


def test_step_runs_a_baseline_state():
    initial, arrivals, _ = small_stream(num_batches=2, noise=0.5)
    state = initialize(
        "opt_sel", initial, None, ClassifierSpec(kind="knn", num_classes=3),
        np.random.default_rng(0),
    )
    oracle = state.oracle = CountingOracle()
    for batch in arrivals:
        pool_before = len(state.clean_pool)
        clf_before = state.classifier
        clean_uids = [i.uid for i in batch.instances if i.is_clean]
        state, report = frameworks.step(state, batch)
        assert [i.uid for i in state.clean_pool.instances[pool_before:]] == clean_uids
        assert report.selected_count == report.selected_true_clean_count == len(clean_uids)
        assert report.oracle_queries == 0
        assert report.inactive_total == 0
        assert state.classifier is not clf_before  # retrained on the grown pool
    assert oracle.asked == []
    assert state.label_model is None


def test_no_sel_takes_every_instance():
    initial, arrivals, _ = small_stream(noise=0.5)
    state = initialize("no_sel", initial, None, BASELINE_SPEC, np.random.default_rng(0))
    pool_sizes = [len(state.clean_pool)]
    for batch in arrivals:
        state, report = frameworks.step(state, batch)
        pool_sizes.append(len(state.clean_pool))
        assert report.selected_count == len(batch.instances)
        assert report.selected_true_clean_count == sum(
            1 for i in batch.instances if i.is_clean
        )
    assert pool_sizes == [len(state.clean_pool) - 12 * i for i in range(len(arrivals), -1, -1)]


def test_full_clean_resets_labels_to_truth():
    initial, arrivals, _ = small_stream(noise=0.5)
    state = initialize("full_clean", initial, None, BASELINE_SPEC, np.random.default_rng(0))
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
    initial, _, _ = small_stream(num_batches=1, noise=0.5)
    state = initialize("opt_sel", initial, None, BASELINE_SPEC, np.random.default_rng(0))
    model_before = state.classifier
    all_dirty = Batch(index=1, instances=[make_inst(100 + i, 1, true=0) for i in range(5)])
    state, report = frameworks.step(state, all_dirty)
    assert report.selected_count == 0
    assert state.classifier is model_before
