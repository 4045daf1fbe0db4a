"""A literal reference run: the seven kinds written out plainly.

``reference_run(config, repetition)`` computes what
:func:`cleanstream.harness.run_single` reports, written from the README's
description of each kind, not from ``frameworks`` or ``baselines``. The pool
is a list; kNN takes direct-difference distances to every training row and
the first k of a stable sort, and the centroid rule per-class means; the
classifier, then the label model, is retrained as soon as the pool grows;
the cumulative fractions are running sums. It shares with the package only
what other tests check on their own: config parsing, data generation, CSV
loading (``load_csv``), splitting, noise injection, the MLP and the report
type.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np

from cleanstream.core import generate_synthetic, load_csv, split_stream
from cleanstream.harness import ExperimentConfig
from cleanstream.metrics import BatchReport
from cleanstream.models import ClassifierSpec, MlpModel
from cleanstream.noise import draw_batch_noise_level, inject_symmetric_noise


def _rows(instances) -> tuple[np.ndarray, np.ndarray]:
    """Features and given labels, stacked afresh."""
    X = np.array([inst.features for inst in instances], dtype=np.float64)
    y = np.array([inst.given_label for inst in instances], dtype=np.int64)
    return X, y


class _Plain:
    """A kNN or nearest-centroid model: its spec and its training rows."""

    def __init__(self, spec: ClassifierSpec, instances):
        self.spec = spec
        self.X, self.y = _rows(instances)
        self.classes = sorted(set(self.y.tolist()))
        self.means = [self.X[self.y == c].mean(axis=0) for c in self.classes]

    def predict_many(self, queries: np.ndarray) -> list[int]:
        return [self._predict_one(query) for query in queries]

    def _predict_one(self, query: np.ndarray) -> int:
        if self.spec.kind == "knn":
            distances = ((self.X - query) ** 2).sum(axis=1)
            nearest = np.argsort(distances, kind="stable")[: self.spec.knn_k]
            votes = np.bincount(self.y[nearest], minlength=self.spec.num_classes)
            return int(votes.argmax())  # a tie goes to the lowest class
        distances = [((mean - query) ** 2).sum() for mean in self.means]
        return self.classes[int(np.argmin(distances))]


def _train(spec: ClassifierSpec, instances, rng):
    """A fresh model of the spec's kind; only the MLP draws from ``rng``."""
    if spec.kind != "mlp":
        return _Plain(spec, instances)
    X, y = _rows(instances)
    model = MlpModel(spec, X.shape[1], rng)
    model.fit(X, y, rng)
    return model


def _predict(model, instances) -> list[int]:
    if not instances:
        return []
    return [int(p) for p in model.predict_many(_rows(instances)[0])]


def _accuracy(model, test) -> float:
    hits = sum(p == inst.true_label for p, inst in zip(_predict(model, test), test))
    return hits / len(test)


def _vote(classifier, instances, label_predictions):
    """The classifier's vote: keep, relabel to the class both models name, or reject."""
    kept, rejected = [], []
    cls_predictions = _predict(classifier, instances)
    for inst, label_pred, cls_pred in zip(instances, label_predictions, cls_predictions):
        if cls_pred == inst.given_label:
            kept.append(inst)
        elif cls_pred == label_pred:
            kept.append(inst.relabeled(cls_pred))
        else:
            rejected.append(inst)
    return kept, rejected


def _ask_oracle(candidates, cap: int, rng):
    """Copies of a uniform sample of at most ``cap`` candidates, in order, with true labels."""
    if len(candidates) > cap:
        picked = sorted(int(i) for i in rng.choice(len(candidates), size=cap, replace=False))
        candidates = [candidates[i] for i in picked]
    return [inst.relabeled(inst.true_label) for inst in candidates]


def reference_run(config: ExperimentConfig, repetition: int) -> tuple[float, list[BatchReport]]:
    """The initial test accuracy and one report per arrival of one repetition."""
    stream, kind = config.stream, config.variant
    num_classes, batch_size = stream.num_classes, stream.batch_size
    if config.dataset_path:
        dataset = load_csv(config.dataset_path, num_classes)
    else:
        dataset = generate_synthetic(stream, separation=config.separation)
    split_rng = np.random.default_rng(stream.seed ^ repetition)
    initial, arrivals, test = split_stream(dataset, stream, split_rng)
    noise_rng = np.random.default_rng(config.noise.seed ^ repetition)

    def add_noise(batch):
        level = draw_batch_noise_level(config.noise, noise_rng)
        inject_symmetric_noise(batch, level, num_classes, noise_rng)

    if not config.initial_clean:
        add_noise(initial)
    rng = np.random.default_rng(config.classifier_spec.seed ^ repetition)

    # both models start from the initial batch's truly clean instances
    pool = [inst for inst in initial.instances if inst.is_clean]
    if not pool:
        raise ValueError("the initial batch has no clean instance")
    classifier = _train(config.classifier_spec, pool, rng)
    with_label_model = kind in ("rad", "voting", "active")
    label_model = _train(config.label_spec, pool, rng) if with_label_model else None
    trained_on = len(pool)
    history = []  # voting's rejected groups, largest first
    last_answers = []  # slimmed's previous oracle batch
    initial_accuracy = _accuracy(classifier, test)

    reports, selected_share, clean_share = [], 0.0, 0.0
    for batch in arrivals:
        add_noise(batch)
        arrived = batch.instances
        answered = []
        if kind == "no_sel":
            selected = list(arrived)
        elif kind == "opt_sel":
            selected = [inst for inst in arrived if inst.is_clean]
        elif kind == "full_clean":
            selected = [inst.relabeled(inst.true_label) for inst in arrived]
        else:
            # rad, voting and active screen with the label model, slimmed with
            # the classifier; the screen keeps what confirms the given label
            screen = classifier if kind == "slimmed" else label_model
            screened = list(zip(arrived, _predict(screen, arrived)))
            selected = [inst for inst, p in screened if p == inst.given_label]
            rejected = [inst for inst, p in screened if p != inst.given_label]
            if kind in ("voting", "active"):
                predictions = [p for inst, p in screened if p != inst.given_label]
                kept, rejected = _vote(classifier, rejected, predictions)
                selected += kept
            if kind in ("active", "slimmed"):
                # the floor of the fraction as written, times the batch size
                cap = int(Decimal(repr(config.budget.fraction)) * len(arrived))
                answered = _ask_oracle(rejected, cap, rng)
                selected += answered
            if kind == "slimmed":
                # trained on this arrival's keepers, its oracle answers among
                # them, and the previous arrival's answers: an MLP goes on
                # from its weights, other kinds start afresh
                window = selected + last_answers
                if window and isinstance(classifier, MlpModel):
                    classifier.fit(*_rows(window), rng)
                elif window:
                    classifier = _train(config.classifier_spec, window, rng)
                last_answers = answered
            if kind == "voting" and rejected:
                history.append(rejected)
                history.sort(key=len, reverse=True)
        pool += selected

        if kind != "slimmed" and len(pool) != trained_on:
            classifier = _train(config.classifier_spec, pool, rng)
            if label_model is not None:
                label_model = _train(config.label_spec, pool, rng)
            trained_on = len(pool)
        if kind == "voting":
            # the two largest groups are voted on again; what is kept joins
            # the pool, and the models see it after the next arrival
            survivors = []
            for group in history[:2]:
                kept, rejected = _vote(classifier, group, _predict(label_model, group))
                pool += kept
                if rejected:
                    survivors.append(rejected)
            history = history[2:] + survivors
            history.sort(key=len, reverse=True)

        clean_count = sum(inst.is_clean for inst in selected)
        selected_share += len(selected) / batch_size
        clean_share += clean_count / batch_size
        reports.append(BatchReport(
            batch.index, batch.drawn_noise_level, len(selected), clean_count, len(answered),
            inactive_total=sum(len(group) for group in history),
            test_accuracy=_accuracy(classifier, test),
            cumulative_A=selected_share, cumulative_A_truth=clean_share,
        ))
    return initial_accuracy, reports
