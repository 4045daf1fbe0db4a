"""Streaming cleanse-then-classify variants.

Every variant keeps a classifier trained only on instances it believes are
clean. The base variant trusts a separate label-quality model; ``voting``
lets the classifier second the label model and banks rejects for later
reconsideration; ``active`` escalates disagreements to an oracle (optionally
budgeted); ``slimmed`` drops the label model entirely and retrains on a
sliding window instead of the full pool.

The three baselines in :mod:`cleanstream.baselines` run on the same state:
they are selection rules with no label model.

All step functions mutate the passed state in place and return it together
with a per-batch report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Batch, LabeledInstance
from .metrics import BatchReport
from .models import (
    ClassifierModel,
    ClassifierSpec,
    MlpModel,
    features_matrix,
    given_labels,
    predict_batch,
)
from .models import train as train_model

VARIANTS = ("rad", "voting", "active", "slimmed")
BASELINE_KINDS = ("no_sel", "opt_sel", "full_clean")
ALL_VARIANTS = VARIANTS + BASELINE_KINDS
ORACLE_VARIANTS = ("active", "slimmed")
LABEL_MODEL_VARIANTS = ("rad", "voting", "active")


class Oracle:
    """Answers label queries with the correct class for an instance."""

    def answer(self, instance: LabeledInstance) -> int:
        raise NotImplementedError


class GroundTruthOracle(Oracle):
    """Simulation oracle: reveals the stored ground-truth label."""

    def answer(self, instance: LabeledInstance) -> int:
        return instance.true_label


@dataclass(frozen=True)
class OracleBudget:
    """Per-batch cap on oracle queries.

    ``unlimited`` answers everything; ``per_batch_fraction`` allows at most
    ``floor(fraction * batch_size)`` queries per arriving batch.
    """

    limit_mode: str = "unlimited"
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.limit_mode not in ("unlimited", "per_batch_fraction"):
            raise ValueError(
                f"limit_mode must be 'unlimited' or 'per_batch_fraction', "
                f"got {self.limit_mode!r}"
            )
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    def max_queries(self, batch_size: int) -> int | None:
        if self.limit_mode == "unlimited":
            return None
        return int(math.floor(self.fraction * batch_size))


@dataclass
class CleanseResult:
    """Label-model verdict on one batch.

    ``predicted_clean`` holds instances whose label-model prediction equals
    their given label (so the prediction is recoverable from the label);
    ``dirty_predictions`` gives the label-model prediction for each entry of
    ``predicted_dirty``, in order.
    """

    predicted_clean: list[LabeledInstance]
    predicted_dirty: list[LabeledInstance]
    dirty_predictions: list[int]


@dataclass
class FrameworkState:
    """Mutable per-run state shared by all variants and baselines."""

    variant: str
    classifier: ClassifierModel
    classifier_spec: ClassifierSpec
    clean_pool: list[LabeledInstance]
    rng: np.random.Generator
    label_model: ClassifierModel | None = None
    label_spec: ClassifierSpec | None = None
    inactive: list[list[LabeledInstance]] = field(default_factory=list)
    prev_oracle_batch: list[LabeledInstance] = field(default_factory=list)
    oracle_queries_total: int = 0
    last_training_window: list[LabeledInstance] | None = None
    pool_size_at_last_train: int = 0

    @property
    def inactive_total(self) -> int:
        return sum(len(group) for group in self.inactive)


def initialize(
    variant: str,
    initial_batch: Batch,
    label_spec: ClassifierSpec | None,
    classifier_spec: ClassifierSpec,
    rng: np.random.Generator,
) -> FrameworkState:
    """Seed the pool and models from the truly clean part of the first batch.

    Serves every variant and baseline; only the variants in
    ``LABEL_MODEL_VARIANTS`` train a label model. The first batch is assumed
    mostly trustworthy; only its genuinely clean instances are used, and a
    batch with none is an error because nothing could be learned safely.
    """
    if variant not in ALL_VARIANTS:
        raise ValueError(f"variant must be one of {ALL_VARIANTS}, got {variant!r}")
    clean = [inst for inst in initial_batch.instances if inst.is_clean]
    if not clean:
        raise ValueError(
            "initial batch has no clean instances; cannot initialize "
            "(set initial.clean = true to deliver it without noise)"
        )
    state = FrameworkState(
        variant=variant,
        classifier=train_model(classifier_spec, clean, rng),
        classifier_spec=classifier_spec,
        clean_pool=list(clean),
        rng=rng,
    )
    if variant in LABEL_MODEL_VARIANTS:
        if label_spec is None:
            raise ValueError(f"variant {variant!r} needs a label-model spec")
        state.label_spec = label_spec
        state.label_model = train_model(label_spec, clean, rng)
    state.pool_size_at_last_train = len(state.clean_pool)
    return state


def cleanse(label_model: ClassifierModel, batch: Batch) -> CleanseResult:
    """Split a batch by whether the label model confirms each given label."""
    preds = predict_batch(label_model, batch.instances)
    result = CleanseResult([], [], [])
    for inst, pred in zip(batch.instances, preds):
        if pred == inst.given_label:
            result.predicted_clean.append(inst)
        else:
            result.predicted_dirty.append(inst)
            result.dirty_predictions.append(pred)
    return result


def voting_filter(
    label_result: CleanseResult, classifier: ClassifierModel
) -> tuple[list[LabeledInstance], list[LabeledInstance]]:
    """Let the classifier vote on the label model's rejects.

    An instance is accepted if the classifier confirms its given label, or if
    the classifier and the label model agree on some other class, in which
    case the given label is replaced by that class. Everything else is
    rejected. Returns (accepted, rejected) in batch order.
    """
    uncertain = label_result.predicted_dirty
    accepted: list[LabeledInstance] = []
    rejected: list[LabeledInstance] = []
    if not uncertain:
        return accepted, rejected
    cls_preds = predict_batch(classifier, uncertain)
    for inst, label_pred, cls_pred in zip(
        uncertain, label_result.dirty_predictions, cls_preds
    ):
        if cls_pred == inst.given_label:
            accepted.append(inst)
        elif cls_pred == label_pred:
            inst.given_label = cls_pred
            accepted.append(inst)
        else:
            rejected.append(inst)
    return accepted, rejected


def _retrain_if_pool_grew(state: FrameworkState) -> bool:
    """Retrain both models on the pool, unless nothing was added since last time."""
    if len(state.clean_pool) == state.pool_size_at_last_train:
        return False
    state.classifier = train_model(state.classifier_spec, state.clean_pool, state.rng)
    if state.label_model is not None:
        state.label_model = train_model(state.label_spec, state.clean_pool, state.rng)
    state.pool_size_at_last_train = len(state.clean_pool)
    return True


def _report(
    state: FrameworkState,
    batch: Batch,
    selected: list[LabeledInstance],
    oracle_queries: int = 0,
) -> BatchReport:
    return BatchReport(
        batch_index=batch.index,
        drawn_noise_level=batch.drawn_noise_level,
        selected_count=len(selected),
        selected_true_clean_count=sum(1 for inst in selected if inst.is_clean),
        oracle_queries=oracle_queries,
        inactive_total=state.inactive_total,
    )


def rad_step(state: FrameworkState, batch: Batch) -> tuple[FrameworkState, BatchReport]:
    """Base variant: keep what the label model confirms, drop the rest."""
    result = cleanse(state.label_model, batch)
    selected = result.predicted_clean
    state.clean_pool.extend(selected)
    _retrain_if_pool_grew(state)
    return state, _report(state, batch, selected)


def voting_step(
    state: FrameworkState, batch: Batch
) -> tuple[FrameworkState, BatchReport]:
    """Voting variant: classifier seconds the label model; rejects are banked.

    Rejected instances join the size-ordered inactive history, models retrain
    on the grown pool, and the two largest history groups get reprocessed
    under the fresh models.
    """
    result = cleanse(state.label_model, batch)
    accepted, rejected = voting_filter(result, state.classifier)
    selected = result.predicted_clean + accepted
    state.clean_pool.extend(selected)
    if rejected:
        state.inactive.append(rejected)
        state.inactive.sort(key=len, reverse=True)
    _retrain_if_pool_grew(state)
    reprocess_history(state)
    return state, _report(state, batch, selected)


def reprocess_history(state: FrameworkState) -> FrameworkState:
    """Re-run the voting rule over the two largest inactive groups.

    Newly accepted instances join the pool right away but the models are not
    retrained here; they pick the additions up on the next arrival. Survivors
    re-enter the history, which stays sorted by size, largest first.
    """
    if not state.inactive:
        return state
    groups = state.inactive[:2]
    survivors: list[list[LabeledInstance]] = []
    for group in groups:
        preds = predict_batch(state.label_model, group)
        accepted, rejected = voting_filter(
            CleanseResult([], group, preds), state.classifier
        )
        state.clean_pool.extend(accepted)
        if rejected:
            survivors.append(rejected)
    state.inactive = state.inactive[2:] + survivors
    state.inactive.sort(key=len, reverse=True)
    return state


def _sample_within_budget(
    candidates: list[LabeledInstance],
    budget: OracleBudget,
    batch_size: int,
    rng: np.random.Generator,
) -> list[LabeledInstance]:
    """Uniform random subset of candidates obeying the per-batch cap."""
    cap = budget.max_queries(batch_size)
    if cap is None or len(candidates) <= cap:
        return list(candidates)
    picked = rng.choice(len(candidates), size=cap, replace=False)
    return [candidates[i] for i in sorted(int(i) for i in picked)]


def active_step(
    state: FrameworkState,
    batch: Batch,
    oracle: Oracle,
    budget: OracleBudget,
    rng: np.random.Generator,
) -> tuple[FrameworkState, BatchReport]:
    """Active variant: escalate voting disagreements to the oracle.

    Queried instances get their given label overwritten by the oracle's
    answer and always enter the pool; with a budget, the queried subset is
    sampled uniformly and the rest of the disagreements are discarded. No
    inactive history is kept.
    """
    result = cleanse(state.label_model, batch)
    accepted, disagreed = voting_filter(result, state.classifier)
    queried = _sample_within_budget(disagreed, budget, len(batch.instances), rng)
    for inst in queried:
        inst.given_label = oracle.answer(inst)
    state.oracle_queries_total += len(queried)
    selected = result.predicted_clean + accepted + queried
    state.clean_pool.extend(selected)
    _retrain_if_pool_grew(state)
    return state, _report(state, batch, selected, oracle_queries=len(queried))


def slimmed_step(
    state: FrameworkState,
    batch: Batch,
    oracle: Oracle,
    budget: OracleBudget,
    rng: np.random.Generator,
) -> tuple[FrameworkState, BatchReport]:
    """Slimmed variant: no label model, no full-pool retraining.

    The classifier itself screens the batch: confirmed labels are kept as-is,
    every other instance goes to the oracle (subject to the budget; unsampled
    ones are discarded). Training touches only the current batch's keepers,
    the current oracle answers, and the previous arrival's oracle answers, so
    each oracle batch is trained on exactly twice.
    """
    preds = predict_batch(state.classifier, batch.instances)
    agreed: list[LabeledInstance] = []
    disagreed: list[LabeledInstance] = []
    for inst, pred in zip(batch.instances, preds):
        (agreed if pred == inst.given_label else disagreed).append(inst)
    queried = _sample_within_budget(disagreed, budget, len(batch.instances), rng)
    for inst in queried:
        inst.given_label = oracle.answer(inst)
    state.oracle_queries_total += len(queried)

    window = agreed + queried + state.prev_oracle_batch
    state.last_training_window = list(window)
    if window:
        if isinstance(state.classifier, MlpModel):
            state.classifier.fit(
                features_matrix(window), given_labels(window), state.rng
            )
        else:
            state.classifier = train_model(state.classifier_spec, window, state.rng)

    selected = agreed + queried
    state.clean_pool.extend(selected)
    state.pool_size_at_last_train = len(state.clean_pool)
    state.prev_oracle_batch = list(queried)
    return state, _report(state, batch, selected, oracle_queries=len(queried))


def step(
    state: FrameworkState,
    batch: Batch,
    oracle: Oracle | None = None,
    budget: OracleBudget | None = None,
) -> tuple[FrameworkState, BatchReport]:
    """Dispatch one arrival to the state's variant."""
    if state.variant in ORACLE_VARIANTS:
        if oracle is None:
            raise ValueError(f"variant {state.variant!r} needs an oracle")
        budget = budget or OracleBudget()
        if state.variant == "active":
            return active_step(state, batch, oracle, budget, state.rng)
        return slimmed_step(state, batch, oracle, budget, state.rng)
    if state.variant == "rad":
        return rad_step(state, batch)
    return voting_step(state, batch)
