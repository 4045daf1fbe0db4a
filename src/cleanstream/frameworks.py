"""Streaming cleanse-then-classify variants.

Every variant keeps a classifier trained only on instances it believes are
clean. The base variant trusts a separate label-quality model; ``voting``
lets the classifier second the label model and banks rejects for later
reconsideration; ``active`` escalates disagreements to an oracle (optionally
budgeted); ``slimmed`` drops the label model entirely and retrains on a
sliding window instead of the full pool.

The three baselines in :mod:`cleanstream.baselines` run on the same state:
they are selection rules with no label model. :func:`step` is the one entry
for an arrival of any of the seven kinds.

All step functions mutate the passed state in place and return it together
with a per-batch report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import baselines
from .core import Batch, LabeledInstance
from .metrics import BatchReport
from .models import (
    ClassifierModel,
    ClassifierSpec,
    MlpModel,
    PoolBuffers,
    features_matrix,
    given_labels,
    predict_batch,
)
from .models import train as train_model

VARIANTS = ("rad", "voting", "active", "slimmed")
BASELINE_KINDS = tuple(baselines.SELECTION_RULES)
ALL_VARIANTS = VARIANTS + BASELINE_KINDS
LABEL_MODEL_VARIANTS = ("rad", "voting", "active")


class GroundTruthOracle:
    """Simulation oracle: answers a label query with the stored ground truth."""

    def answer(self, instance: LabeledInstance) -> int:
        return instance.true_label


@dataclass(frozen=True)
class OracleBudget:
    """Per-batch cap on oracle queries: at most ``floor(fraction * batch_size)``.

    The default fraction of 1 never binds, since every candidate comes from
    the arriving batch.
    """

    fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    def max_queries(self, batch_size: int) -> int:
        # the decimal as written: 0.29 * 100 is 28.999... in binary floating point
        return math.floor(Fraction(repr(self.fraction)) * batch_size)


@dataclass
class FrameworkState:
    """Mutable per-run state shared by all variants and baselines.

    ``clean_pool`` keeps the accepted instances together with their stacked
    rows; it only grows.
    """

    variant: str
    classifier: ClassifierModel
    classifier_spec: ClassifierSpec
    clean_pool: PoolBuffers
    rng: np.random.Generator
    label_model: ClassifierModel | None = None
    label_spec: ClassifierSpec | None = None
    inactive: list[list[LabeledInstance]] = field(default_factory=list)
    prev_oracle_batch: list[LabeledInstance] = field(default_factory=list)
    oracle_queries_total: int = 0
    pool_size_at_last_train: int = 0

    @property
    def inactive_total(self) -> int:
        return sum(len(group) for group in self.inactive)

    def report(
        self, batch: Batch, selected: list[LabeledInstance], oracle_queries: int = 0
    ) -> BatchReport:
        """The per-batch report of an arrival that selected ``selected``."""
        return BatchReport(
            batch_index=batch.index,
            drawn_noise_level=batch.drawn_noise_level,
            selected_count=len(selected),
            selected_true_clean_count=sum(1 for inst in selected if inst.is_clean),
            oracle_queries=oracle_queries,
            inactive_total=self.inactive_total,
        )


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
        classifier=None,
        classifier_spec=classifier_spec,
        clean_pool=PoolBuffers(clean),
        rng=rng,
    )
    state.classifier = train_model(classifier_spec, state.clean_pool, rng)
    if variant in LABEL_MODEL_VARIANTS:
        if label_spec is None:
            raise ValueError(f"variant {variant!r} needs a label-model spec")
        state.label_spec = label_spec
        state.label_model = train_model(label_spec, state.clean_pool, rng)
    state.pool_size_at_last_train = len(state.clean_pool)
    return state


def cleanse(
    model: ClassifierModel, instances: list[LabeledInstance]
) -> tuple[list[LabeledInstance], list[LabeledInstance], list[int]]:
    """Split instances by whether the model confirms each given label.

    Returns (agreed, disagreed, the model's prediction for each disagreed
    instance), all in input order.
    """
    agreed: list[LabeledInstance] = []
    disagreed: list[LabeledInstance] = []
    disagreed_preds: list[int] = []
    for inst, pred in zip(instances, predict_batch(model, instances)):
        if pred == inst.given_label:
            agreed.append(inst)
        else:
            disagreed.append(inst)
            disagreed_preds.append(pred)
    return agreed, disagreed, disagreed_preds


def voting_filter(
    instances: list[LabeledInstance],
    label_predictions: list[int],
    classifier: ClassifierModel,
) -> tuple[list[LabeledInstance], list[LabeledInstance]]:
    """Let the classifier vote on instances the label model rejected.

    ``label_predictions`` holds the label model's class for each instance.
    An instance is accepted if the classifier confirms its given label, or if
    the classifier and the label model agree on some other class, in which
    case the given label is replaced by that class. Everything else is
    rejected. Returns (accepted, rejected) in input order.
    """
    accepted: list[LabeledInstance] = []
    rejected: list[LabeledInstance] = []
    cls_preds = predict_batch(classifier, instances)
    for inst, label_pred, cls_pred in zip(instances, label_predictions, cls_preds):
        if cls_pred == inst.given_label:
            accepted.append(inst)
        elif cls_pred == label_pred:
            inst.given_label = cls_pred
            accepted.append(inst)
        else:
            rejected.append(inst)
    return accepted, rejected


def _retrain_if_pool_grew(state: FrameworkState) -> None:
    """Retrain both models on the pool, unless nothing was added since last time."""
    if len(state.clean_pool) == state.pool_size_at_last_train:
        return
    state.classifier = train_model(state.classifier_spec, state.clean_pool, state.rng)
    if state.label_model is not None:
        state.label_model = train_model(state.label_spec, state.clean_pool, state.rng)
    state.pool_size_at_last_train = len(state.clean_pool)


def rad_step(state: FrameworkState, batch: Batch) -> tuple[FrameworkState, BatchReport]:
    """Base variant: keep what the label model confirms, drop the rest."""
    selected, _, _ = cleanse(state.label_model, batch.instances)
    state.clean_pool.append(selected)
    _retrain_if_pool_grew(state)
    return state, state.report(batch, selected)


def voting_step(
    state: FrameworkState, batch: Batch
) -> tuple[FrameworkState, BatchReport]:
    """Voting variant: classifier seconds the label model; rejects are banked.

    Rejected instances join the size-ordered inactive history, models retrain
    on the grown pool, and the two largest history groups get reprocessed
    under the fresh models.
    """
    agreed, disagreed, preds = cleanse(state.label_model, batch.instances)
    accepted, rejected = voting_filter(disagreed, preds, state.classifier)
    selected = agreed + accepted
    state.clean_pool.append(selected)
    if rejected:
        state.inactive.append(rejected)
        state.inactive.sort(key=len, reverse=True)
    _retrain_if_pool_grew(state)
    reprocess_history(state)
    return state, state.report(batch, selected)


def reprocess_history(state: FrameworkState) -> None:
    """Re-run the voting rule over the two largest inactive groups.

    Newly accepted instances join the pool right away but the models are not
    retrained here; they pick the additions up on the next arrival. Survivors
    re-enter the history, which stays sorted by size, largest first.
    """
    if not state.inactive:
        return
    survivors: list[list[LabeledInstance]] = []
    for group in state.inactive[:2]:
        preds = predict_batch(state.label_model, group)
        accepted, rejected = voting_filter(group, preds, state.classifier)
        state.clean_pool.append(accepted)
        if rejected:
            survivors.append(rejected)
    state.inactive = state.inactive[2:] + survivors
    state.inactive.sort(key=len, reverse=True)


def _sample_within_budget(
    candidates: list[LabeledInstance],
    budget: OracleBudget,
    batch_size: int,
    rng: np.random.Generator,
) -> list[LabeledInstance]:
    """Uniform random subset of candidates obeying the per-batch cap."""
    cap = budget.max_queries(batch_size)
    if len(candidates) <= cap:
        return list(candidates)
    picked = rng.choice(len(candidates), size=cap, replace=False)
    return [candidates[i] for i in sorted(int(i) for i in picked)]


def active_step(
    state: FrameworkState, batch: Batch, oracle: GroundTruthOracle, budget: OracleBudget
) -> tuple[FrameworkState, BatchReport]:
    """Active variant: escalate voting disagreements to the oracle.

    Queried instances get their given label overwritten by the oracle's
    answer and always enter the pool; with a budget, the queried subset is
    sampled uniformly and the rest of the disagreements are discarded. No
    inactive history is kept.
    """
    agreed, disagreed, preds = cleanse(state.label_model, batch.instances)
    accepted, undecided = voting_filter(disagreed, preds, state.classifier)
    queried = _sample_within_budget(undecided, budget, len(batch.instances), state.rng)
    for inst in queried:
        inst.given_label = oracle.answer(inst)
    state.oracle_queries_total += len(queried)
    selected = agreed + accepted + queried
    state.clean_pool.append(selected)
    _retrain_if_pool_grew(state)
    return state, state.report(batch, selected, oracle_queries=len(queried))


def slimmed_step(
    state: FrameworkState, batch: Batch, oracle: GroundTruthOracle, budget: OracleBudget
) -> tuple[FrameworkState, BatchReport]:
    """Slimmed variant: no label model, no full-pool retraining.

    The classifier itself screens the batch: confirmed labels are kept as-is,
    every other instance goes to the oracle (subject to the budget; unsampled
    ones are discarded). Training touches only the current batch's keepers,
    the current oracle answers, and the previous arrival's oracle answers, so
    each oracle batch is trained on exactly twice.
    """
    agreed, disagreed, _ = cleanse(state.classifier, batch.instances)
    queried = _sample_within_budget(disagreed, budget, len(batch.instances), state.rng)
    for inst in queried:
        inst.given_label = oracle.answer(inst)
    state.oracle_queries_total += len(queried)

    window = agreed + queried + state.prev_oracle_batch
    if window:
        if isinstance(state.classifier, MlpModel):
            state.classifier.fit(
                features_matrix(window), given_labels(window), state.rng
            )
        else:
            state.classifier = train_model(state.classifier_spec, window, state.rng)

    selected = agreed + queried
    state.clean_pool.append(selected)
    state.prev_oracle_batch = queried
    return state, state.report(batch, selected, oracle_queries=len(queried))


def step(
    state: FrameworkState, batch: Batch, oracle: GroundTruthOracle, budget: OracleBudget
) -> tuple[FrameworkState, BatchReport]:
    """Run one arrival through the state's variant or baseline."""
    if state.variant == "rad":
        return rad_step(state, batch)
    if state.variant == "voting":
        return voting_step(state, batch)
    if state.variant == "active":
        return active_step(state, batch, oracle, budget)
    if state.variant == "slimmed":
        return slimmed_step(state, batch, oracle, budget)
    return baselines.step(state, batch)
