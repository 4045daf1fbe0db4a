"""Streaming cleanse-then-classify variants.

Every variant keeps a classifier trained only on instances it believes are
clean. Each is one :class:`Kind` in ``KINDS``: the base ``rad`` keeps what a
separate label-quality model confirms; ``voting`` lets the classifier second
the label model and banks rejects for later reconsideration; ``active``
escalates disagreements to an oracle (optionally budgeted); ``slimmed``
drops the label model and retrains on a sliding window instead of the pool.

The three baselines in :mod:`cleanstream.baselines` run on the same state:
they are selection rules with no label model. :func:`step` is the one entry
for an arrival of any of the seven kinds. It mutates the passed state in
place and returns it together with a per-batch report.
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


@dataclass(frozen=True)
class Kind:
    """What a variant does with an arrival besides keeping what its screen confirms.

    ``vote``: the classifier seconds the label model's rejects. ``oracle``:
    whatever is still rejected goes to the oracle, within the budget.
    ``history``: rejects are banked, then the history is reprocessed.
    ``window``: the classifier screens instead of the label model, and trains
    on this arrival's keepers and the previous arrival's oracle answers, not
    on the pool, so each oracle batch is trained on twice.
    """

    vote: bool = False
    oracle: bool = False
    history: bool = False
    window: bool = False


KINDS = {
    "rad": Kind(),
    "voting": Kind(vote=True, history=True),
    "active": Kind(vote=True, oracle=True),
    "slimmed": Kind(oracle=True, window=True),
}
BASELINE_KINDS = tuple(baselines.SELECTION_RULES)
ALL_VARIANTS = tuple(KINDS) + BASELINE_KINDS
LABEL_MODEL_VARIANTS = tuple(name for name, kind in KINDS.items() if not kind.window)


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
    rows; it only grows. Each model records its spec and ``trained_on_count``,
    the pool rows it was trained on; a kind with a window counts its window
    rows, and nothing compares those with the pool. ``oracle`` and its
    per-batch ``budget`` serve the kinds that ask for true labels; the others
    ignore them. Each arrival's oracle queries are counted in its report only.
    """

    variant: str
    classifier: ClassifierModel
    clean_pool: PoolBuffers
    rng: np.random.Generator
    budget: OracleBudget = OracleBudget()
    oracle: GroundTruthOracle = GroundTruthOracle()
    label_model: ClassifierModel | None = None
    inactive: list[list[LabeledInstance]] = field(default_factory=list)
    prev_oracle_batch: list[LabeledInstance] = field(default_factory=list)

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
            inactive_total=sum(len(group) for group in self.inactive),
        )


def initialize(
    variant: str,
    initial_batch: Batch,
    label_spec: ClassifierSpec | None,
    classifier_spec: ClassifierSpec,
    rng: np.random.Generator,
    budget: OracleBudget = OracleBudget(),
) -> FrameworkState:
    """Seed the pool and models from the truly clean part of the first batch.

    Serves every variant and baseline; only the ``KINDS`` without a window,
    ``LABEL_MODEL_VARIANTS``, train a label model, and the state keeps the
    oracle ``budget`` for the kinds that ask. The first batch is assumed
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
    pool = PoolBuffers(clean)
    state = FrameworkState(variant, train_model(classifier_spec, pool, rng), pool, rng, budget)
    if variant in LABEL_MODEL_VARIANTS:
        if label_spec is None:
            raise ValueError(f"variant {variant!r} needs a label-model spec")
        state.label_model = train_model(label_spec, state.clean_pool, rng)
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
    case a copy relabelled to that class is accepted. Everything else is
    rejected. Returns (accepted, rejected) in input order.
    """
    accepted: list[LabeledInstance] = []
    rejected: list[LabeledInstance] = []
    cls_preds = predict_batch(classifier, instances)
    for inst, label_pred, cls_pred in zip(instances, label_predictions, cls_preds):
        if cls_pred == inst.given_label:
            accepted.append(inst)
        elif cls_pred == label_pred:
            accepted.append(inst.relabeled(cls_pred))
        else:
            rejected.append(inst)
    return accepted, rejected


def _retrain_if_pool_grew(state: FrameworkState) -> None:
    """Retrain the classifier on the pool, unless nothing was added since last time.

    The classifier was last trained, fresh, on the whole pool as it then was.
    The label model follows it on its next read, in :func:`_label_model`.
    """
    if len(state.clean_pool) != state.classifier.trained_on_count:
        state.classifier = train_model(state.classifier.spec, state.clean_pool, state.rng)


def _label_model(state: FrameworkState) -> ClassifierModel:
    """The label model, first retrained on the pool if the classifier was since.

    Training waits for the read, so the retrain after the last arrival, which
    nothing reads, never runs. Both models then see the same pool rows, and
    nothing draws from ``state.rng`` between the two retrains.
    """
    model = state.label_model
    if model.trained_on_count != state.classifier.trained_on_count:
        if len(state.clean_pool) != state.classifier.trained_on_count:
            raise RuntimeError(
                f"the pool grew to {len(state.clean_pool)} rows after the classifier "
                f"was trained on {state.classifier.trained_on_count}"
            )
        state.label_model = model = train_model(model.spec, state.clean_pool, state.rng)
    return model


def reprocess_history(state: FrameworkState) -> None:
    """Re-run the voting rule over the two largest inactive groups.

    Newly accepted instances join the pool right away, but no model is
    trained on them here; they pick the additions up on the next arrival. Survivors
    re-enter the history, which stays sorted by size, largest first.
    """
    survivors: list[list[LabeledInstance]] = []
    for group in state.inactive[:2]:
        preds = predict_batch(_label_model(state), group)
        accepted, rejected = voting_filter(group, preds, state.classifier)
        state.clean_pool.append(accepted)
        if rejected:
            survivors.append(rejected)
    state.inactive = state.inactive[2:] + survivors
    state.inactive.sort(key=len, reverse=True)


def _ask_oracle(
    state: FrameworkState, candidates: list[LabeledInstance], batch_size: int
) -> list[LabeledInstance]:
    """Relabelled copies of a uniform subset of candidates, in batch order, within the cap."""
    cap = state.budget.max_queries(batch_size)
    asked = list(candidates)
    if len(asked) > cap:
        picked = state.rng.choice(len(asked), size=cap, replace=False)
        asked = [asked[i] for i in sorted(int(i) for i in picked)]
    return [inst.relabeled(state.oracle.answer(inst)) for inst in asked]


def step(state: FrameworkState, batch: Batch) -> tuple[FrameworkState, BatchReport]:
    """Run one arrival through the state's kind: the entry for all seven.

    A variant screens the batch, keeps what its screen confirms, and takes
    its kind's extra steps on the rest: the vote, the oracle, the banked
    history. A baseline goes to :func:`cleanstream.baselines.step`.
    """
    kind = KINDS.get(state.variant)
    if kind is None:
        # baselines.step is looked up on each call, so a wrapper set on it is the one that runs
        return baselines.step(state, batch)
    screen = state.classifier if kind.window else _label_model(state)
    selected, rejected, preds = cleanse(screen, batch.instances)
    if kind.vote:
        accepted, rejected = voting_filter(rejected, preds, state.classifier)
        selected += accepted
    queried = _ask_oracle(state, rejected, len(batch.instances)) if kind.oracle else []
    selected += queried
    if kind.window:
        # an MLP warm-starts on the window; the other models are trained afresh on it
        window = selected + state.prev_oracle_batch
        if window and isinstance(state.classifier, MlpModel):
            state.classifier.fit(features_matrix(window), given_labels(window), state.rng)
        elif window:
            state.classifier = train_model(state.classifier.spec, window, state.rng)
        state.prev_oracle_batch = queried
    state.clean_pool.append(selected)
    if kind.history and rejected:
        state.inactive.append(rejected)
        state.inactive.sort(key=len, reverse=True)
    if not kind.window:
        _retrain_if_pool_grew(state)
    if kind.history:
        reprocess_history(state)
    return state, state.report(batch, selected, oracle_queries=len(queried))
