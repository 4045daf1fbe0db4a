"""Reference baselines that bracket the selection frameworks.

Each baseline is a selection rule over the same state the variants use, set
up by :func:`cleanstream.frameworks.initialize` without a label model and
stepped through :func:`cleanstream.frameworks.step`. ``no_sel`` trains on
everything as delivered (lower anchor), ``opt_sel`` trains only on the truly
clean part of each batch (what a perfect selector would keep), and
``full_clean`` trains on everything with labels reset to ground truth (upper
anchor), taking a relabelled copy of each mislabelled instance. The last two
read ``true_label`` and exist only for simulation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .core import Batch, LabeledInstance
from .metrics import BatchReport
from .models import train as train_model

if TYPE_CHECKING:
    from .frameworks import FrameworkState


def no_sel(batch: Batch) -> list[LabeledInstance]:
    """Take the whole batch, noisy labels and all."""
    return batch.instances


def opt_sel(batch: Batch) -> list[LabeledInstance]:
    """Omniscient selection: keep exactly the truly clean instances."""
    return [inst for inst in batch.instances if inst.is_clean]


def full_clean(batch: Batch) -> list[LabeledInstance]:
    """Noise-free upper bound: take everything, mislabelled instances as relabelled copies."""
    return [inst if inst.is_clean else inst.relabeled(inst.true_label) for inst in batch.instances]


SELECTION_RULES = {"no_sel": no_sel, "opt_sel": opt_sel, "full_clean": full_clean}


def step(state: FrameworkState, batch: Batch) -> tuple[FrameworkState, BatchReport]:
    """Apply the state's selection rule to one arrival, then retrain if the pool grew."""
    selected = SELECTION_RULES[state.variant](batch)
    state.clean_pool.append(selected)
    if len(state.clean_pool) != state.classifier.trained_on_count:
        state.classifier = train_model(state.classifier.spec, state.clean_pool, state.rng)
    return state, state.report(batch, selected)
