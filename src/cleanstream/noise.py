"""Symmetric label-noise injection with per-batch noise levels.

Noise is label-only and independent of features and classes: a batch-level
fraction is drawn from N(mean, std * mean) clamped to [0, 1], and exactly
that fraction of the batch (rounded) is replaced by copies whose given
label is a uniformly random *other* class. ``true_label`` is never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Batch


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of per-batch noise levels.

    A batch level has standard deviation ``std_dev * mean_level``: ``std_dev``
    is the spread as a fraction of the mean (default 0.2), so mean 0 or
    ``std_dev`` 0 draws the mean itself for every batch.
    """

    mean_level: float
    std_dev: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.mean_level <= 1.0:
            raise ValueError(f"mean_level must be in [0, 1], got {self.mean_level}")
        if self.std_dev < 0.0:
            raise ValueError(f"std_dev must be >= 0, got {self.std_dev}")

    @property
    def sigma(self) -> float:
        """Standard deviation of a batch level: ``std_dev * mean_level``."""
        return self.std_dev * self.mean_level


def draw_batch_noise_level(spec: NoiseSpec, rng) -> float:
    """Draw one batch's noise level: Normal(mean, sigma) clamped into [0, 1]."""
    return float(min(1.0, max(0.0, rng.normal(spec.mean_level, spec.sigma))))


def flip_count(level: float, batch_size: int) -> int:
    """Number of instances to corrupt: level * size, rounded half up."""
    return int(math.floor(level * batch_size + 0.5))


def inject_symmetric_noise(batch: Batch, level: float, num_classes: int, rng) -> Batch:
    """Corrupt exactly ``flip_count(level, |batch|)`` distinct instances of the batch.

    Each chosen instance is replaced in ``batch.instances`` by a copy whose
    given label is drawn uniformly from the other ``num_classes - 1`` classes,
    never the true label. Records the drawn level on the batch and returns it.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"noise level must be in [0, 1], got {level}")
    n = len(batch.instances)
    flips = flip_count(level, n)
    if flips:
        chosen = rng.choice(n, size=flips, replace=False)
        # one call draws the same values, and leaves the generator in the same
        # state, as one scalar draw per flip
        draws = rng.integers(num_classes - 1, size=flips)
        for i, r in zip(chosen.tolist(), draws.tolist()):
            inst = batch.instances[i]
            batch.instances[i] = inst.relabeled(r + 1 if r >= inst.true_label else r)
    batch.drawn_noise_level = level
    return batch
