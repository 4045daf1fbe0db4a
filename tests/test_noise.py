"""Noise-level drawing and symmetric label corruption."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cleanstream.core import Batch, LabeledInstance
from cleanstream.noise import (
    NoiseSpec,
    draw_batch_noise_level,
    flip_count,
    inject_symmetric_noise,
)


def make_batch(n: int, num_classes: int, seed: int = 0) -> Batch:
    rng = np.random.default_rng(seed)
    instances = [
        LabeledInstance(
            features=rng.normal(size=2),
            given_label=int(label),
            true_label=int(label),
            uid=i,
        )
        for i, label in enumerate(rng.integers(num_classes, size=n))
    ]
    return Batch(index=1, instances=instances)


# ---------------------------------------------------------------------------
# spec validation and sigma arithmetic

def test_relative_sigma_scales_with_mean():
    assert NoiseSpec(mean_level=0.5).sigma == pytest.approx(0.1)
    assert NoiseSpec(mean_level=0.3).sigma == pytest.approx(0.06)


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(mean_level=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(mean_level=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(mean_level=0.3, std_dev=-1.0)


# ---------------------------------------------------------------------------
# level drawing

def test_levels_are_clamped_to_unit_interval():
    spec = NoiseSpec(mean_level=0.5, std_dev=10.0)
    assert spec.sigma == 5.0
    rng = np.random.default_rng(0)
    levels = [draw_batch_noise_level(spec, rng) for _ in range(500)]
    assert min(levels) == 0.0  # sigma huge, both clamps must trigger
    assert max(levels) == 1.0
    assert all(0.0 <= lv <= 1.0 for lv in levels)


def test_zero_sigma_draws_the_mean_exactly():
    spec = NoiseSpec(mean_level=0.42, std_dev=0.0)
    rng = np.random.default_rng(0)
    assert all(draw_batch_noise_level(spec, rng) == 0.42 for _ in range(10))


def test_level_distribution_tracks_the_mean():
    spec = NoiseSpec(mean_level=0.3)
    rng = np.random.default_rng(1)
    levels = np.array([draw_batch_noise_level(spec, rng) for _ in range(4000)])
    assert abs(levels.mean() - 0.3) < 0.01
    assert abs(levels.std() - spec.sigma) < 0.01


@settings(max_examples=50, deadline=None)
@given(mean=st.floats(0.0, 1.0), sigma=st.floats(0.0, 2.0), seed=st.integers(0, 10_000))
def test_drawn_level_always_valid(mean, sigma, seed):
    # std_dev is chosen so that sigma spans [0, 2] at every mean of 0.01 or more
    spec = NoiseSpec(mean_level=mean, std_dev=sigma / max(mean, 0.01))
    level = draw_batch_noise_level(spec, np.random.default_rng(seed))
    assert 0.0 <= level <= 1.0


# ---------------------------------------------------------------------------
# flip counting

def test_flip_count_rounds_half_up():
    assert flip_count(0.4, 10_000) == 4000
    assert flip_count(0.25, 10) == 3  # 2.5 rounds up, deterministically
    assert flip_count(0.5, 5) == 3
    assert flip_count(0.24, 10) == 2
    assert flip_count(0.0, 100) == 0
    assert flip_count(1.0, 100) == 100


# ---------------------------------------------------------------------------
# injection

def test_exact_flip_count_at_forty_percent():
    batch = make_batch(10_000, num_classes=5)
    inject_symmetric_noise(batch, 0.4, 5, np.random.default_rng(7))
    flipped = sum(1 for inst in batch.instances if not inst.is_clean)
    assert flipped == 4000
    assert batch.drawn_noise_level == 0.4


def test_flips_never_reproduce_the_true_label():
    batch = make_batch(2000, num_classes=3)
    inject_symmetric_noise(batch, 1.0, 3, np.random.default_rng(3))
    assert all(not inst.is_clean for inst in batch.instances)
    assert all(0 <= inst.given_label < 3 for inst in batch.instances)


def test_true_labels_never_touched():
    batch = make_batch(500, num_classes=4)
    before = [inst.true_label for inst in batch.instances]
    inject_symmetric_noise(batch, 0.8, 4, np.random.default_rng(5))
    assert [inst.true_label for inst in batch.instances] == before


def test_replacement_classes_are_uniform():
    # all instances share true label 0, so flips land on 1..K-1; chi-square
    # against the uniform distribution at significance 0.01
    num_classes = 6
    rng = np.random.default_rng(1234)
    instances = [
        LabeledInstance(features=np.zeros(1), given_label=0, true_label=0, uid=i)
        for i in range(30_000)
    ]
    batch = Batch(index=1, instances=instances)
    inject_symmetric_noise(batch, 1.0, num_classes, rng)
    counts = np.bincount(
        [inst.given_label for inst in batch.instances], minlength=num_classes
    )
    assert counts[0] == 0
    result = stats.chisquare(counts[1:])
    assert result.pvalue >= 0.01


def test_flip_selection_is_uniform_over_instances():
    # each instance should be flipped with probability ~level across seeds
    batch_size, trials, level = 60, 2000, 0.3
    hits = np.zeros(batch_size)
    for seed in range(trials):
        batch = make_batch(batch_size, num_classes=3, seed=1)
        inject_symmetric_noise(batch, level, 3, np.random.default_rng(seed))
        hits += [0 if inst.is_clean else 1 for inst in batch.instances]
    result = stats.chisquare(hits, f_exp=np.full(batch_size, hits.sum() / batch_size))
    assert result.pvalue >= 0.01


def test_injection_is_deterministic():
    a = make_batch(300, num_classes=4)
    b = make_batch(300, num_classes=4)
    inject_symmetric_noise(a, 0.5, 4, np.random.default_rng(9))
    inject_symmetric_noise(b, 0.5, 4, np.random.default_rng(9))
    assert [i.given_label for i in a.instances] == [i.given_label for i in b.instances]


def test_injection_mutates_in_place_and_returns_batch():
    batch = make_batch(50, num_classes=3)
    out = inject_symmetric_noise(batch, 0.2, 3, np.random.default_rng(0))
    assert out is batch


def test_injection_validation():
    batch = make_batch(10, num_classes=2)
    with pytest.raises(ValueError):
        inject_symmetric_noise(batch, 0.5, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        inject_symmetric_noise(batch, 1.2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        inject_symmetric_noise(batch, -0.1, 2, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 400),
    num_classes=st.integers(2, 8),
    level=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_injection_flip_count_property(n, num_classes, level, seed):
    batch = make_batch(n, num_classes, seed=0)
    inject_symmetric_noise(batch, level, num_classes, np.random.default_rng(seed))
    flipped = sum(1 for inst in batch.instances if not inst.is_clean)
    assert flipped == flip_count(level, n)
    assert all(0 <= inst.given_label < num_classes for inst in batch.instances)
