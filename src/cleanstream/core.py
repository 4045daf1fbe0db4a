"""Domain types, dataset loading, synthetic generation, and stream splitting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CsvFormatError(ValueError):
    """A dataset CSV violates the declared format (bad header or cell)."""


class StreamSizeError(ValueError):
    """The dataset is too small for the configured stream layout."""


@dataclass(eq=False)
class LabeledInstance:
    """One stream record: a feature vector plus the label it arrived with.

    ``true_label`` is ground truth and is consulted only by the noise
    injector, the oracle, the omniscient baselines, and metrics. ``uid`` is
    the instance's row in its dataset (-1 if made by hand) and survives label
    mutations; tests name instances by it. The test-purity audit compares
    object identity, not ``uid``.
    """

    features: np.ndarray
    given_label: int
    true_label: int
    uid: int = -1

    @property
    def is_clean(self) -> bool:
        """True iff the given label matches ground truth (derived, never stale)."""
        return self.given_label == self.true_label


@dataclass
class Batch:
    """An ordered group of instances arriving at one time step."""

    index: int
    instances: list[LabeledInstance]
    drawn_noise_level: float = 0.0

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class StreamConfig:
    """Shape of a batch stream: class/feature counts and split sizes."""

    num_classes: int
    num_features: int
    initial_batch_size: int
    batch_size: int
    num_batches: int
    test_size: int
    seed: int = 0
    stratify: bool = False

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        for name in ("num_features", "initial_batch_size", "batch_size", "test_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_batches < 0:
            raise ValueError(f"num_batches must be >= 0, got {self.num_batches}")

    @property
    def total_instances(self) -> int:
        """Instances consumed by one full stream: initial + arrivals + test."""
        return (
            self.initial_batch_size
            + self.batch_size * self.num_batches
            + self.test_size
        )


Dataset = list[LabeledInstance]


def load_csv(path, num_classes: int) -> Dataset:
    """Read a dataset CSV (header ``f0,...,f{n-1},label``) as clean ground truth.

    Every row becomes an instance with ``true_label = given_label`` and
    ``is_clean`` true; noise is injected later, downstream. Non-numeric and
    non-finite (``nan``, ``inf``) feature cells and non-integer labels raise
    :class:`CsvFormatError` naming the offending line; wrong column
    counts and out-of-range labels raise :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise CsvFormatError(f"{path}: empty file, expected a header line")
        cells = header.rstrip("\r\n").split(",")
        if cells[-1] != "label" or len(cells) < 2:
            raise CsvFormatError(
                f"{path}: line 1: header must be 'f0,...,f{{n-1}},label'"
            )
        num_features = len(cells) - 1
        expected = [f"f{i}" for i in range(num_features)] + ["label"]
        if cells != expected:
            raise CsvFormatError(
                f"{path}: line 1: header must be 'f0,...,f{num_features - 1},label'"
            )

        instances: Dataset = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != num_features + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {num_features + 1} columns, "
                    f"got {len(cells)}"
                )
            try:
                features = np.array([float(c) for c in cells[:-1]], dtype=np.float64)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: line {lineno}: non-numeric feature cell"
                ) from None
            if not np.isfinite(features).all():
                raise CsvFormatError(f"{path}: line {lineno}: non-finite feature cell")
            try:
                label = int(cells[-1])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: line {lineno}: label is not a base-10 integer"
                ) from None
            if not 0 <= label < num_classes:
                raise ValueError(
                    f"{path}: line {lineno}: label {label} outside 0..{num_classes - 1}"
                )
            instances.append(
                LabeledInstance(
                    features=features,
                    given_label=label,
                    true_label=label,
                    uid=len(instances),
                )
            )
    return instances


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the declared CSV format (given labels only)."""
    if not dataset:
        raise ValueError("cannot write an empty dataset")
    num_features = len(dataset[0].features)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join([f"f{i}" for i in range(num_features)] + ["label"]) + "\n")
        for inst in dataset:
            row = [repr(float(v)) for v in inst.features]
            row.append(str(inst.given_label))
            fh.write(",".join(row) + "\n")


def _class_means(num_classes: int, num_features: int, separation: float) -> np.ndarray:
    # f >= K: one-hot corners at radius `separation`, pairwise distance
    # separation*sqrt(2); otherwise means sit on a line spaced `separation`
    # apart. Both keep every pair at least `separation` apart.
    means = np.zeros((num_classes, num_features))
    if num_features >= num_classes:
        for k in range(num_classes):
            means[k, k] = separation
    else:
        for k in range(num_classes):
            means[k, 0] = separation * k
    return means


def generate_synthetic(config: StreamConfig, separation: float = 3.0) -> Dataset:
    """Sample ``config.total_instances`` points from K unit-variance Gaussian blobs.

    Class means are mutually at least ``separation`` apart, class proportions
    are equal up to one instance, and the result is deterministic in
    ``config.seed``. All instances are clean by construction.
    """
    if separation <= 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    rng = np.random.default_rng(config.seed)
    total = config.total_instances
    means = _class_means(config.num_classes, config.num_features, separation)

    counts = np.full(config.num_classes, total // config.num_classes)
    counts[: total % config.num_classes] += 1
    labels = np.repeat(np.arange(config.num_classes), counts)
    labels = labels[rng.permutation(total)]
    features = means[labels] + rng.standard_normal((total, config.num_features))

    return [
        LabeledInstance(
            features=features[i].copy(),
            given_label=int(labels[i]),
            true_label=int(labels[i]),
            uid=i,
        )
        for i in range(total)
    ]


def _stratified_order(dataset: Dataset, rng) -> np.ndarray:
    # Spread each class evenly over the whole order: the i-th of a class's n
    # shuffled instances gets the key (i + 1/2) / n, and a stable sort merges
    # the classes. In any run of consecutive positions, class c's count is
    # then within 1 + K * share_c of share_c times the run's length, where
    # share_c is c's share of the dataset and K the number of classes present.
    labels = np.array([inst.given_label for inst in dataset])
    keys = np.empty(len(labels))
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        keys[idx[rng.permutation(len(idx))]] = (np.arange(len(idx)) + 0.5) / len(idx)
    return np.argsort(keys, kind="stable")


def split_stream(
    dataset: Dataset, config: StreamConfig, rng
) -> tuple[Batch, list[Batch], list[LabeledInstance]]:
    """Partition a dataset into the initial batch, arriving batches, and test set.

    The partition is disjoint and random under ``rng``; instances beyond
    ``config.total_instances`` are left unused. With ``config.stratify`` each
    split's class counts follow the dataset's class shares (see
    :func:`_stratified_order`). Test instances must never be noise-injected
    downstream.
    """
    required = config.total_instances
    if len(dataset) < required:
        raise StreamSizeError(
            f"stream needs {required} instances "
            f"(initial {config.initial_batch_size} + "
            f"{config.num_batches} x {config.batch_size} + test {config.test_size}), "
            f"dataset has {len(dataset)}"
        )
    if config.stratify:
        order = _stratified_order(dataset, rng)
    else:
        order = rng.permutation(len(dataset))

    picked = [dataset[i] for i in order[:required]]
    cuts = config.initial_batch_size + config.batch_size * np.arange(config.num_batches + 1)
    initial = Batch(index=0, instances=picked[: cuts[0]])
    arrivals = [
        Batch(index=i + 1, instances=picked[cuts[i] : cuts[i + 1]])
        for i in range(config.num_batches)
    ]
    test = picked[cuts[-1] :]
    return initial, arrivals, test


def fit_feature_ranges(instances: list[LabeledInstance]) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature (min, max) over ``instances``, for min-max scaling."""
    stacked = np.stack([inst.features for inst in instances])
    return stacked.min(axis=0), stacked.max(axis=0)


def scale_features(
    instances: list[LabeledInstance], lo: np.ndarray, hi: np.ndarray
) -> None:
    """Rescale each instance's features to [0, 1] under the fitted ranges.

    Constant features map to 0. Each instance gets a fresh array; the source
    arrays are never mutated.
    """
    span = hi - lo
    span = np.where(span == 0, 1.0, span)
    for inst in instances:
        inst.features = (inst.features - lo) / span
