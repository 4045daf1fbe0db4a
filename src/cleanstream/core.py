"""Domain types, dataset loading, synthetic generation, and stream splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CsvFormatError(ValueError):
    """A dataset CSV violates the declared format (bad header or cell)."""


class StreamSizeError(ValueError):
    """The dataset is too small for the configured stream layout."""


@dataclass(frozen=True, eq=False, slots=True)
class LabeledInstance:
    """One stream record: a feature vector plus the label it arrived with.

    ``true_label`` is ground truth and is consulted only by the noise
    injector, the oracle, the omniscient baselines, and metrics. ``uid`` is
    the instance's row in its dataset (-1 if made by hand); a relabelled copy
    keeps it, so tests and the test-purity audit name instances by it.

    A record is never written after it is made: a relabel is a new record
    from :meth:`relabeled`. ``features`` may be a read-only view of a matrix
    whose other rows belong to other instances, and copies share it.
    """

    features: np.ndarray
    given_label: int
    true_label: int
    uid: int = -1

    @property
    def is_clean(self) -> bool:
        """True iff the given label matches ground truth."""
        return self.given_label == self.true_label

    def relabeled(self, label: int) -> LabeledInstance:
        """A copy of this record with ``label`` as its given label."""
        return LabeledInstance(self.features, label, self.true_label, self.uid)


@dataclass
class Batch:
    """An ordered group of instances arriving at one time step."""

    index: int
    instances: list[LabeledInstance]
    drawn_noise_level: float = 0.0


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

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

    Every row becomes an instance with ``true_label = given_label``,
    ``is_clean`` true and read-only features; noise is injected later,
    downstream. Every format violation (an empty file, a bad header, a wrong
    column count, a non-numeric or non-finite feature cell, a label that is
    not an integer in ``0..num_classes-1``) raises :class:`CsvFormatError`
    naming where it is.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise CsvFormatError(f"{path}: empty file, expected a header line")
        cells = header.rstrip("\r\n").split(",")
        num_features = len(cells) - 1
        expected = [f"f{i}" for i in range(num_features)] + ["label"]
        if num_features < 1 or cells != expected:
            raise CsvFormatError(f"{path}: line 1: header must be 'f0,...,f{{n-1}},label'")

        instances: Dataset = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != num_features + 1:
                raise CsvFormatError(
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
            features.flags.writeable = False
            try:
                label = int(cells[-1])
            except ValueError:
                raise CsvFormatError(
                    f"{path}: line {lineno}: label is not a base-10 integer"
                ) from None
            if not 0 <= label < num_classes:
                raise CsvFormatError(
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
    k = np.arange(num_classes)
    if num_features >= num_classes:
        means[k, k] = separation
    else:
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
    features = rng.standard_normal((total, config.num_features))
    features += means[labels]
    # every instance's features are a row of this one matrix, so it is frozen
    features.flags.writeable = False

    return [
        LabeledInstance(row, label, label, i)
        for i, (row, label) in enumerate(zip(features, labels.tolist()))
    ]


def split_stream(
    dataset: Dataset, config: StreamConfig, rng
) -> tuple[Batch, list[Batch], list[LabeledInstance]]:
    """Partition a dataset into the initial batch, arriving batches, and test set.

    The partition is disjoint and random under ``rng``; instances beyond
    ``config.total_instances`` are left unused. Test instances must never be
    noise-injected downstream.
    """
    required = config.total_instances
    if len(dataset) < required:
        raise StreamSizeError(
            f"stream needs {required} instances "
            f"(initial {config.initial_batch_size} + "
            f"{config.num_batches} x {config.batch_size} + test {config.test_size}), "
            f"dataset has {len(dataset)}"
        )
    order = rng.permutation(len(dataset))
    picked = [dataset[i] for i in order[:required].tolist()]
    cuts = config.initial_batch_size + config.batch_size * np.arange(config.num_batches + 1)
    initial = Batch(index=0, instances=picked[: cuts[0]])
    arrivals = [
        Batch(index=i + 1, instances=picked[cuts[i] : cuts[i + 1]])
        for i in range(config.num_batches)
    ]
    test = picked[cuts[-1] :]
    return initial, arrivals, test
