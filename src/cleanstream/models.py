"""From-scratch multi-class models: k-NN, nearest centroid, and a small MLP.

All three train from (features, given_label) pairs and predict hard class
indices. Numpy is the only numerical dependency; there is no hidden global
state, and every source of randomness is an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import LabeledInstance

MODEL_KINDS = ("knn", "centroid", "mlp")


@dataclass(frozen=True)
class ClassifierSpec:
    """Everything needed to train one model, minus the data and the rng."""

    kind: str
    num_classes: int
    knn_k: int = 5
    mlp_hidden: tuple[int, ...] = (28, 28)
    mlp_epochs: int = 50
    mlp_learning_rate: float = 0.01
    mlp_batch_size: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {self.knn_k}")
        if not self.mlp_hidden or any(w < 1 for w in self.mlp_hidden):
            raise ValueError(f"mlp_hidden widths must be >= 1, got {self.mlp_hidden}")
        if self.mlp_epochs < 1:
            raise ValueError(f"mlp_epochs must be >= 1, got {self.mlp_epochs}")
        if self.mlp_learning_rate <= 0:
            raise ValueError(
                f"mlp_learning_rate must be > 0, got {self.mlp_learning_rate}"
            )
        if self.mlp_batch_size < 1:
            raise ValueError(f"mlp_batch_size must be >= 1, got {self.mlp_batch_size}")


def features_matrix(instances: list[LabeledInstance]) -> np.ndarray:
    """The instances' features as the rows of one new float64 matrix."""
    rows = [inst.features for inst in instances]
    if len(set(map(len, rows))) > 1:
        raise ValueError("feature rows differ in length")
    # one copy, with no per-row loop in Python
    return np.concatenate(rows, dtype=np.float64).reshape(len(rows), len(rows[0]))


def given_labels(instances: list[LabeledInstance]) -> np.ndarray:
    return np.array([inst.given_label for inst in instances], dtype=np.int64)


class PoolBuffers:
    """A training pool's instances, with their features and given labels as rows.

    Capacity doubles when full, so each instance is stacked once however often
    the pool is trained on. ``X`` and ``y`` view the first ``len(self)`` rows,
    row i being ``instances[i]``. Instances are immutable, so rows are never
    changed once appended, and a model trained on a prefix keeps seeing that
    prefix.
    """

    def __init__(self, instances: list[LabeledInstance] = ()) -> None:
        self.instances: list[LabeledInstance] = []
        self._features = np.empty((0, 0))
        self._labels = np.empty(0, dtype=np.int64)
        self.append(instances)

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    @property
    def X(self) -> np.ndarray:
        return self._features[: len(self)]

    @property
    def y(self) -> np.ndarray:
        return self._labels[: len(self)]

    def append(self, instances: list[LabeledInstance]) -> None:
        if not instances:
            return
        rows = features_matrix(instances)
        start, end = len(self), len(self) + len(rows)
        if end > len(self._labels):
            capacity = max(end, 2 * len(self._labels))
            features = np.empty((capacity, rows.shape[1]))
            labels = np.empty(capacity, dtype=np.int64)
            if start:
                features[:start] = self.X
                labels[:start] = self.y
            self._features, self._labels = features, labels
        self._features[start:end] = rows
        self._labels[start:end] = given_labels(instances)
        self.instances.extend(instances)


def _squared_distances(
    queries: np.ndarray, points: np.ndarray, points_sq: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise squared Euclidean distances, clamped at 0 against float error.

    Evaluated in place as ``(|q|^2 + |p|^2) - 2q.p``, so only the doubled
    queries, the product and the norm sum are allocated. ``points_sq`` passes
    precomputed ``|p|^2``.
    """
    qq = np.einsum("ij,ij->i", queries, queries)
    pp = np.einsum("ij,ij->i", points, points) if points_sq is None else points_sq
    # doubling is exact, so 2q.p equals 2(q.p) to the bit while no term under-
    # or overflows, and costs a pass over the queries instead of the product
    cross = (2.0 * queries) @ points.T
    d2 = np.add.outer(qq, pp)
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    return d2


# kNN distances are computed this many at a time, however large the training
# set grows. A fold keeps three block-sized float64 arrays alive at once (the
# new distances, the candidates `_merge` concatenates and `np.partition`'s
# copy of them) plus a bool mask: 3 x 512 KiB + 64 KiB fits in a 2 MiB L2.
KNN_BLOCK_DISTANCES = 1 << 16


class KnnModel:
    """Exact k-nearest-neighbour voting under Euclidean distance.

    Neighbours are the k smallest by (distance, training index); votes tie on
    the lowest class index. k collapses to the training-set size when the set
    is smaller than requested.
    """

    def __init__(self, spec: ClassifierSpec, pool: PoolBuffers):
        self.spec = spec
        self.pool = pool
        # views of the rows the pool held when trained; later rows are not seen
        self.X, self.y = pool.X, pool.y
        self.k = min(spec.knn_k, len(self.y))
        self.num_features = self.X.shape[1]
        self.trained_on_count = len(self.y)
        self._points_sq = np.einsum("ij,ij->i", self.X, self.X)

    def predict_many(self, queries: np.ndarray) -> np.ndarray:
        none = np.empty((len(queries), 0))
        _, index = _fold(self, queries, none, none.astype(np.int64), 0)
        return _vote(self.y[index], self.spec.num_classes)


def _fold(
    model: KnnModel, queries: np.ndarray, dist: np.ndarray, index: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Merge the model's rows from ``start`` on into each query's k nearest.

    ``dist`` and ``index`` hold each query's k nearest (distance, training
    index) pairs among the rows before ``start``, in index order, and have
    no columns for a fresh search. The new rows have larger indices, so the
    k smallest by (distance, index) of the kept pairs and the new rows are
    the k nearest of all the model's rows, returned the same way.
    """
    stop, k, kept = model.trained_on_count, model.k, dist.shape[1]
    out_dist = np.empty((len(queries), k))
    out_index = np.empty((len(queries), k), dtype=np.int64)
    points, points_sq = model.X[start:stop], model._points_sq[start:stop]
    rows = max(1, KNN_BLOCK_DISTANCES // (kept + stop - start))
    for lo in range(0, len(queries), rows):
        block = slice(lo, lo + rows)
        d2 = _squared_distances(queries[block], points, points_sq)
        if kept == k:
            # a new row loses every tie on index, so it enters a query's k
            # nearest only strictly inside its k-th kept distance: only such
            # queries are merged, and the others keep their pairs
            out_dist[block], out_index[block] = dist[block], index[block]
            gain = np.flatnonzero(d2.min(axis=1) < dist[block].max(axis=1))
            d2, block = d2[gain], lo + gain
        out_dist[block], out_index[block] = _merge(d2, dist[block], index[block], k, start)
    return out_dist, out_index


def _merge(
    d2: np.ndarray, dist: np.ndarray, index: np.ndarray, k: int, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k smallest by (distance, index) of its kept pairs and new rows.

    ``dist``/``index`` are the kept pairs in index order; column j of ``d2``
    is training row ``start + j``. The result is in index order.
    """
    kept = dist.shape[1]
    if kept:
        # kept pairs, then the new rows: both in index order, so column
        # order is index order
        d2 = np.concatenate((dist, d2), axis=1)
    width = d2.shape[1]  # candidates per query
    # copied, so that the partitioned block is freed before the next one
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1].copy()
    # every candidate at or inside the k-th distance: at least k per row
    within = d2 <= kth[:, None]
    flat = np.flatnonzero(within)
    if len(flat) > len(d2) * k:
        # a tie at the k-th distance let more in: the lowest indices win
        for r in np.flatnonzero(within.sum(axis=1) > k):
            cand = np.flatnonzero(within[r])
            order = np.argsort(d2[r, cand], kind="stable")
            within[r, cand[order[k:]]] = False
        flat = np.flatnonzero(within)
    cols = (flat % width).reshape(-1, k)
    out_index = cols + (start - kept)
    if kept:
        old = np.take_along_axis(index, np.minimum(cols, kept - 1), axis=1)
        np.copyto(out_index, old, where=cols < kept)
    return np.take_along_axis(d2, cols, axis=1), out_index


def _vote(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Each row's most frequent label; a tie goes to the lowest class."""
    offsets = num_classes * np.arange(len(labels))[:, None]
    votes = np.bincount((labels + offsets).ravel(), minlength=len(labels) * num_classes)
    return votes.reshape(len(labels), num_classes).argmax(axis=1)


class CentroidModel:
    """Nearest-centroid: exact per-class feature means, Euclidean assignment."""

    def __init__(self, spec: ClassifierSpec, X: np.ndarray, y: np.ndarray):
        self.spec = spec
        self.classes = np.unique(y)
        self.means = np.stack([X[y == c].mean(axis=0) for c in self.classes])
        self.num_features = X.shape[1]
        self.trained_on_count = len(y)

    def predict_many(self, queries: np.ndarray) -> np.ndarray:
        d2 = _squared_distances(queries, self.means)
        # argmin breaks distance ties toward the lower class index
        return self.classes[d2.argmin(axis=1)]


def _check_labels(y: np.ndarray, num_classes: int) -> None:
    """Raise ``ValueError`` unless every label is a class index in 0..num_classes-1."""
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(f"labels outside 0..{num_classes - 1}: range {y.min()}..{y.max()}")


# the ReLU's floor as a 0-d array, which a ufunc takes faster than a Python float
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class _Buffers(NamedTuple):
    """The arrays one pass over a batch of ``rows`` rows writes into.

    ``hidden`` pairs each hidden layer's weights and bias with the buffer its
    output goes to; ``probs`` takes the softmax, and ``column`` its row
    maxima and sums. ``rows`` is the row count as a 0-d float64 array.
    ``backward`` holds, from the last layer down to the second, the layer's
    input (a hidden output buffer) and its transpose, the layer's gradient
    views, the transpose of its weights, and the buffers of the delta and
    ReLU mask it passes down; ``first`` holds the first layer's gradient
    views. A forward-only set has neither.
    """

    rows: np.ndarray
    hidden: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    probs: np.ndarray
    column: np.ndarray
    backward: list[tuple[np.ndarray, ...]]
    first: tuple[np.ndarray, ...]


class MlpModel:
    """Fully connected net: ReLU hidden layers, softmax output, mean CE loss.

    Trained by minibatch SGD. ``fit`` continues from the current weights, so
    calling it again warm-starts rather than reinitialising, and
    ``trained_on_count`` adds up the rows of every fit. The output layer
    is always ``num_classes`` wide, even when the training data is missing
    some classes.

    Every weight and bias is a view of the one flat vector ``params``, and a
    step's gradients fill views of one vector laid out the same way, so the
    SGD update is two operations over the whole net. ``params`` is only ever
    updated in place, so these views, and the weights' transposes, are made
    once. Elementwise, each step does the same float64 operations in the
    same order as a loop of per-layer ``W -= lr * grad`` updates; only where
    results are written differs, so the weights are the same to the bit.
    """

    def __init__(self, spec: ClassifierSpec, num_features: int, rng):
        self.spec = spec
        self.num_features = num_features
        self.trained_on_count = 0
        dims = [num_features, *spec.mlp_hidden, spec.num_classes]
        self._shapes = list(zip(dims[:-1], dims[1:]))
        self.params = np.zeros(sum((fan_in + 1) * fan_out for fan_in, fan_out in self._shapes))
        self.weights, self.biases = self._views(self.params)
        for W, (fan_in, fan_out) in zip(self.weights, self._shapes):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            W[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        self._weights_T = [W.T for W in self.weights]

    def _views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like ``params``."""
        weights, biases, start = [], [], 0
        for fan_in, fan_out in self._shapes:
            stop = start + fan_in * fan_out
            weights.append(flat[start:stop].reshape(fan_in, fan_out))
            biases.append(flat[stop : stop + fan_out])
            start = stop + fan_out
        return weights, biases

    def _buffers(self, rows: int, grads: np.ndarray | None = None) -> _Buffers:
        """Buffers for a pass over ``rows`` rows; a backward pass too with ``grads``.

        The backward pass writes its gradients into views of ``grads``, a
        vector laid out like ``params``.
        """
        outputs = [np.empty((rows, fan_out)) for _, fan_out in self._shapes]
        hidden = list(zip(self.weights, self.biases, outputs[:-1]))
        backward, first = [], ()
        if grads is not None:
            grads_w, grads_b = self._views(grads)
            for layer in range(len(hidden), 0, -1):
                a = outputs[layer - 1]
                backward.append((
                    a, a.T, grads_w[layer], grads_b[layer], self._weights_T[layer],
                    np.empty_like(a), np.empty_like(a),
                ))
            first = (grads_w[0], grads_b[0])
        return _Buffers(
            np.array(float(rows)), hidden, outputs[-1], np.empty((rows, 1)), backward, first
        )

    def _forward(self, X: np.ndarray, buffers: _Buffers) -> np.ndarray:
        """The softmax probabilities of the rows of ``X``, in ``buffers.probs``."""
        a = X
        for W, b, h in buffers.hidden:
            a = a.dot(W, h)
            np.add(a, b, out=a)
            np.maximum(a, _ZERO, out=a)
        probs, column = a.dot(self.weights[-1], buffers.probs), buffers.column
        np.add(probs, self.biases[-1], out=probs)
        np.subtract(probs, np.maximum.reduce(probs, axis=1, out=column, keepdims=True), out=probs)
        np.exp(probs, out=probs)
        np.divide(probs, np.add.reduce(probs, axis=1, out=column, keepdims=True), out=probs)
        return probs

    def _gradients(
        self, X: np.ndarray, X_T: np.ndarray, targets: np.ndarray, buffers: _Buffers
    ) -> None:
        """Write the mean cross-entropy gradients for one batch into the views.

        ``X_T`` is ``X.T`` and ``targets`` the batch's one-hot labels.
        Subtracting its zeros leaves every probability unchanged, as indexing
        out the true class would. ``buffers`` come from :meth:`_buffers` for
        the batch's rows.
        """
        delta = self._forward(X, buffers)
        np.subtract(delta, targets, out=delta)
        np.divide(delta, buffers.rows, out=delta)
        for a, a_T, grad_w, grad_b, W_T, below, mask in buffers.backward:
            a_T.dot(delta, grad_w)
            np.add.reduce(delta, axis=0, out=grad_b)
            delta = delta.dot(W_T, below)
            # a ReLU output is +0.0 or positive (no weight or bias is ever
            # -0.0, so neither is XW + b), and its sign is the 0/1 mask of
            # the units that fired
            np.multiply(delta, np.sign(a, out=mask), out=delta)
        grad_w, grad_b = buffers.first
        X_T.dot(delta, grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)

    def predict_proba(self, queries: np.ndarray) -> np.ndarray:
        return self._forward(queries, self._buffers(len(queries)))

    def predict_many(self, queries: np.ndarray) -> np.ndarray:
        return self.predict_proba(queries).argmax(axis=1)

    def loss_and_grads(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Mean cross-entropy and its analytic gradients for one batch.

        The gradients are those a ``fit`` step takes, in arrays of their own
        that a later call leaves alone.
        """
        _check_labels(y, self.spec.num_classes)
        probs = self.predict_proba(X)
        loss = float(-np.log(probs[np.arange(len(X)), y] + 1e-300).mean())
        grads = np.empty_like(self.params)
        onehot = np.eye(self.spec.num_classes)[y]
        self._gradients(X, X.T, onehot, self._buffers(len(X), grads))
        return loss, *self._views(grads)

    def fit(self, X: np.ndarray, y: np.ndarray, rng) -> None:
        spec = self.spec
        _check_labels(y, spec.num_classes)
        size = spec.mlp_batch_size
        grads = np.empty_like(self.params)
        # the buffers of a full batch, and of the short last one
        full = self._buffers(min(size, len(X)), grads)
        last = self._buffers(len(X) % size or size, grads)
        onehot = np.eye(spec.num_classes)[y]
        X_epoch, targets = np.empty_like(X), np.empty_like(onehot)
        # each epoch is gathered into the same arrays, so every step's
        # slices, with their transposes and buffers, are made here once
        plan = []
        for start in range(0, len(X), size):
            stop = start + size
            rows = X_epoch[start:stop]
            plan.append((rows, rows.T, targets[start:stop], full if stop <= len(X) else last))
        lr = np.array(spec.mlp_learning_rate)
        for _ in range(spec.mlp_epochs):
            order = rng.permutation(len(X))
            # ``order`` is a permutation, so "clip" never clips, and with it
            # ``take`` writes straight into ``out``
            np.take(X, order, axis=0, out=X_epoch, mode="clip")
            np.take(onehot, order, axis=0, out=targets, mode="clip")
            for batch in plan:
                self._gradients(*batch)
                grads *= lr
                self.params -= grads
        self.trained_on_count += len(y)


ClassifierModel = KnnModel | CentroidModel | MlpModel


def train(
    spec: ClassifierSpec, instances: list[LabeledInstance] | PoolBuffers, rng
) -> ClassifierModel:
    """Train a fresh model of ``spec.kind`` on a pool, or a list stacked into one.

    A pool is read through views of its buffers, not restacked.
    """
    pool = instances if isinstance(instances, PoolBuffers) else PoolBuffers(instances)
    if not len(pool):
        raise ValueError("training set is empty")
    X, y = pool.X, pool.y
    _check_labels(y, spec.num_classes)
    if spec.kind == "knn":
        return KnnModel(spec, pool)
    if spec.kind == "centroid":
        return CentroidModel(spec, X, y)
    model = MlpModel(spec, X.shape[1], rng)
    model.fit(X, y, rng)
    return model


def predict_batch(model: ClassifierModel, instances: list[LabeledInstance]) -> list[int]:
    """Predict classes for many instances at once (order preserved)."""
    if not instances:
        return []
    X = features_matrix(instances)
    if X.shape[1] != model.num_features:
        raise ValueError(
            f"expected {model.num_features} features, got {X.shape[1]}"
        )
    return [int(p) for p in model.predict_many(X)]


class StackedTestSet:
    """A fixed test set, stacked once, that scores a growing pool's kNN models.

    For each test row it keeps the k nearest pool rows folded in so far, as
    (distance, training index) pairs in index order, where k is the model's.
    A :class:`KnnModel` trained on a longer prefix of the same pool continues
    the fold that ``predict_many`` starts from nothing, with only the rows
    appended since, so each distance is computed once. Every other model is
    scored by ``predict_many``.
    """

    def __init__(self, X: np.ndarray, truth: np.ndarray):
        self.X = X
        self.truth = truth
        self.pool: PoolBuffers | None = None
        self.folded = 0
        self._dist = np.empty((len(X), 0))
        self._index = np.empty((len(X), 0), dtype=np.int64)

    def predict(self, model: ClassifierModel) -> np.ndarray:
        if not (
            isinstance(model, KnnModel)
            and (self.pool is None or self.pool is model.pool)
            and model.trained_on_count >= self.folded
            and self._dist.shape[1] == min(model.spec.knn_k, self.folded)
        ):
            return model.predict_many(self.X)
        self.pool = model.pool
        if model.trained_on_count > self.folded:
            self._dist, self._index = _fold(model, self.X, self._dist, self._index, self.folded)
            self.folded = model.trained_on_count
        return _vote(model.y[self._index], model.spec.num_classes)


def stack_test_set(test: list[LabeledInstance]) -> StackedTestSet:
    """A test set's feature matrix and true labels, stacked once for rescoring."""
    if not test:
        raise ValueError("test set is empty")
    truth = np.array([inst.true_label for inst in test], dtype=np.int64)
    return StackedTestSet(features_matrix(test), truth)


def evaluate_accuracy(
    model: ClassifierModel, test: list[LabeledInstance] | StackedTestSet
) -> float:
    """Fraction of test instances whose prediction equals the *true* label.

    ``test`` is a list of instances, or the set ``stack_test_set`` made of one.
    """
    if isinstance(test, list):
        test = stack_test_set(test)
    if test.X.shape[1] != model.num_features:
        raise ValueError(
            f"expected {model.num_features} features, got {test.X.shape[1]}"
        )
    return int(np.count_nonzero(test.predict(model) == test.truth)) / len(test.truth)
