"""Model correctness against the plain models of ``tests/reference_run.py``."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from reference_run import Plain, PlainMlp

from cleanstream import models
from cleanstream.core import LabeledInstance
from cleanstream.models import (
    KNN_BLOCK_DISTANCES,
    ClassifierSpec,
    KnnModel,
    MlpModel,
    _squared_distances,
    evaluate_accuracy,
    predict_batch,
    stack_test_set,
    train,
)


def wrap(X: np.ndarray, y) -> list[LabeledInstance]:
    return [
        LabeledInstance(features=np.asarray(x, dtype=float), given_label=int(label),
                        true_label=int(label), uid=i)
        for i, (x, label) in enumerate(zip(X, y))
    ]


def knn_spec(k=5, num_classes=3, **kw) -> ClassifierSpec:
    return ClassifierSpec(kind="knn", num_classes=num_classes, knn_k=k, **kw)


# ---------------------------------------------------------------------------
# k-NN vs the reference's exhaustive kNN

@pytest.mark.parametrize(
    "grid, f, labels, num_classes, k",
    [
        (4, 3, (0, 1, 2), 3, 5),  # 64 cells for ~1,600 points: every row ties
        (16, 4, (0, 1, 2, 3), 4, 1),
        (16, 4, (1, 4), 6, 7),  # classes 0, 2, 3 and 5 never occur
        (8, 2, (0, 2), 3, None),  # k equal to the pool size
        (8, 2, (0, 1), 2, 10**6),  # k larger than the pool
    ],
)
def test_knn_batched_prediction_matches_oracle_across_blocks(grid, f, labels, num_classes, k):
    rng = np.random.default_rng(grid * 100 + f)
    n = KNN_BLOCK_DISTANCES // 40  # 40 queries fill one distance block
    X = rng.integers(0, grid, size=(n, f)).astype(float)
    y = rng.choice(labels, size=n)
    spec = knn_spec(k=n if k is None else k, num_classes=num_classes)
    model = train(spec, wrap(X, y), rng)
    queries = rng.integers(0, grid, size=(100, f)).astype(float)  # 3 blocks
    assert model.predict_many(queries).tolist() == Plain(spec, wrap(X, y)).predict_many(queries)


def test_knn_small_blocks_match_oracle(monkeypatch):
    # a tiny block budget puts block boundaries everywhere, down to one query
    # per block, on pools small enough for many random cases
    rng = np.random.default_rng(99)
    for case in range(100):
        monkeypatch.setattr(models, "KNN_BLOCK_DISTANCES", int(rng.integers(1, 120)))
        n = int(rng.integers(1, 40))
        f = int(rng.integers(1, 4))
        num_classes = int(rng.integers(2, 6))
        k = int(rng.integers(1, 45))
        X = rng.integers(0, 4, size=(n, f)).astype(float)
        y = rng.integers(0, num_classes, size=n)
        spec = knn_spec(k=k, num_classes=num_classes)
        model = train(spec, wrap(X, y), rng)
        queries = rng.integers(0, 4, size=(17, f)).astype(float)
        want = Plain(spec, wrap(X, y)).predict_many(queries)
        assert model.predict_many(queries).tolist() == want, f"case {case}: n={n} k={k}"


@pytest.mark.parametrize("integer", [False, True])
def test_squared_distances_are_bit_identical_to_the_plain_expression(integer):
    rng = np.random.default_rng(13)
    if integer:
        q = rng.integers(-50, 50, size=(70, 9)).astype(float)
        p = rng.integers(-50, 50, size=(300, 9)).astype(float)
    else:
        q = rng.normal(size=(70, 9)) * 3.0
        p = np.vstack([rng.normal(size=(299, 9)) * 3.0, q[:1]])  # one exact match
    qq = np.einsum("ij,ij->i", q, q)
    pp = np.einsum("ij,ij->i", p, p)
    want = np.maximum(qq[:, None] + pp[None, :] - 2.0 * (q @ p.T), 0.0)
    assert _squared_distances(q, p).tobytes() == want.tobytes()
    assert _squared_distances(q, p, pp).tobytes() == want.tobytes()


@pytest.mark.parametrize("integer", [False, True])
def test_squared_distances_keep_the_doubled_product_at_block_shapes(integer):
    # the plain-expression test above pins one small shape; the product's
    # kernel, and so its rounding, changes with the block's height and width
    rng = np.random.default_rng(29)
    for rows, cols, width in [(1, 1, 1), (3, 5000, 20), (37, 7000, 20), (142, 1000, 20),
                              (200, 300, 3), (64, 2048, 64)]:
        if integer:
            q = rng.integers(-30, 31, size=(rows, width)).astype(float)
            p = rng.integers(-30, 31, size=(cols, width)).astype(float)
        else:
            q = rng.normal(size=(rows, width)) * 3.0
            p = rng.normal(size=(cols, width)) * 3.0 + 1.0
        qq, pp = np.einsum("ij,ij->i", q, q), np.einsum("ij,ij->i", p, p)
        want = np.maximum(qq[:, None] + pp[None, :] - 2.0 * (q @ p.T), 0.0)
        assert _squared_distances(q, p, pp).tobytes() == want.tobytes(), (rows, cols, width)


def test_knn_tie_breaks_on_training_index_then_class():
    # two training points at identical distance from the query; with k=1 the
    # earlier index must win
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    model = train(knn_spec(k=1, num_classes=2), wrap(X, [1, 0]), np.random.default_rng(0))
    assert model.predict_many(np.zeros((1, 2)))[0] == 1

    # a 2-2 vote tie resolves to the lower class index
    X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    model = train(knn_spec(k=4, num_classes=3), wrap(X, [2, 2, 1, 1]), np.random.default_rng(0))
    assert model.predict_many(np.array([[0.0]]))[0] == 1


# ---------------------------------------------------------------------------
# nearest centroid

def test_centroid_assigns_to_nearest_mean():
    X = np.array([[0.0, 0.0], [0.0, 2.0], [10.0, 0.0], [10.0, 2.0]])
    y = [0, 0, 1, 1]
    model = train(ClassifierSpec(kind="centroid", num_classes=2), wrap(X, y),
                  np.random.default_rng(0))
    assert model.predict_many(np.array([[1.0, 1.0]]))[0] == 0
    assert model.predict_many(np.array([[9.0, 1.0]]))[0] == 1


def test_centroid_handles_missing_classes():
    X = np.array([[0.0], [10.0]])
    model = train(ClassifierSpec(kind="centroid", num_classes=5), wrap(X, [1, 3]),
                  np.random.default_rng(0))
    assert model.predict_many(np.array([[-1.0]]))[0] == 1
    assert model.predict_many(np.array([[11.0]]))[0] == 3


# ---------------------------------------------------------------------------
# MLP (c6 checks its gradients against central finite differences)

def mlp_spec(**kw) -> ClassifierSpec:
    base = dict(kind="mlp", num_classes=3, mlp_hidden=(5, 4), mlp_epochs=1, seed=0)
    base.update(kw)
    return ClassifierSpec(**base)


def test_mlp_loss_and_grads_returns_arrays_a_later_call_leaves_alone():
    rng = np.random.default_rng(78)
    model = MlpModel(mlp_spec(num_classes=3, mlp_hidden=(5,)), num_features=4, rng=rng)
    X = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    _, grads_w, grads_b = model.loss_and_grads(X, y)
    kept = [g.copy() for g in grads_w + grads_b]
    model.weights[0][0, 0] += 0.5
    _, again_w, again_b = model.loss_and_grads(X[::-1], y[::-1])
    assert all(g.tobytes() == k.tobytes() for g, k in zip(grads_w + grads_b, kept))
    assert any(a.tobytes() != k.tobytes() for a, k in zip(again_w + again_b, kept))


def test_mlp_fit_step_is_loss_and_grads():
    # one epoch of one batch holding every row is one step, taken on the
    # rows in the order of the fit's permutation
    n = 9
    rng = np.random.default_rng(79)
    X = rng.normal(size=(n, 5))
    y = rng.integers(0, 3, size=n)
    spec = mlp_spec(num_classes=3, mlp_hidden=(6, 4), mlp_learning_rate=0.1, mlp_batch_size=16)
    model = MlpModel(spec, num_features=5, rng=np.random.default_rng(2))
    order = np.random.default_rng(3).permutation(n)
    _, grads_w, grads_b = model.loss_and_grads(X[order], y[order])
    before = [p.copy() for p in model.weights + model.biases]
    model.fit(X, y, np.random.default_rng(3))
    for param, old, grad in zip(model.weights + model.biases, before, grads_w + grads_b):
        assert param.tobytes() == (old - spec.mlp_learning_rate * grad).tobytes()


@pytest.mark.parametrize("hidden", [(1,), (28, 28), (4, 3, 5)])
def test_mlp_predict_proba_is_bit_identical_to_the_reference_forward(hidden):
    # both draw their weights from the same seed; the biases are set to the
    # same nonzero values by hand
    spec = mlp_spec(num_classes=4, mlp_hidden=hidden)
    model = MlpModel(spec, 7, np.random.default_rng(80))
    plain = PlainMlp(spec, 7, np.random.default_rng(80))
    rng = np.random.default_rng(81)
    for b, plain_b in zip(model.biases, plain.biases):
        b[...] = plain_b[...] = rng.normal(size=b.shape)
    queries = rng.normal(size=(37, 7)) * 3
    assert model.predict_proba(queries).tobytes() == plain.forward(queries)[1].tobytes()


@pytest.mark.parametrize("hidden", [(1,), (8,), (28, 28), (4, 3, 5)])
@pytest.mark.parametrize("num_classes", [2, 4, 5])
@pytest.mark.parametrize("n, batch_size", [(1, 32), (23, 5), (10, 32), (33, 8), (5, 1)])
def test_mlp_fit_is_bit_identical_to_the_per_layer_loop(hidden, num_classes, n, batch_size):
    # the cases pin the per-fit scratch buffers: a 1-row fit, a ragged last
    # batch (of one row at n=33), a batch larger than the fit, three hidden
    # layers, and warm-start fits on the same model, as slimmed makes them
    rng = np.random.default_rng(1000 * n + 10 * num_classes + len(hidden))
    X = rng.normal(size=(n, 7)) * 3
    # the top class never occurs, so its output column is trained on absence only
    y = rng.integers(0, num_classes - 1, size=n)
    spec = mlp_spec(
        num_classes=num_classes, mlp_hidden=hidden, mlp_epochs=3,
        mlp_learning_rate=0.05, mlp_batch_size=batch_size,
    )
    fused = MlpModel(spec, num_features=7, rng=np.random.default_rng(1))
    looped = PlainMlp(spec, num_features=7, rng=np.random.default_rng(1))
    # later fits with a new rng warm-start from the weights before them; the
    # last one sees fewer rows, so its buffers are sized anew
    fits = [(X, y, 2), (X, y, 3), (X[: n // 2 + 1], y[: n // 2 + 1], 4)]
    for rows, labels, seed in fits:
        fused.fit(rows, labels, np.random.default_rng(seed))
        looped.fit(rows, labels, np.random.default_rng(seed))
        for a, b in zip(fused.weights + fused.biases, looped.weights + looped.biases):
            assert a.tobytes() == b.tobytes()
    assert fused.trained_on_count == 2 * n + n // 2 + 1


def test_mlp_learns_separated_blobs():
    rng = np.random.default_rng(0)
    n = 120
    X = np.vstack([rng.normal(-4, 1, size=(n, 2)), rng.normal(4, 1, size=(n, 2))])
    y = np.array([0] * n + [1] * n)
    spec = mlp_spec(num_classes=2, mlp_hidden=(8,), mlp_epochs=50)
    model = train(spec, wrap(X, y), np.random.default_rng(1))
    preds = model.predict_many(X)
    assert (preds == y).mean() >= 0.95


def test_mlp_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    model = MlpModel(mlp_spec(), num_features=4, rng=rng)
    probs = model.predict_proba(rng.normal(size=(20, 4)) * 50)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert probs.min() >= 0.0


def test_mlp_output_width_covers_absent_classes():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)  # classes 2..4 unseen
    spec = mlp_spec(num_classes=5, mlp_hidden=(6,), mlp_epochs=2)
    model = train(spec, wrap(X, y), np.random.default_rng(0))
    probs = model.predict_proba(X)
    assert probs.shape == (30, 5)
    assert all(0 <= p < 5 for p in model.predict_many(X))


def test_mlp_training_is_deterministic():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    spec = mlp_spec(mlp_epochs=3)
    a = train(spec, wrap(X, y), np.random.default_rng(5))
    b = train(spec, wrap(X, y), np.random.default_rng(5))
    assert all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))
    assert all(np.array_equal(ba, bb) for ba, bb in zip(a.biases, b.biases))


def test_mlp_fit_warm_starts_from_current_weights():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, size=30)
    spec = mlp_spec(num_classes=2, mlp_hidden=(4,), mlp_epochs=1)
    model = train(spec, wrap(X, y), np.random.default_rng(0))
    before = [w.copy() for w in model.weights]
    count_before = model.trained_on_count
    model.fit(X, y, np.random.default_rng(1))
    assert model.trained_on_count == count_before + len(y)
    assert any(not np.array_equal(w0, w1) for w0, w1 in zip(before, model.weights))


@pytest.mark.parametrize("bad", [-1, 3])
def test_mlp_fit_rejects_labels_outside_the_classes(bad):
    # a one-hot by indexing would train class 2 on a label of -1
    model = MlpModel(mlp_spec(num_classes=3), num_features=2, rng=np.random.default_rng(0))
    before = model.params.copy()
    X, y = np.zeros((2, 2)), np.array([0, bad])
    with pytest.raises(ValueError, match="outside 0..2"):
        model.fit(X, y, np.random.default_rng(1))
    with pytest.raises(ValueError, match="outside 0..2"):
        model.loss_and_grads(X, y)
    assert model.params.tobytes() == before.tobytes()
    assert model.trained_on_count == 0


# ---------------------------------------------------------------------------
# shared wrappers

def test_train_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError, match="empty"):
        train(knn_spec(), [], np.random.default_rng(0))
    bad = wrap(np.zeros((2, 2)), [0, 7])
    with pytest.raises(ValueError, match="outside"):
        train(knn_spec(num_classes=3), bad, np.random.default_rng(0))


def test_predict_rejects_wrong_feature_length():
    model = train(knn_spec(num_classes=2), wrap(np.zeros((3, 4)), [0, 1, 0]),
                  np.random.default_rng(0))
    with pytest.raises(ValueError, match="features"):
        predict_batch(model, wrap(np.zeros((1, 3)), [0]))


def test_predict_batch_empty_and_order():
    X = np.array([[0.0], [10.0]])
    model = train(knn_spec(k=1, num_classes=2), wrap(X, [0, 1]), np.random.default_rng(0))
    assert predict_batch(model, []) == []
    instances = wrap(np.array([[9.0], [1.0]]), [0, 0])
    assert predict_batch(model, instances) == [1, 0]


def test_evaluate_accuracy_scores_against_true_labels():
    X = np.array([[0.0], [10.0]])
    model = train(knn_spec(k=1, num_classes=2), wrap(X, [0, 1]), np.random.default_rng(0))
    test = wrap(np.array([[1.0], [9.0]]), [0, 0])  # second one truly 0, predicted 1
    assert evaluate_accuracy(model, test) == 0.5
    test[1] = test[1].relabeled(1)  # given labels must not affect scoring
    assert evaluate_accuracy(model, test) == 0.5
    with pytest.raises(ValueError):
        evaluate_accuracy(model, [])


def test_evaluate_accuracy_reuses_a_stacked_test_set():
    X = np.array([[0.0], [10.0]])
    model = train(knn_spec(k=1, num_classes=2), wrap(X, [0, 1]), np.random.default_rng(0))
    test = wrap(np.array([[1.0], [9.0], [8.0]]), [0, 0, 1])
    stacked = stack_test_set(test)
    assert evaluate_accuracy(model, stacked) == evaluate_accuracy(model, test) == 2 / 3
    with pytest.raises(ValueError, match="empty"):
        stack_test_set([])
    wide = stack_test_set(wrap(np.zeros((2, 3)), [0, 1]))
    with pytest.raises(ValueError, match="features"):
        evaluate_accuracy(model, wide)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int32])
def test_features_matrix_equals_stacking_the_rows(dtype):
    rng = np.random.default_rng(8)
    for n, f in ((1, 1), (3, 5), (257, 20)):
        rows = (rng.normal(size=(n, f)) * 100).astype(dtype)
        instances = [LabeledInstance(features=row, given_label=0, true_label=0) for row in rows]
        got = models.features_matrix(instances)
        expected = np.stack([inst.features for inst in instances]).astype(np.float64)
        assert got.dtype == np.float64 and got.shape == (n, f)
        np.testing.assert_array_equal(got, expected)
        assert not np.shares_memory(got, rows)


def test_features_matrix_rejects_ragged_and_empty_rows():
    for widths in ((2, 3), (2, 3, 1), (3, 3, 2)):  # (2, 3, 1) fills a 3 x 2 matrix
        instances = [LabeledInstance(np.ones(w), 0, 0) for w in widths]
        with pytest.raises(ValueError):
            models.features_matrix(instances)
    with pytest.raises(ValueError):
        models.features_matrix([])


def test_pool_buffers_append_in_place_and_keep_old_views():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, 40)
    instances = wrap(X, y)
    pool = models.PoolBuffers()
    pool.append([])
    assert len(pool) == 0
    views = []
    for start, stop in ((0, 5), (5, 6), (6, 13), (13, 40)):
        pool.append(instances[start:stop])
        views.append((stop, pool.X, pool.y))
        assert len(pool) == stop
    for stop, view_X, view_y in views:  # a view taken before a doubling still holds its rows
        np.testing.assert_array_equal(view_X, X[:stop])
        np.testing.assert_array_equal(view_y, y[:stop])
    model = train(knn_spec(k=3), pool, np.random.default_rng(0))
    assert model.pool is pool and model.trained_on_count == 40
    with pytest.raises(ValueError, match="empty"):
        train(knn_spec(), models.PoolBuffers(), np.random.default_rng(0))


def test_stacked_test_set_folds_match_oracle_over_random_appends(monkeypatch):
    rng = np.random.default_rng(11)
    for case in range(60):
        monkeypatch.setattr(models, "KNN_BLOCK_DISTANCES", int(rng.integers(1, 60)))
        num_classes = int(rng.integers(2, 5))
        k = int(rng.integers(1, 9))
        f = int(rng.integers(1, 4))
        X = rng.integers(0, 3, size=(int(rng.integers(2, 50)), f)).astype(float)
        y = rng.integers(0, num_classes, len(X))
        queries = rng.integers(0, 3, size=(int(rng.integers(1, 12)), f)).astype(float)
        test = stack_test_set(wrap(queries, np.zeros(len(queries), dtype=int)))
        pool = models.PoolBuffers()
        instances = wrap(X, y)
        spec = knn_spec(k=k, num_classes=num_classes)
        stop = 0
        while stop < len(X):
            stop = min(len(X), stop + int(rng.integers(1, 9)))
            pool.append(instances[len(pool) : stop])
            model = train(spec, pool, np.random.default_rng(0))
            plain = Plain(spec, instances[:stop])
            expected = plain.predict_many(queries)
            assert test.predict(model).tolist() == expected, f"case {case}, {stop} rows"
            assert test.folded == stop
            # the neighbours themselves, so a wrong one with the right label shows
            for row, q in enumerate(queries):
                neighbours = sorted(plain.neighbours(q).tolist())
                assert test._index[row].tolist() == neighbours, f"case {case}, {stop} rows"
                np.testing.assert_array_equal(
                    test._dist[row], ((X[neighbours] - q) ** 2).sum(axis=1)
                )


def spy_merged_rows(monkeypatch) -> list[int]:
    """Record how many query rows each call of the fold's merge receives."""
    merged, original = [], models._merge

    def counting(d2, *args):
        merged.append(len(d2))
        return original(d2, *args)

    monkeypatch.setattr(models, "_merge", counting)
    return merged


def test_fold_leaves_out_a_row_at_exactly_the_kth_distance(monkeypatch):
    merged = spy_merged_rows(monkeypatch)
    # 1-D: test rows at 0 and 10; k = 2
    test = stack_test_set(wrap(np.array([[0.0], [10.0]]), [0, 0]))
    pool = models.PoolBuffers(wrap(np.array([[1.0], [-2.0], [12.0], [9.0]]), [0, 0, 1, 1]))
    spec = knn_spec(k=2, num_classes=2)
    assert test.predict(train(spec, pool, None)).tolist() == [0, 1]
    assert test._index.tolist() == [[0, 1], [2, 3]] and merged == [2]
    # at exactly row 0's k-th distance (2) and outside row 1's: neither gains it
    pool.append(wrap(np.array([[2.0]]), [1]))
    assert test.predict(train(spec, pool, None)).tolist() == [0, 1]
    assert test._index.tolist() == [[0, 1], [2, 3]] and test._dist.tolist() == [[1, 4], [4, 1]]
    assert merged == [2, 0]
    # at row 1's k-th distance again, and strictly inside row 0's: only row 0
    # merges (its vote then ties, which goes to class 0)
    pool.append(wrap(np.array([[0.5], [8.0]]), [1, 0]))
    assert test.predict(train(spec, pool, None)).tolist() == [0, 1]
    assert test._index.tolist() == [[0, 5], [2, 3]] and merged == [2, 0, 1]


def test_fold_merges_every_row_until_k_are_kept(monkeypatch):
    merged = spy_merged_rows(monkeypatch)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    X[7:10] += 100.0  # far from every test row
    X[10:] = rng.normal(size=(2, 2)) * 0.1  # near the middle of the test rows
    y = rng.integers(0, 3, 12)
    queries = rng.normal(size=(6, 2))
    test = stack_test_set(wrap(queries, np.zeros(6, dtype=int)))
    pool, spec = models.PoolBuffers(), knn_spec(k=4)
    before = None
    for stop, kept in ((2, 2), (3, 3), (7, 4), (10, 4), (12, 4)):
        pool.append(wrap(X[len(pool) : stop], y[len(pool) : stop]))
        got = test.predict(train(spec, pool, None))
        plain = Plain(spec, wrap(X[:stop], y[:stop]))
        assert got.tolist() == plain.predict_many(queries)
        assert test._index.shape == (6, kept)
        after = [sorted(plain.neighbours(q).tolist()) for q in queries]
        assert test._index.tolist() == after
        changed = None if before is None else sum(a != b for a, b in zip(after, before))
        before = after
    # with fewer than k kept (pools of 2 and 3, and the fold to 7), every row
    # merges; with k kept, only the rows whose neighbours change
    assert merged[:3] == [6, 6, 6]
    assert merged[3] == 0  # the far rows
    assert merged[4] == changed and 0 < changed < 6


def test_stacked_test_set_scores_other_models_in_full(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 2))
    y = rng.integers(0, 3, 30)
    queries = rng.normal(size=(8, 2))
    test = stack_test_set(wrap(queries, np.zeros(8, dtype=int)))
    pool, other = models.PoolBuffers(), models.PoolBuffers()
    pool.append(wrap(X[:10], y[:10]))
    shorter = KnnModel(knn_spec(k=3), pool)  # keeps seeing only the first 10 rows
    pool.append(wrap(X[10:20], y[10:20]))
    other.append(wrap(X, y))
    test.predict(train(knn_spec(k=3), pool, None))
    assert test.pool is pool and test.folded == 20

    full_calls = []
    original = KnnModel.predict_many

    def counting(model, q):
        full_calls.append(model.trained_on_count)
        return original(model, q)

    monkeypatch.setattr(KnnModel, "predict_many", counting)
    for model in (
        train(knn_spec(k=3), other, None),  # another pool
        train(knn_spec(k=3), wrap(X, y), None),  # a pool of its own
        train(knn_spec(k=4), pool, None),  # another k
        train(ClassifierSpec(kind="centroid", num_classes=3), pool, None),
    ):
        expected = original(model, queries) if isinstance(model, KnnModel) else None
        got = test.predict(model)
        if expected is not None:
            np.testing.assert_array_equal(got, expected)
    assert full_calls == [30, 30, 20]
    assert test.pool is pool and test.folded == 20
    pool.append(wrap(X[20:], y[20:]))
    test.predict(train(knn_spec(k=3), pool, None))
    assert full_calls == [30, 30, 20] and test.folded == 30
    # a shorter prefix of the same pool than the one folded in
    np.testing.assert_array_equal(test.predict(shorter), original(shorter, queries))
    assert full_calls[-1] == 10 and test.folded == 30


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_knn_working_set_fits_in_a_2_mib_cache():
    # a fold keeps about three distance blocks alive at once: with the
    # module's block size they fit in 2 MiB, and one more block would not
    rng = np.random.default_rng(17)
    spec = knn_spec(k=5, num_classes=4)
    X = rng.normal(size=(1300, 20))
    instances = wrap(X, rng.integers(0, 4, 1300))
    queries = rng.normal(size=(2000, 20))
    test = stack_test_set(wrap(queries, np.zeros(2000, dtype=int)))
    pool = models.PoolBuffers(instances[:1000])
    test.predict(train(spec, pool, None))
    pool.append(instances[1000:])  # 300 new rows to fold into 2,000 test rows
    appended = train(spec, pool, None)
    assert traced_peak(lambda: test.predict(appended)) <= 2 * 2**20
    assert test.folded == 1300
    window = train(spec, instances[:400], None)
    assert traced_peak(lambda: window.predict_many(queries)) <= 2 * 2**20


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassifierSpec(kind="tree", num_classes=3)
    with pytest.raises(ValueError):
        ClassifierSpec(kind="knn", num_classes=1)
    with pytest.raises(ValueError):
        ClassifierSpec(kind="knn", num_classes=3, knn_k=0)
    with pytest.raises(ValueError):
        ClassifierSpec(kind="mlp", num_classes=3, mlp_hidden=())
    with pytest.raises(ValueError):
        ClassifierSpec(kind="mlp", num_classes=3, mlp_learning_rate=0.0)
    with pytest.raises(ValueError, match="mlp_epochs must be >= 1, got 0"):
        ClassifierSpec(kind="mlp", num_classes=3, mlp_epochs=0)
    with pytest.raises(ValueError, match="mlp_batch_size must be >= 1, got 0"):
        ClassifierSpec(kind="mlp", num_classes=3, mlp_batch_size=0)

