"""Dataset types, CSV round-trips, synthetic generation, and stream splitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cleanstream.core import (
    Batch,
    CsvFormatError,
    LabeledInstance,
    StreamConfig,
    StreamSizeError,
    fit_feature_ranges,
    generate_synthetic,
    load_csv,
    save_csv,
    scale_features,
    split_stream,
)


def make_config(**overrides) -> StreamConfig:
    base = dict(
        num_classes=3,
        num_features=4,
        initial_batch_size=30,
        batch_size=10,
        num_batches=5,
        test_size=20,
        seed=42,
    )
    base.update(overrides)
    return StreamConfig(**base)


# ---------------------------------------------------------------------------
# domain types

def test_instance_clean_flag_tracks_label_mutation():
    inst = LabeledInstance(features=np.zeros(2), given_label=1, true_label=1)
    assert inst.is_clean
    inst.given_label = 0
    assert not inst.is_clean
    inst.given_label = 1
    assert inst.is_clean


def test_instances_compare_by_identity():
    a = LabeledInstance(features=np.zeros(2), given_label=0, true_label=0)
    b = LabeledInstance(features=np.zeros(2), given_label=0, true_label=0)
    assert a != b
    assert len({a, b}) == 2


def test_stream_config_rejects_bad_sizes():
    with pytest.raises(ValueError):
        make_config(num_classes=1)
    with pytest.raises(ValueError):
        make_config(batch_size=0)
    with pytest.raises(ValueError):
        make_config(test_size=0)
    with pytest.raises(ValueError):
        make_config(num_batches=-1)


def test_total_instances_arithmetic():
    config = make_config()
    assert config.total_instances == 30 + 5 * 10 + 20


# ---------------------------------------------------------------------------
# csv load/save

def test_csv_round_trip(tmp_path):
    config = make_config()
    dataset = generate_synthetic(config)
    path = tmp_path / "data.csv"
    save_csv(dataset, path)
    loaded = load_csv(path, config.num_classes)
    assert len(loaded) == len(dataset)
    for orig, back in zip(dataset, loaded):
        assert back.given_label == orig.given_label
        assert back.true_label == orig.given_label
        assert back.is_clean
        # repr round-trips float64 exactly
        assert np.array_equal(back.features, orig.features)
    assert [inst.uid for inst in loaded] == list(range(len(loaded)))


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,2,0\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 1"):
        load_csv(path, 2)
    path.write_text("f0,f1\n1,2\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 1"):
        load_csv(path, 2)


def test_load_names_line_of_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 3"):
        load_csv(path, 2)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_load_rejects_non_finite_feature_cells(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{cell},1\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 3: non-finite"):
        load_csv(path, 2)


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path, 2)


def test_load_rejects_out_of_range_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="label 5"):
        load_csv(path, 2)


def test_load_rejects_non_integer_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,1.5\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 2"):
        load_csv(path, 2)


# ---------------------------------------------------------------------------
# synthetic generation

def test_generation_counts_and_proportions():
    config = make_config(num_classes=3)  # total = 100, not divisible by 3
    dataset = generate_synthetic(config)
    assert len(dataset) == config.total_instances
    counts = np.bincount([inst.true_label for inst in dataset], minlength=3)
    assert counts.max() - counts.min() <= 1
    assert all(inst.is_clean for inst in dataset)
    assert sorted(inst.uid for inst in dataset) == list(range(len(dataset)))


def test_generation_is_deterministic_in_seed():
    a = generate_synthetic(make_config(seed=5))
    b = generate_synthetic(make_config(seed=5))
    c = generate_synthetic(make_config(seed=6))
    assert all(np.array_equal(x.features, y.features) for x, y in zip(a, b))
    assert [x.given_label for x in a] == [y.given_label for y in b]
    assert any(not np.array_equal(x.features, y.features) for x, y in zip(a, c))


def _loo_nearest_neighbour_accuracy(dataset) -> float:
    # independent brute-force 1-NN leave-one-out check
    X = np.stack([inst.features for inst in dataset])
    y = np.array([inst.true_label for inst in dataset])
    hits = 0
    for i in range(len(dataset)):
        d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        hits += int(y[d.argmin()] == y[i])
    return hits / len(dataset)


def test_wide_separation_makes_classes_trivially_separable():
    config = make_config(num_classes=2, num_features=3, seed=9)
    dataset = generate_synthetic(config, separation=100.0)
    assert _loo_nearest_neighbour_accuracy(dataset) == 1.0


def test_separation_holds_when_features_fewer_than_classes():
    config = make_config(num_classes=4, num_features=2, seed=9)
    dataset = generate_synthetic(config, separation=60.0)
    assert _loo_nearest_neighbour_accuracy(dataset) == 1.0


def test_generation_rejects_non_positive_separation():
    with pytest.raises(ValueError):
        generate_synthetic(make_config(), separation=0.0)


# ---------------------------------------------------------------------------
# stream splitting

def test_split_is_an_exact_disjoint_partition():
    config = make_config()
    dataset = generate_synthetic(config)
    initial, arrivals, test = split_stream(dataset, config, np.random.default_rng(0))
    assert initial.index == 0
    assert len(initial.instances) == config.initial_batch_size
    assert [b.index for b in arrivals] == list(range(1, config.num_batches + 1))
    assert all(len(b.instances) == config.batch_size for b in arrivals)
    assert len(test) == config.test_size

    seen = [inst.uid for inst in initial.instances]
    for batch in arrivals:
        seen += [inst.uid for inst in batch.instances]
    seen += [inst.uid for inst in test]
    assert len(seen) == len(set(seen)) == config.total_instances


def test_split_leaves_surplus_instances_unused():
    config = make_config()
    dataset = generate_synthetic(config) + generate_synthetic(make_config(seed=1))
    initial, arrivals, test = split_stream(dataset, config, np.random.default_rng(0))
    used = len(initial.instances) + sum(len(b.instances) for b in arrivals) + len(test)
    assert used == config.total_instances


def test_split_reports_required_and_available():
    config = make_config()
    dataset = generate_synthetic(config)[:50]
    with pytest.raises(StreamSizeError, match="needs 100") as err:
        split_stream(dataset, config, np.random.default_rng(0))
    assert "50" in str(err.value)


def test_split_determinism_and_seed_sensitivity():
    config = make_config()
    dataset = generate_synthetic(config)
    a = split_stream(dataset, config, np.random.default_rng(3))
    b = split_stream(dataset, config, np.random.default_rng(3))
    c = split_stream(dataset, config, np.random.default_rng(4))
    uids = lambda batch: [inst.uid for inst in batch.instances]
    assert uids(a[0]) == uids(b[0])
    assert all(uids(x) == uids(y) for x, y in zip(a[1], b[1]))
    assert [i.uid for i in a[2]] == [i.uid for i in b[2]]
    assert uids(a[0]) != uids(c[0])


def test_split_allows_zero_arrivals():
    config = make_config(num_batches=0)
    dataset = generate_synthetic(config)
    initial, arrivals, test = split_stream(dataset, config, np.random.default_rng(0))
    assert arrivals == []
    assert len(initial.instances) == config.initial_batch_size
    assert len(test) == config.test_size


def test_stratified_split_keeps_class_shares():
    config = make_config(
        num_classes=4,
        initial_batch_size=40,
        batch_size=20,
        num_batches=3,
        test_size=40,
        stratify=True,
    )
    dataset = generate_synthetic(config)
    overall = np.bincount([inst.given_label for inst in dataset], minlength=4)
    share = overall / overall.sum()
    initial, arrivals, test = split_stream(dataset, config, np.random.default_rng(1))
    for group in [initial.instances] + [b.instances for b in arrivals] + [test]:
        counts = np.bincount([inst.given_label for inst in group], minlength=4)
        expected = share * len(group)
        assert np.abs(counts - expected).max() <= 2


@settings(max_examples=30, deadline=None)
@given(
    initial=st.integers(1, 20),
    batch=st.integers(1, 10),
    batches=st.integers(0, 6),
    test=st.integers(1, 15),
    seed=st.integers(0, 1000),
    stratify=st.booleans(),
)
def test_split_partition_property(initial, batch, batches, test, seed, stratify):
    config = StreamConfig(
        num_classes=3,
        num_features=2,
        initial_batch_size=initial,
        batch_size=batch,
        num_batches=batches,
        test_size=test,
        seed=0,
        stratify=stratify,
    )
    dataset = generate_synthetic(config)
    init, arrivals, heldout = split_stream(dataset, config, np.random.default_rng(seed))
    uids = [i.uid for i in init.instances]
    for b in arrivals:
        uids += [i.uid for i in b.instances]
    uids += [i.uid for i in heldout]
    assert len(uids) == len(set(uids)) == config.total_instances
    assert len(heldout) == test


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stratified_split_balance_bound(data):
    # uneven class sizes, a dataset that may hold more than the stream takes,
    # and random split sizes
    class_sizes = data.draw(st.lists(st.integers(1, 120), min_size=2, max_size=20))
    k, total = len(class_sizes), sum(class_sizes)
    batch = data.draw(st.integers(1, max(1, total // 5)))
    batches = data.draw(st.integers(0, (total - 2) // batch))
    room = total - batch * batches
    initial = data.draw(st.integers(1, room - 1))
    test = data.draw(st.integers(1, room - initial))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = np.repeat(np.arange(k), class_sizes)[rng.permutation(total)]
    dataset = [
        LabeledInstance(features=np.zeros(1), given_label=int(c), true_label=int(c), uid=i)
        for i, c in enumerate(labels)
    ]
    config = StreamConfig(
        num_classes=k,
        num_features=1,
        initial_batch_size=initial,
        batch_size=batch,
        num_batches=batches,
        test_size=test,
        stratify=True,
    )
    share = np.array(class_sizes) / total
    init, arrivals, heldout = split_stream(dataset, config, rng)
    for group in [init.instances] + [b.instances for b in arrivals] + [heldout]:
        counts = np.bincount([inst.given_label for inst in group], minlength=k)
        assert (np.abs(counts - share * len(group)) <= 1 + k * share + 1e-9).all()


# ---------------------------------------------------------------------------
# feature scaling

def test_minmax_scaling_maps_fit_instances_into_unit_box():
    rng = np.random.default_rng(0)
    fit = [
        LabeledInstance(features=rng.normal(5, 3, size=4), given_label=0, true_label=0)
        for _ in range(50)
    ]
    lo, hi = fit_feature_ranges(fit)
    scale_features(fit, lo, hi)
    stacked = np.stack([inst.features for inst in fit])
    assert stacked.min() >= 0.0 and stacked.max() <= 1.0
    assert np.isclose(stacked.min(axis=0), 0.0).all()
    assert np.isclose(stacked.max(axis=0), 1.0).all()


def test_scaling_handles_constant_features_and_keeps_sources():
    original = np.array([2.0, 7.0])
    inst = LabeledInstance(features=original, given_label=0, true_label=0)
    lo, hi = np.array([2.0, 5.0]), np.array([2.0, 9.0])
    scale_features([inst], lo, hi)
    assert inst.features[0] == 0.0  # constant feature pinned to 0
    assert inst.features[1] == 0.5
    assert np.array_equal(original, [2.0, 7.0])


def test_batch_len():
    batch = Batch(index=1, instances=[LabeledInstance(np.zeros(1), 0, 0)])
    assert len(batch) == 1
