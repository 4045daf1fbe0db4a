"""Acceptance checks for the whole package, one test per criterion.

Every test prints a single ``ACCEPTANCE <id> <label>: PASS/FAIL`` line
(also echoed in the terminal summary section) and pins its tolerances
inline. Stream runs are expensive, so they are shared across criteria
through a session-scoped cache keyed by the full configuration mapping.

The synthetic reference workload used by the ordering criteria: 4 classes,
20 features, unit-variance Gaussian clusters with means separation 3.0
apart at least, 1,000-instance initial batch, 20 arrivals of 300, a
2,000-instance clean test set, 30% mean noise with sigma 0.2 of the mean,
and 3 repetitions with fixed seeds.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

import cleanstream.frameworks as frameworks
from cleanstream.core import Batch, LabeledInstance, generate_synthetic, load_csv, split_stream
from cleanstream.core import StreamConfig
from cleanstream.harness import config_from_mapping, run_experiment, run_single
from cleanstream.metrics import CSV_COLUMNS
from cleanstream.models import ClassifierSpec, MlpModel
from cleanstream.models import evaluate_accuracy, predict_batch, train
from cleanstream.noise import NoiseSpec, draw_batch_noise_level, flip_count, inject_symmetric_noise

REPETITIONS = 3

REFERENCE = {
    "stream.num_classes": "4",
    "stream.num_features": "20",
    "stream.initial_batch_size": "1000",
    "stream.batch_size": "300",
    "stream.num_batches": "20",
    "stream.test_size": "2000",
    "stream.seed": "11",
    "noise.mean": "0.3",
    "noise.seed": "23",
    "classifier.seed": "31",
}

# Short stream for the initialization-sensitivity probe: over a long stream
# the label model is retrained from scratch on the whole accumulated pool
# every arrival, so any handicap from a small initial batch washes out and
# all sizes converge. Few arrivals at a higher noise level keep the weakly
# initialized label model data-starved for the entire run, which is the
# regime the criterion is about.
SHORT_SHAPE = {
    "stream.num_batches": "6",
    "stream.batch_size": "100",
    "noise.mean": "0.6",
}


@pytest.fixture(scope="session")
def run_cache():
    return {}


def runs_for(cache, **overrides):
    """Three repetitions of the reference workload with overrides applied."""
    mapping = dict(REFERENCE)
    for key, value in overrides.items():
        mapping[key.replace("__", ".")] = str(value)
    key = tuple(sorted(mapping.items()))
    if key not in cache:
        config = config_from_mapping(mapping)
        cache[key] = (config, [run_single(config, rep) for rep in range(REPETITIONS)])
    return cache[key]


def mean_final(cache, **overrides):
    _, results = runs_for(cache, **overrides)
    return sum(r.final_accuracy for r in results) / len(results)


def record(criterion, label, ok, detail):
    line = f"ACCEPTANCE {criterion} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def record_skip(criterion, label, detail):
    line = f"ACCEPTANCE {criterion} {label}: SKIP ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def test_c1_baseline_ordering(run_cache):
    """At 30% noise the cleansing run lands between the two baselines.

    Bounds: no_sel + 2pp <= rad <= opt_sel + 1pp, opt_sel <= full_clean + 1pp,
    all as 3-repetition means, computed within a 120 s budget.
    """
    start = time.perf_counter()
    rad = mean_final(run_cache, framework__variant="rad")
    no_sel = mean_final(run_cache, framework__variant="no_sel")
    opt_sel = mean_final(run_cache, framework__variant="opt_sel")
    full_clean = mean_final(run_cache, framework__variant="full_clean")
    elapsed = time.perf_counter() - start

    ok = (
        no_sel + 0.02 <= rad <= opt_sel + 0.01
        and opt_sel <= full_clean + 0.01
        and elapsed <= 120.0
    )
    line = record(
        "c1",
        "baseline ordering at 30% noise",
        ok,
        f"no_sel={no_sel:.4f} rad={rad:.4f} opt_sel={opt_sel:.4f} "
        f"full_clean={full_clean:.4f} runtime={elapsed:.0f}s",
    )
    assert ok, line


def test_c2_active_learning_tracks_ceiling(run_cache):
    """Oracle-backed runs stay within 2pp of the clean-label ceiling.

    Unlimited budget within 2pp, a 20% per-batch budget within 3pp.
    """
    active = mean_final(run_cache, framework__variant="active")
    limited = mean_final(
        run_cache,
        framework__variant="active",
        oracle__fraction="0.2",
    )
    full_clean = mean_final(run_cache, framework__variant="full_clean")

    ok = abs(active - full_clean) <= 0.02 and abs(limited - full_clean) <= 0.03
    line = record(
        "c2",
        "active learning tracks clean ceiling",
        ok,
        f"active={active:.4f} active20%={limited:.4f} full_clean={full_clean:.4f}",
    )
    assert ok, line


def test_c3_noise_robustness_sweep(run_cache):
    """Sweeping mean noise over {0, 0.3, 0.6, 0.9}: cleansing degrades slowly.

    All sweep runs receive a noiseless initial batch so the 90% level is
    well defined (a noisy initial batch there can draw a clamped level of
    1.0 and leave nothing to initialize from). Bounds: rad drops <= 10pp at
    60% noise while no_sel drops >= 15pp, and at 90% noise rad stays within
    8pp of opt_sel.
    """
    rad = {
        level: mean_final(
            run_cache, framework__variant="rad", noise__mean=level, initial__clean="true"
        )
        for level in ("0", "0.3", "0.6", "0.9")
    }
    no_sel_0 = mean_final(
        run_cache, framework__variant="no_sel", noise__mean="0", initial__clean="true"
    )
    no_sel_6 = mean_final(
        run_cache, framework__variant="no_sel", noise__mean="0.6", initial__clean="true"
    )
    opt_sel_9 = mean_final(
        run_cache, framework__variant="opt_sel", noise__mean="0.9", initial__clean="true"
    )

    rad_drop = rad["0"] - rad["0.6"]
    no_sel_drop = no_sel_0 - no_sel_6
    ok = rad_drop <= 0.10 and no_sel_drop >= 0.15 and rad["0.9"] >= opt_sel_9 - 0.08
    line = record(
        "c3",
        "noise robustness sweep",
        ok,
        f"rad@0={rad['0']:.4f} rad@0.3={rad['0.3']:.4f} rad@0.6={rad['0.6']:.4f} "
        f"rad@0.9={rad['0.9']:.4f} rad_drop@0.6={rad_drop:.4f} "
        f"no_sel_drop@0.6={no_sel_drop:.4f} opt_sel@0.9={opt_sel_9:.4f}",
    )
    assert ok, line


def test_c4_initialization_size_sensitivity(run_cache):
    """Small initial batches hurt the base run but not the oracle-backed one.

    On the short high-noise stream: active varies <= 2pp over initial sizes
    {100, 500, 1000} while rad at 100 sits >= 3pp below rad at 1000.
    """
    active = {
        size: mean_final(
            run_cache,
            framework__variant="active",
            stream__initial_batch_size=size,
            **SHORT_SHAPE,
        )
        for size in ("100", "500", "1000")
    }
    rad_100 = mean_final(
        run_cache, framework__variant="rad", stream__initial_batch_size="100", **SHORT_SHAPE
    )
    rad_1000 = mean_final(
        run_cache, framework__variant="rad", stream__initial_batch_size="1000", **SHORT_SHAPE
    )

    spread = max(active.values()) - min(active.values())
    deficit = rad_1000 - rad_100
    ok = spread <= 0.02 and deficit >= 0.03
    line = record(
        "c4",
        "initialization size sensitivity",
        ok,
        f"active spread={spread:.4f} rad@100={rad_100:.4f} rad@1000={rad_1000:.4f} "
        f"deficit={deficit:.4f}",
    )
    assert ok, line


def test_c5_selection_metrics_exact(run_cache):
    """Stored cumulative metrics equal an independent fold over the raw logs.

    Recomputes both selection metrics from the per-batch counts of every run
    the session has produced and requires bit-for-bit equality, plus the
    per-arrival invariant that the selected fraction never undercounts the
    selected-and-truly-clean fraction.
    """
    # Make sure the two variants no other criterion runs are represented.
    runs_for(run_cache, framework__variant="voting", **SHORT_SHAPE)
    runs_for(run_cache, framework__variant="slimmed", **SHORT_SHAPE)

    checked = 0
    for config, results in run_cache.values():
        batch_size = config.stream.batch_size
        for run in results:
            selected_fold = 0.0
            truth_fold = 0.0
            for position, report in enumerate(run.reports):
                assert report.batch_index == position + 1
                assert 0 <= report.selected_true_clean_count <= report.selected_count
                assert report.selected_count <= batch_size
                selected_fold += report.selected_count / batch_size
                truth_fold += report.selected_true_clean_count / batch_size
                assert report.cumulative_A == selected_fold
                assert report.cumulative_A_truth == truth_fold
                assert report.cumulative_A >= report.cumulative_A_truth
                checked += 1

    ok = checked > 0
    line = record(
        "c5",
        "selection metrics match brute-force recomputation",
        ok,
        f"{checked} arrival reports across {len(run_cache)} configurations, all exact",
    )
    assert ok, line


def _exhaustive_knn(train_x, train_y, queries, k, num_classes):
    """Reference nearest-neighbour vote: full sort, index then class ties."""
    out = []
    for q in queries:
        ranked = sorted(
            (float(np.dot(q - x, q - x)), i) for i, x in enumerate(train_x)
        )
        counts = [0] * num_classes
        for _, i in ranked[: min(k, len(ranked))]:
            counts[train_y[i]] += 1
        out.append(counts.index(max(counts)))
    return np.array(out)


def test_c6_model_oracles():
    """The from-scratch models agree with slow reference implementations.

    Nearest neighbours: 200 randomized integer-grid cases, exact match.
    Centroids: brute-force class means within 1e-12. MLP: analytic gradients
    against central finite differences, relative error <= 1e-4 over at least
    100 parameters.
    """
    rng = np.random.default_rng(7)
    knn_cases = 0
    for _ in range(200):
        n = int(rng.integers(5, 40))
        f = int(rng.integers(1, 6))
        num_classes = int(rng.integers(2, 5))
        k = int(rng.integers(1, 8))
        # Integer grids make squared distances exact in both code paths, so
        # ties are real and the tie-breaking rules are actually exercised.
        train_x = rng.integers(0, 4, size=(n, f)).astype(float)
        train_y = rng.integers(0, num_classes, size=n)
        queries = rng.integers(0, 4, size=(8, f)).astype(float)
        instances = [
            LabeledInstance(features=train_x[i], given_label=int(train_y[i]),
                            true_label=int(train_y[i]), uid=i)
            for i in range(n)
        ]
        spec = ClassifierSpec(kind="knn", num_classes=num_classes, knn_k=k)
        model = train(spec, instances, np.random.default_rng(0))
        got = model.predict_many(queries)
        want = _exhaustive_knn(train_x, train_y, queries, k, num_classes)
        assert np.array_equal(got, want)
        knn_cases += 1

    n, f, num_classes = 200, 8, 5
    train_x = rng.standard_normal((n, f))
    train_y = rng.integers(0, num_classes, size=n)
    instances = [
        LabeledInstance(features=train_x[i], given_label=int(train_y[i]),
                        true_label=int(train_y[i]), uid=i)
        for i in range(n)
    ]
    centroid = train(
        ClassifierSpec(kind="centroid", num_classes=num_classes),
        instances,
        np.random.default_rng(0),
    )
    reference_means = np.stack(
        [train_x[train_y == c].sum(axis=0) / np.sum(train_y == c)
         for c in np.unique(train_y)]
    )
    centroid_worst = float(np.abs(centroid.means - reference_means).max())
    assert centroid_worst <= 1e-12

    spec = ClassifierSpec(kind="mlp", num_classes=4, mlp_hidden=(8, 6))
    net = MlpModel(spec, num_features=6, rng=np.random.default_rng(5))
    grad_x = np.random.default_rng(6).standard_normal((25, 6))
    grad_y = np.random.default_rng(6).integers(0, 4, size=25)
    _, grads_w, grads_b = net.loss_and_grads(grad_x, grad_y)

    h = 1e-6
    worst = 0.0
    checked = 0
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for array, grad in zip(params, grads):
            flat = array.reshape(-1)
            for i in range(flat.size):
                kept = flat[i]
                flat[i] = kept + h
                up = net.loss_and_grads(grad_x, grad_y)[0]
                flat[i] = kept - h
                down = net.loss_and_grads(grad_x, grad_y)[0]
                flat[i] = kept
                fd = (up - down) / (2 * h)
                a = grad.reshape(-1)[i]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                worst = max(worst, rel)
                checked += 1

    ok = knn_cases == 200 and centroid_worst <= 1e-12 and checked >= 100 and worst <= 1e-4
    line = record(
        "c6",
        "model oracles",
        ok,
        f"knn cases={knn_cases} exact, centroid worst abs err={centroid_worst:.2e}, "
        f"mlp gradcheck {checked} params worst rel err={worst:.2e}",
    )
    assert ok, line


def test_c7_noise_injector_statistics():
    """Exact flip counts, no self-flips, and uniform replacement classes.

    Level 0.4 over 10,000 instances must flip exactly half-up-rounded
    0.4 * 10,000 = 4,000 labels; a chi-square over the replacement classes
    on a fixed-seed corpus must not reject uniformity at significance 0.01.
    """
    from scipy import stats

    num_classes = 6
    n = 10_000
    # All true labels equal so replacement classes share one expected law.
    # A flip landing on the true label would not change the label, so the
    # exact realized-count check below also rules self-flips out.
    instances = [
        LabeledInstance(features=np.zeros(1), given_label=0, true_label=0, uid=i)
        for i in range(n)
    ]
    batch = Batch(index=1, instances=instances)
    inject_symmetric_noise(batch, 0.4, num_classes, np.random.default_rng(123))

    flipped = [inst for inst in instances if inst.given_label != inst.true_label]
    exact = len(flipped) == flip_count(0.4, n) == 4000
    truth_untouched = all(inst.true_label == 0 for inst in instances)
    in_range = all(0 < inst.given_label < num_classes for inst in flipped)

    counts = np.bincount([inst.given_label for inst in flipped], minlength=num_classes)
    assert counts[0] == 0
    result = stats.chisquare(counts[1:])
    uniform = result.pvalue >= 0.01

    ok = exact and truth_untouched and in_range and uniform
    line = record(
        "c7",
        "noise injector statistics",
        ok,
        f"flips={len(flipped)}/4000 exact, self-flips=0, "
        f"chi-square p={result.pvalue:.3f} (reject below 0.01)",
    )
    assert ok, line


def test_c8_conservation_and_budget_invariants(run_cache, monkeypatch):
    """Nothing is lost or invented by the selection machinery.

    Voting: predicted-clean + vote-accepted + newly-rejected counts sum to
    the batch size at every arrival. Active with an unlimited oracle leaves
    zero inactive instances; with a per-batch fraction budget the query
    count never exceeds floor(fraction * batch size) and the cap actually
    binds. Slimmed: every training window is exactly the agreed instances
    plus the current and previous oracle batches, and each oracle batch is
    trained on exactly twice.
    """
    # Voting conservation, instrumented through the real module entry points.
    events = []
    real_cleanse = frameworks.cleanse
    real_filter = frameworks.voting_filter

    def recording_cleanse(model, instances):
        agreed, disagreed, preds = real_cleanse(model, instances)
        events.append(("cleanse", len(agreed), len(disagreed)))
        return agreed, disagreed, preds

    def recording_filter(instances, label_predictions, classifier):
        accepted, rejected = real_filter(instances, label_predictions, classifier)
        events.append(("filter", len(accepted), len(rejected)))
        return accepted, rejected

    monkeypatch.setattr(frameworks, "cleanse", recording_cleanse)
    monkeypatch.setattr(frameworks, "voting_filter", recording_filter)
    voting_mapping = dict(
        REFERENCE,
        **{
            "framework.variant": "voting",
            "stream.num_classes": "3",
            "stream.num_features": "6",
            "stream.initial_batch_size": "120",
            "stream.batch_size": "60",
            "stream.num_batches": "5",
            "stream.test_size": "100",
            "noise.mean": "0.4",
            "label_model.kind": "centroid",
            "classifier.knn_k": "3",
        },
    )
    run_single(config_from_mapping(voting_mapping), 0)
    monkeypatch.setattr(frameworks, "cleanse", real_cleanse)
    monkeypatch.setattr(frameworks, "voting_filter", real_filter)

    arrivals = 0
    conserved = True
    i = 0
    while i < len(events):
        kind, clean, dirty = events[i]
        assert kind == "cleanse"
        main_kind, accepted, rejected = events[i + 1]
        assert main_kind == "filter"
        conserved = conserved and (clean + accepted + rejected == 60)
        conserved = conserved and (accepted + rejected == dirty)
        arrivals += 1
        i += 2
        while i < len(events) and events[i][0] == "filter":  # history reprocessing
            i += 1
    assert arrivals == 5

    # Active learning with an unlimited oracle never parks anything.
    _, unlimited_runs = runs_for(run_cache, framework__variant="active")
    zero_inactive = all(
        report.inactive_total == 0 for run in unlimited_runs for report in run.reports
    )

    # A per-batch budget is an exact cap, and these parameters make it bind.
    cap = math.floor(0.03 * 100)
    _, capped_runs = runs_for(
        run_cache,
        framework__variant="active",
        stream__initial_batch_size="100",
        oracle__fraction="0.03",
        **SHORT_SHAPE,
    )
    query_counts = [r.oracle_queries for run in capped_runs for r in run.reports]
    capped = all(q <= cap for q in query_counts)
    binding = max(query_counts) == cap

    # Slimmed training windows, checked against an outside view of the split.
    stream = StreamConfig(
        num_classes=3, num_features=4, initial_batch_size=60, batch_size=30,
        num_batches=4, test_size=30, seed=5,
    )
    dataset = generate_synthetic(stream)
    initial, batches, _ = split_stream(dataset, stream, np.random.default_rng(5))
    spec = ClassifierSpec(kind="knn", num_classes=3, knn_k=3, seed=5)
    state = frameworks.initialize("slimmed", initial, spec, spec, np.random.default_rng(5))
    # a kNN classifier is refit from scratch on each window, so the window is
    # what frameworks.train_model receives
    trained_windows: list[list[LabeledInstance]] = []
    real_train = frameworks.train_model

    def recording_train(spec, instances, rng):
        trained_windows.append(instances)
        return real_train(spec, instances, rng)

    monkeypatch.setattr(frameworks, "train_model", recording_train)
    noise_rng = np.random.default_rng(9)

    windows_ok = True
    window_uid_lists = []
    queried_by_arrival = []
    for batch in batches:
        inject_symmetric_noise(batch, 0.5, 3, noise_rng)
        previous_uids = [inst.uid for inst in state.prev_oracle_batch]
        screening = predict_batch(state.classifier, batch.instances)
        agreed_uids = [
            inst.uid
            for inst, pred in zip(batch.instances, screening)
            if pred == inst.given_label
        ]
        disagreed_uids = [
            inst.uid
            for inst, pred in zip(batch.instances, screening)
            if pred != inst.given_label
        ]
        state, _ = frameworks.step(state, batch)
        windows_ok = windows_ok and len(trained_windows) == 1
        window_uids = sorted(inst.uid for window in trained_windows for inst in window)
        trained_windows.clear()
        windows_ok = windows_ok and window_uids == sorted(
            agreed_uids + disagreed_uids + previous_uids
        )
        window_uid_lists.append(window_uids)
        queried_by_arrival.append(disagreed_uids)

    trained_twice = True
    for position, queried in enumerate(queried_by_arrival):
        expected = 1 if position == len(queried_by_arrival) - 1 else 2
        for uid in queried:
            appearances = sum(uid in window for window in window_uid_lists)
            trained_twice = trained_twice and appearances == expected

    ok = conserved and zero_inactive and capped and binding and windows_ok and trained_twice
    line = record(
        "c8",
        "conservation and budget invariants",
        ok,
        f"voting conserved over {arrivals} arrivals, active inactive=0, "
        f"queries<=cap={cap} (max={max(query_counts)}), slimmed windows exact",
    )
    assert ok, line


def test_c9_byte_identical_reruns(tmp_path):
    """Two executions of one config write byte-identical per-batch CSVs."""
    mapping = dict(
        REFERENCE,
        **{
            "framework.variant": "voting",
            "stream.num_classes": "3",
            "stream.num_features": "6",
            "stream.initial_batch_size": "150",
            "stream.batch_size": "50",
            "stream.num_batches": "5",
            "stream.test_size": "150",
            "noise.mean": "0.35",
            "label_model.kind": "centroid",
            "classifier.knn_k": "3",
            "run.repetitions": "2",
        },
    )
    first = dict(mapping, **{"run.output_dir": str(tmp_path / "first")})
    second = dict(mapping, **{"run.output_dir": str(tmp_path / "second")})
    run_experiment(config_from_mapping(first))
    run_experiment(config_from_mapping(second))

    first_csvs = sorted((tmp_path / "first").rglob("batches.csv"))
    assert len(first_csvs) == 2
    identical = True
    for csv_path in first_csvs:
        twin = tmp_path / "second" / csv_path.relative_to(tmp_path / "first")
        identical = identical and csv_path.read_bytes() == twin.read_bytes()
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    ok = identical
    line = record(
        "c9",
        "byte-identical reruns",
        ok,
        f"{len(first_csvs)} repetition CSVs compared byte for byte",
    )
    assert ok, line


def test_c10_full_scale_real_dataset():
    """Optional check against user-supplied IoT traffic CSV exports.

    Looks for iot_train.csv (33,000 rows, 115 features, 11 classes) and
    iot_test.csv (6,000 rows) under ``data/`` or ``$CLEANSTREAM_IOT_DIR``.
    When present: 6,000-instance initial batch, 90 arrivals of 300, 30%
    mean noise; the cleansing run must land within 1.5pp of 0.981 final
    accuracy and the take-everything baseline within 1.5pp of 0.961.
    """
    data_dir = Path(os.environ.get("CLEANSTREAM_IOT_DIR", Path(__file__).parent.parent / "data"))
    train_path = data_dir / "iot_train.csv"
    test_path = data_dir / "iot_test.csv"
    if not (train_path.exists() and test_path.exists()):
        record_skip(
            "c10",
            "full-scale real-dataset reproduction",
            f"dataset not present under {data_dir}",
        )
        pytest.skip("IoT dataset not present")

    num_classes = 11
    train = load_csv(train_path, num_classes)
    test = load_csv(test_path, num_classes)

    initial_size, batch_size = 6_000, 300
    finals = {}
    for variant in ("rad", "no_sel"):
        instances = [
            LabeledInstance(
                features=inst.features.copy(),
                given_label=inst.given_label,
                true_label=inst.true_label,
                uid=inst.uid,
            )
            for inst in train
        ]
        noise_spec = NoiseSpec(mean_level=0.3, seed=23)
        noise_rng = np.random.default_rng(23)
        train_rng = np.random.default_rng(31)

        initial = Batch(index=0, instances=instances[:initial_size])
        level = draw_batch_noise_level(noise_spec, noise_rng)
        inject_symmetric_noise(initial, level, num_classes, noise_rng)

        classifier_spec = ClassifierSpec(kind="knn", num_classes=num_classes, knn_k=5, seed=31)
        label_spec = ClassifierSpec(kind="mlp", num_classes=num_classes, seed=31)
        if variant == "rad":
            state = frameworks.initialize("rad", initial, label_spec, classifier_spec, train_rng)
        else:
            state = frameworks.initialize("no_sel", initial, None, classifier_spec, train_rng)

        index = 1
        for start in range(initial_size, len(instances), batch_size):
            chunk = instances[start : start + batch_size]
            if len(chunk) < batch_size:
                break
            batch = Batch(index=index, instances=chunk)
            level = draw_batch_noise_level(noise_spec, noise_rng)
            inject_symmetric_noise(batch, level, num_classes, noise_rng)
            state, _ = frameworks.step(state, batch)
            index += 1

        finals[variant] = evaluate_accuracy(state.classifier, test)

    ok = abs(finals["rad"] - 0.981) <= 0.015 and abs(finals["no_sel"] - 0.961) <= 0.015
    line = record(
        "c10",
        "full-scale real-dataset reproduction",
        ok,
        f"rad={finals['rad']:.4f} (target 0.981±0.015) "
        f"no_sel={finals['no_sel']:.4f} (target 0.961±0.015)",
    )
    assert ok, line
