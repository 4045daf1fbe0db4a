"""Property test: every kind's arrival step keeps the run invariants.

Small random streams go through :func:`cleanstream.frameworks.step` for all
seven kinds, drawing the edge cases that fixed configs rarely reach: a batch
of one, two classes, ``knn_k`` beyond the pool, an oracle budget of zero and
all-noise arrivals after a clean initial batch, on well separated or
overlapping classes. After every step the pool's stacked buffers must still
equal its instances' features and given labels. Fixed overlapping streams
make sure that ``active`` and ``slimmed`` meet oracle answers that change a
label, which that check exists to catch.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cleanstream import frameworks
from cleanstream.core import StreamConfig, generate_synthetic, split_stream
from cleanstream.frameworks import ALL_VARIANTS, GroundTruthOracle, OracleBudget
from cleanstream.metrics import active_fraction, active_truth_fraction
from cleanstream.models import ClassifierSpec, features_matrix, given_labels
from cleanstream.noise import NoiseSpec, draw_batch_noise_level, inject_symmetric_noise


class CountingOracle(GroundTruthOracle):
    def __init__(self):
        self.calls = 0
        self.relabels = 0  # answers that differ from the given label

    def answer(self, instance):
        self.calls += 1
        self.relabels += instance.given_label != instance.true_label
        return super().answer(instance)


def model_spec(draw, num_classes: int) -> ClassifierSpec:
    return ClassifierSpec(
        kind=draw(st.sampled_from(["knn", "centroid", "mlp"])),
        num_classes=num_classes,
        knn_k=draw(st.sampled_from([1, 3, 500])),  # 500 is beyond every pool here
        mlp_hidden=(4,),
        mlp_epochs=2,
        mlp_batch_size=8,
    )


@st.composite
def streams(draw):
    k = draw(st.integers(2, 4))
    stream = StreamConfig(
        num_classes=k,
        num_features=3,
        initial_batch_size=draw(st.integers(k, 16)),
        batch_size=draw(st.sampled_from([1, 2, 7, 12])),
        num_batches=draw(st.integers(1, 4)),
        test_size=5,
        seed=draw(st.integers(0, 10_000)),
    )
    all_noise = draw(st.booleans())
    noise = NoiseSpec(
        mean_level=1.0 if all_noise else draw(st.sampled_from([0.0, 0.3, 0.6])),
        std_dev_mode="absolute",
        std_dev=0.0 if all_noise else 0.2,
        seed=stream.seed,
    )
    return {
        "variant": draw(st.sampled_from(ALL_VARIANTS)),
        "separation": draw(st.sampled_from([0.5, 3.0])),
        "stream": stream,
        "noise": noise,
        "initial_clean": all_noise or draw(st.booleans()),
        "budget": OracleBudget(draw(st.sampled_from([0.0, 0.29, 0.5, 1.0]))),
        "label_spec": model_spec(draw, k),
        "classifier_spec": model_spec(draw, k),
    }


def run_and_check(case) -> CountingOracle:
    """Step through the case's stream, checking the invariants after each arrival."""
    stream, noise, budget = case["stream"], case["noise"], case["budget"]
    rng = np.random.default_rng(stream.seed)
    initial, arrivals, test = split_stream(
        generate_synthetic(stream, separation=case["separation"]), stream, rng
    )
    if not case["initial_clean"]:
        level = draw_batch_noise_level(noise, rng)
        inject_symmetric_noise(initial, level, stream.num_classes, rng)
        assume(any(inst.is_clean for inst in initial.instances))
    state = frameworks.initialize(
        case["variant"], initial, case["label_spec"], case["classifier_spec"], rng
    )
    oracle = CountingOracle()
    test_ids = {id(inst) for inst in test}
    delivered = {id(inst) for inst in initial.instances}
    reports = []
    for batch in arrivals:
        inject_symmetric_noise(
            batch, draw_batch_noise_level(noise, rng), stream.num_classes, rng
        )
        delivered.update(id(inst) for inst in batch.instances)
        calls_before = oracle.calls
        state, report = frameworks.step(state, batch, oracle, budget)
        reports.append(report)

        assert 0 <= report.selected_count <= len(batch.instances)
        assert report.oracle_queries == oracle.calls - calls_before
        assert report.oracle_queries <= budget.max_queries(len(batch.instances))
        assert state.oracle_queries_total == sum(r.oracle_queries for r in reports)
        # labels are final before an instance joins the pool, so the pool's
        # buffers, stacked once at append time, still match its instances
        np.testing.assert_array_equal(state.clean_pool.X, features_matrix(state.clean_pool))
        np.testing.assert_array_equal(state.clean_pool.y, given_labels(state.clean_pool))
        held = {id(inst) for inst in itertools.chain(state.clean_pool, *state.inactive)}
        assert held <= delivered
        assert not held & test_ids
        assert active_fraction(reports, stream.batch_size) >= active_truth_fraction(
            reports, stream.batch_size
        )
    return oracle


@settings(max_examples=100, deadline=None)
@given(case=streams())
def test_step_keeps_run_invariants_for_every_kind(case):
    run_and_check(case)


@pytest.mark.parametrize("variant", ["active", "slimmed"])
def test_oracle_relabels_keep_the_pool_buffers_in_step(variant):
    stream = StreamConfig(
        num_classes=3, num_features=3, initial_batch_size=12, batch_size=12,
        num_batches=4, test_size=5, seed=11,
    )
    # two different models, so the active variant's label model and
    # classifier can both disagree with a label and send it to the oracle
    case = {
        "variant": variant,
        "separation": 0.5,
        "stream": stream,
        "noise": NoiseSpec(mean_level=0.4, std_dev_mode="absolute", std_dev=0.0, seed=11),
        "initial_clean": True,
        "budget": OracleBudget(),
        "label_spec": ClassifierSpec(kind="centroid", num_classes=3),
        "classifier_spec": ClassifierSpec(kind="knn", num_classes=3, knn_k=3),
    }
    assert run_and_check(case).relabels >= 1
