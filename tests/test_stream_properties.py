"""Property test: every kind's arrival step keeps the run invariants.

Small random streams go through :func:`cleanstream.frameworks.step` for all
seven kinds, drawing the edge cases that fixed configs rarely reach: a batch
of one, two classes, ``knn_k`` beyond the pool, an oracle budget of zero and
all-noise arrivals after a clean initial batch. After every step the pool's
stacked buffers must still equal its instances' features and given labels.
"""

from __future__ import annotations

import itertools

import numpy as np
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

    def answer(self, instance):
        self.calls += 1
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
        "stream": stream,
        "noise": noise,
        "initial_clean": all_noise or draw(st.booleans()),
        "budget": OracleBudget(draw(st.sampled_from([0.0, 0.29, 0.5, 1.0]))),
        "label_spec": model_spec(draw, k),
        "classifier_spec": model_spec(draw, k),
    }


@settings(max_examples=100, deadline=None)
@given(case=streams())
def test_step_keeps_run_invariants_for_every_kind(case):
    stream, noise, budget = case["stream"], case["noise"], case["budget"]
    rng = np.random.default_rng(stream.seed)
    initial, arrivals, test = split_stream(
        generate_synthetic(stream, separation=3.0), stream, rng
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
        np.testing.assert_array_equal(state.pool.X, features_matrix(state.clean_pool))
        np.testing.assert_array_equal(state.pool.y, given_labels(state.clean_pool))
        held = {id(inst) for inst in itertools.chain(state.clean_pool, *state.inactive)}
        assert held <= delivered
        assert not held & test_ids
        assert active_fraction(reports, stream.batch_size) >= active_truth_fraction(
            reports, stream.batch_size
        )
