"""The benchmark tracer's contract with the package.

``bench/tracer.py`` wraps functions at the package's module attributes and
counts per-layer work from their calls. A rename, a second entry point or a
keyword call at one of those boundaries silently breaks ``--trace 1``; these
tests run every kind under the tracer and check that each wrapper is still
called and still comes off cleanly.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from cleanstream import baselines, cli, frameworks, harness, models, noise
from cleanstream.frameworks import ALL_VARIANTS, BASELINE_KINDS

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

STREAM = {
    "stream.num_classes": "3",
    "stream.num_features": "4",
    "stream.initial_batch_size": "30",
    "stream.batch_size": "10",
    "stream.num_batches": "3",
    "stream.test_size": "20",
    "noise.mean": "0.4",
    "classifier.kind": "knn",
    "classifier.knn_k": "3",
    "label_model.kind": "centroid",
}


def make_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    program = SimpleNamespace(
        baselines=baselines, cli=cli, frameworks=frameworks,
        harness=harness, models=models, noise=noise,
    )
    return module.Tracer(program)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_tracer_sees_every_arrival_and_restores(variant):
    tracer = make_tracer()
    config = harness.config_from_mapping(dict(STREAM, **{"framework.variant": variant}))
    tracer.install()
    try:
        result = harness.run_single(config, 0)
    finally:
        broken = tracer.restore()
    assert broken == []
    arrivals = config.stream.num_batches * config.stream.batch_size
    assert tracer.counts["frameworks.arrived"] == arrivals
    assert tracer.counts["frameworks.selected"] == sum(
        r.selected_count for r in result.reports
    )
    assert tracer.counts["frameworks.oracle_queries"] == result.oracle_queries_total
    assert tracer.counts["noise.flips"] > 0
    names = [span[0] for span in tracer.spans]
    assert names.count("frameworks.step") == config.stream.num_batches
    # the step table must reach baselines.step through its module attribute,
    # or the wrapped step, and its time, would go unseen
    if variant in BASELINE_KINDS:
        assert names.count("baselines.step") == config.stream.num_batches
        assert names.count("baselines.retrain") >= 1
    else:
        assert "baselines.step" not in names


def test_tracer_sees_the_matrix_driver_under_the_cli(tmp_path, capsys):
    tracer = make_tracer()
    conf = tmp_path / "sweep.conf"
    conf.write_text("".join(f"{k} = {v}\n" for k, v in STREAM.items()), encoding="utf-8")
    tracer.install()
    try:
        code = cli.main(["matrix", "--config", str(conf), "--matrix.variants=no_sel,slimmed"])
    finally:
        broken = tracer.restore()
    assert broken == []
    assert code == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("cli.main") == 1
    assert names.count("harness.run_matrix") == 1
    assert names.count("harness.run_single") == 2
