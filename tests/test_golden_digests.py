"""The benchmark's golden batches.csv digests, rebuilt by Tier-1.

``bench/golden.json`` holds the seed-0 digest of every batches.csv the
benchmark writes. The kNN and centroid runs, and ``long_stream``'s
``slimmed`` run with its warm-started MLP classifier, are rebuilt here with
the benchmark's own workload code, so a change that moves any of their
numbers fails Tier-1 instead of only adding a note to the benchmark's
output. The MLP digests held under the SkylakeX, Haswell and Sandybridge
OpenBLAS kernels and with one BLAS thread; ``reference_mlp``'s two runs,
about 20 s of MLP retraining, stay with the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from cleanstream import cli, harness

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench():
    name = "bench_run_bench"
    spec = importlib.util.spec_from_file_location(name, BENCH_DIR / "run_bench.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up while being built
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_tier1_runs_match_the_golden_digests(bench, tmp_path):
    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    program = SimpleNamespace(cli=cli, harness=harness)

    sweep = bench.build_workload(program, "knn_sweep", 0, tmp_path, small=False)
    result = bench.run_pass(program, sweep, tmp_path)
    assert result.errors == {}
    assert {rel: sha256(data) for rel, data in result.files.items()} == golden["knn_sweep"]

    long_stream = bench.build_workload(program, "long_stream", 0, tmp_path, small=False)
    assert [c.variant for c in long_stream.configs] == ["voting", "slimmed"]
    for config in long_stream.configs:
        rel = bench.relative_csv(harness, config)
        path = tmp_path / "long_stream" / rel
        path.parent.mkdir(parents=True)
        harness.write_reports_csv(harness.run_single(config, 0).reports, path)
        assert sha256(path.read_bytes()) == golden["long_stream"][rel]
