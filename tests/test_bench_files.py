"""Every committed ``BENCH_*.json`` is a measurement record that can be read.

Each one holds the ``perfbench/run.py`` result lines of the runs it
cites (``runs``), the machine they ran on (``machine``) and per-layer
p50/p99 from traced runs (``per_layer``).
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


@pytest.mark.parametrize("path", BENCH_FILES, ids=os.path.basename)
def test_bench_file_carries_runs_machine_and_per_layer(path):
    with open(path) as fh:
        doc = json.load(fh)
    assert isinstance(doc["machine"], dict) and doc["machine"]
    assert doc["runs"]
    for run in doc["runs"]:
        assert {"workload", "side", "result"} <= set(run)
        result = run["result"]
        assert {"correct", "attempted", "failed", "metrics"} <= set(result)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float) and isinstance(metric["unit"], str)
    assert doc["per_layer"]
    for workload, sides in doc["per_layer"].items():
        for side, layers in sides.items():
            assert layers, (workload, side)
            for layer, stats in layers.items():
                assert {"p50_ms", "p99_ms", "n"} <= set(stats), (workload, side, layer)
                assert stats["p50_ms"] <= stats["p99_ms"], (workload, side, layer)
