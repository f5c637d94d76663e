"""Every ``BENCH_*.json`` perf record at the repository root has the shape
the records share, and names only workloads and end-to-end metrics that
``BENCHMARK.json`` declares.  ``BENCHMARK.json`` is only read."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"change", "parent_commit", "host", "harness", "claim", "perfbench"}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {w["name"] for w in spec["workloads"]}, {m["name"] for m in spec["end_to_end"]}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_benchmark_workloads_and_metrics(path):
    workloads, metrics = _benchmark()
    record = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= set(record), KEYS - set(record)
    assert record["claim"]["workload"] in workloads
    assert record["claim"]["metric"] in metrics
    assert set(record["perfbench"]) <= workloads, set(record["perfbench"]) - workloads
