"""Every ``BENCH_*.json`` perf record at the repository root has the shape
the records share, names only workloads and end-to-end metrics that
``BENCHMARK.json`` declares, and claims a gain only by the pairs rule; a
record that claims nothing carries ``"claim": null``.
``BENCHMARK.json`` is only read."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KEYS = {"change", "parent_commit", "host", "harness", "claim", "perfbench"}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
# correctness entries a workload may carry beside its end-to-end metrics
CORRECTNESS = {"attempted", "failed", "every_run_correct", "operations_failed"}


def _benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    return workloads, {m["name"]: m["better"] for m in spec["end_to_end"]}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_benchmark_workloads_and_metrics(path):
    workloads, metrics = _benchmark()
    record = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= set(record), KEYS - set(record)
    if record["claim"] is not None:  # a record that claims no gain has a null claim
        assert record["claim"]["workload"] in workloads
        assert record["claim"]["metric"] in metrics
    assert record["perfbench"], "no workload measured"
    assert set(record["perfbench"]) <= workloads, set(record["perfbench"]) - workloads
    for workload, entries in record["perfbench"].items():
        unknown = set(entries) - set(metrics) - CORRECTNESS
        assert not unknown, (workload, unknown)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_a_met_claim_holds_by_the_pairs_rule(path):
    # a gain counts only when the change wins at least nine pairs in ten,
    # over at least ten alternating pairs, and moves the median by more than
    # the distance between the parent's quartiles
    record = json.loads(path.read_text(encoding="utf-8"))
    claim = record["claim"]
    if claim is None or not claim["met"]:
        return
    better = _benchmark()[1][claim["metric"]]
    entry = record["perfbench"][claim["workload"]][claim["metric"]]
    assert entry["pairs"] >= 10, entry["pairs"]
    assert entry["change_wins"] >= 0.9 * entry["pairs"], (entry["change_wins"], entry["pairs"])
    change, parent = entry["change"]["median"], entry["parent"]["median"]
    gain = parent - change if better == "lower" else change - parent
    assert gain > entry["parent"]["q3"] - entry["parent"]["q1"], (change, entry["parent"])
