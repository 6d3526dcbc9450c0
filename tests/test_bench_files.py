"""Checked-in benchmark comparisons: every ``BENCH_*.json`` at the repo root
names its commits, seeds and window, and gives for each workload and
end-to-end metric both sides' medians with quartiles, the pairs the head
won and the verdict of ``perfbench/compare.py``; further sets of pairs may
follow under ``repeats``. Workload and metric names must be the ones
``BENCHMARK.json`` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
VERDICTS = {"better", "worse", "same", "unresolved"}


def test_bench_files_exist():
    assert BENCH_FILES


def check_pairs(pairs, workload_names, metric_names):
    """One set of alternating pairs: its seeds and, per workload and
    metric, both sides' quartiles, the pairs won and the verdict."""
    seeds = pairs["seeds"]
    assert seeds and all(isinstance(s, int) for s in seeds)
    assert pairs["workloads"]
    for workload, metrics in pairs["workloads"].items():
        assert workload in workload_names
        assert metrics
        for name, row in metrics.items():
            assert name in metric_names
            for side in ("base", "head"):
                q1, median, q3 = (row[side][k] for k in ("q1", "median", "q3"))
                assert q1 <= median <= q3
            assert 0 <= row["pairs_won"] <= row["pairs"] == len(seeds)
            assert row["verdict"] in VERDICTS


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_keys(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = {w["name"] for w in spec["workloads"]}
    metric_names = {m["name"] for m in spec["end_to_end"]}
    bench = json.loads(path.read_text())

    for key in ("base_commit", "head_commit"):
        assert isinstance(bench[key], str) and len(bench[key]) >= 7
    assert bench["base_commit"] != bench["head_commit"]
    assert bench["seconds"] > 0
    # Further sets of pairs (same commits and window) may follow in
    # ``repeats``, each in the same form.
    for pairs in [bench] + bench.get("repeats", []):
        check_pairs(pairs, workload_names, metric_names)
