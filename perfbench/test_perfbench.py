"""The benchmark's own test: smoke runs of every workload, traced and not.

    python3 -m pytest -q perfbench/test_perfbench.py

Each smoke run uses tiny inputs and a one-second window. The test checks
that every declared metric is printed with its unit, that no op failed, that
the traced run's layer self times add up to its traced wall time, and that
the benchmark refuses to run without the repository's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers that do work on each workload in the traced run.
BUSY_LAYERS = {
    "moons_gdp": {"flows", "training", "accounting", "data"},
    "pinwheel_gmm_rdp": {"flows", "training", "accounting", "gmm",
                         "initialization", "data"},
    "model_queries": {"flows", "training", "anomaly", "data", "cli"},
    "dp_ad_ensemble": {"flows", "training", "accounting", "anomaly", "data",
                       "cli"},
}


def smoke(tmp_path, workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke",
         "--results", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_declares_what_the_code_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    declared = [(m["name"], m["unit"], m["better"])
                for m in SPEC["end_to_end"]]
    assert declared == list(metrics.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(tmp_path, workload, trace):
    proc = smoke(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if m["unit"] in ("s", "us", "MiB"):
            assert m["value"] > 0, name

    [record_path] = tmp_path.glob("*.json")
    record = json.loads(record_path.read_text())
    assert record["provenance"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["provenance"]["workload_seed"] == 7
    if trace:
        table = record["trace_table"]
        assert abs(table["unattributed_s"]) <= 1e-9 * table["wall_s"]
        busy = {layer for layer, s in table["layers"].items() if s > 0}
        assert busy - {"bench"} == BUSY_LAYERS[workload]
        assert list(tmp_path.glob("*.spans.jsonl.gz"))


def test_refuses_without_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke(tmp_path / "results", "moons_gdp", 0, cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
