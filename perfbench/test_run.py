"""Tests of the benchmark runner: exact work counts, and BENCHMARK.json.

Run with ``python -m pytest perfbench`` from the root of the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd, workload, seed, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", ["density-sweep", "transform-scan",
                                      "operator-solve", "cli-cold"])
def test_counts_repeat_exactly_on_a_seed(workload):
    results = []
    for _ in range(2):
        proc = _run(ROOT, workload, 7)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["correct"], proc.stdout
        results.append(res["metrics"])
    for name in ("user_points_per_op", "user_calls_per_op"):
        assert results[0][name]["value"] == results[1][name]["value"] > 0


def test_trace_reports_every_per_layer_metric():
    proc = _run(ROOT, "density-sweep", 3, trace=1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == [name for name, _, _ in run.per_layer_metrics()]
    assert metrics["trace.top_span_share"]["value"] >= 0.9


def test_benchmark_json_matches_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        run.per_layer_metrics()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "density-sweep", 1)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
