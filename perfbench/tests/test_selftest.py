"""Self-test of the benchmark: every workload and the traced run at tiny
size, launched from a foreign working directory.

    python3 -m pytest perfbench/tests -q      # about three minutes

It checks the result line against BENCHMARK.json (every end-to-end or
per-layer metric, with its unit), that the workloads in BENCHMARK.json
are ones run.py knows, and that a directory holding only the benchmark
(no package) fails fast without printing a result.  Every workload
run.py knows is run, including those BENCHMARK.json leaves out: traced
runs use them as companions for the layers the benched workloads do not
reach.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(cwd, *args, timeout=600):
    return subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_run_py():
    import run as bench

    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == bench.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_end_to_end_metrics(tmp_path, workload):
    r = result_line(run(tmp_path, "--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", "0", "--scale", "tiny"))
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = r["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert len(r["metrics"]) == len(SPEC["end_to_end"])


def test_trace_emits_per_layer_metrics(tmp_path):
    r = result_line(run(tmp_path, "--workload", "knn_cells", "--seed", "3",
                        "--seconds", "1", "--trace", "1", "--scale", "tiny"))
    assert r["correct"] is True and r["failed"] == 0
    assert {k: v["unit"] for k, v in r["metrics"].items()} \
        == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_benchmark_alone_fails_fast(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, p), tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "pip_join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
