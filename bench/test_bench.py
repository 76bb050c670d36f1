"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/test_bench.py

The trace test runs every workload traced twice at the default seed for
eight seconds each (several traced passes for the fast workloads, whose
counts must also agree pass by pass), and takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def test_outcome_keeps_first_output_and_flags_changes():
    outcome = run.Outcome(2)
    outcome.add(0, 0, "a", 0.2)
    outcome.add(0, 0, "a", 0.1)
    outcome.add(1, 0, "b", 0.3)
    outcome.add(1, 0, "c", 0.4)
    assert outcome.first == [(0, "a"), (0, "b")]
    assert outcome.best == [0.1, 0.3] and outcome.runs == [2, 2]
    assert outcome.differs == {1} and outcome.attempted == 4


def test_same_seed_same_inputs():
    sys.path.insert(0, run.SRC)
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 7), workloads.build(workload, 7)
        assert a.files == b.files and a.ops == b.ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_counts_repeat(workload):
    counted = [name for name, unit, _ in tracing.PER_LAYER if unit in ("count", "bytes")]
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "8", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = result(proc)
        assert doc["correct"] and doc["failed"] == 0
        assert set(doc["metrics"]) == {name for name, _, _ in tracing.PER_LAYER}
        runs.append({name: doc["metrics"][name]["value"] for name in counted})
    assert runs[0] == runs[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
