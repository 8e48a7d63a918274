"""Smoke test of the benchmark at tiny sizes: one small ring per workload.

    python3 -m pytest bench/test_smoke.py

Each workload runs once untraced and once traced.  Every metric named in
BENCHMARK.json must be printed with its unit, and no operation may fail.
Without the program beside it the benchmark must exit non-zero and print
no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import uuid

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def bench_run(workload, trace, cwd=ROOT, run_py=None):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace), "--tiny"]
    if run_py is not None:
        cmd = [sys.executable, run_py] + cmd[2:]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_and_nothing_fails(workload, trace):
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        s["name"]: s["unit"] for s in specs}
    for spec in specs:
        assert any(line.split()[:1] == [spec["name"]]
                   and line.split()[-1] == spec["unit"] for line in lines), spec
    info = json.loads(next(l for l in lines if l.startswith("bench-info "))
                      [len("bench-info "):])
    assert info["fail_frac"] == 0
    assert info["seed"] == 7 and info["machine"]["cores"] >= 1


def test_exits_nonzero_without_the_program():
    bare = os.path.join(ROOT, ".bench_work", "bare-%s" % uuid.uuid4().hex)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run("betti-fp", 0, cwd=bare,
                         run_py=os.path.join(bare, BENCH["command"][1]))
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
