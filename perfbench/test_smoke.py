"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted with its unit, that no call fails, that traced call counts
repeat exactly, and that the benchmark refuses to run without the package.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, run=RUN, cwd=ROOT):
    # a tiny pass takes up to about 2 s, so 4 s gives at least two passes
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3",
         "--seconds", "4", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_the_benchmark():
    sys.path.insert(0, HERE)
    try:
        import workloads
    finally:
        sys.path.remove(HERE)
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("failed_ratio 0 ") for line in lines)
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    # later passes are compared with the first one
    assert provenance["passes"] >= 2
    assert result["attempted"] == provenance["passes"] * provenance["jobs_per_pass"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_repeat(workload):
    _, first = result_of(bench(workload, 1))
    _, second = result_of(bench(workload, 1))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
              for r in (first, second)]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench(WORKLOADS[0], 0, run=os.path.join(bare, "perfbench", "run.py"), cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:  # a benchmark run still uses it
            pass
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
