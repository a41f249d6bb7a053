"""Smoke test of the benchmark on tiny inputs, so the harness does not rot.

    python3 -m pytest perfbench/test_smoke.py -q

The repository's own suite collects ``tests/`` only, so this adds nothing
to its run time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: Work counts that must repeat exactly for a given seed.
COUNTS = ("kernel.scalar_calls", "kernel.bulk_elements", "kernel.interp_calls",
          "kernel.scalar_terms", "planner.tail_evals_per_plan")


def run(workload, trace, cwd=ROOT, run_py=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, lines[:-1]


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = result_of(run(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_digest_repeat(workload):
    first, first_lines = result_of(run(workload, 1))
    second, second_lines = result_of(run(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["attempted"] == second["attempted"]
    digest = [line for line in first_lines if line.startswith("digest ")]
    assert digest and digest == [line for line in second_lines if line.startswith("digest ")]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run(WORKLOADS[0], 0, cwd=tmp_path, run_py=tmp_path / BENCH_DIR.name / "run.py")
    assert completed.returncode != 0
    assert not completed.stdout.strip()
