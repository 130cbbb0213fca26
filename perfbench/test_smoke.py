"""Smoke test of the benchmark itself, at its smallest size.

    python3 -m pytest perfbench/test_smoke.py

For each workload: one untraced run and two traced runs with ``--quick``
(one set-up, the fewest operations). Every metric BENCHMARK.json names must
be printed with its unit, no operation may fail, and the per-layer counts
must be identical across the two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def result_of(workload, trace, specs):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines[:-1]), m["name"]
    return lines, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    lines, _ = result_of(workload, 0, SPEC["end_to_end"])
    assert any(line.startswith("error_rate = 0 ratio") for line in lines)

    counts = []
    for _ in range(2):
        _, result = result_of(workload, 1, SPEC["per_layer"])
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["integrators.rhs_calls"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run("ensemble", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
