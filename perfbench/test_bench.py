"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Run with ``python3 -m pytest perfbench/test_bench.py`` from the root of a
checkout.  It asserts that every metric of ``BENCHMARK.json`` appears with
its unit, that no operation fails, that the analysis scaling curve rises with
clause size, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "0", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert "env" in json.loads(lines[-2])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
    if trace:
        assert metrics["error_ratio"]["value"] == 0
    if trace and workload == "analyze":
        curve = [metrics[f"analyze.ms_by_n.n{n:02d}"]["value"] for n in range(1, 11)]
        assert all(a <= b for a, b in zip(curve, curve[1:])), curve


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
