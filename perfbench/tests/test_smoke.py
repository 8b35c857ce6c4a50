"""Desk-scale smoke test of the benchmark, kept out of the tier-1 suite.

Runs every workload at tiny size with tracing off and on, and checks the
result line against BENCHMARK.json. From the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("mm.iterations_per_design", "detection.relative_entropy_calls_per_iter",
          "linalg.hpd_factor_calls_per_iter", "linalg.psd_sqrt_calls_per_iter",
          "model.lift_waveform_calls_per_iter", "experiments.points_failed",
          "experiments.points_attempted")


def _bench(workload: str, trace: int, cwd: Path = ROOT, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + ["--tiny"] if tiny else cmd, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = _result(_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_exactly():
    runs = [_result(_bench("sweep_mc", 1))["metrics"] for _ in range(2)]
    first, second = ({k: run[k]["value"] for k in COUNTS} for run in runs)
    assert first == second
    assert first["linalg.psd_sqrt_calls_per_iter"] == 2.0


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("design_small", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
