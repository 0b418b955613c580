"""Schema and seed tests for the benchmark, on the small (--smoke) sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from hostspeed import NOMINAL_PROBE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("measure", "transform", "compress")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 1) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _digests(workload: str, seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), "--workload", workload,
         "--seed", str(seed), "--size", "smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout.strip().splitlines()[-1])["reports"]
    assert all(not r["problems"] for r in reports), reports
    return {r["name"]: r["sha256"] for r in reports}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    spec = _benchmark_json()
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert isinstance(result["metrics"][name]["value"], float)
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("failed_ratio = 0 ") for line in lines)


def test_benchmark_json_names_the_workloads():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_seeds_give_different_digests(workload):
    assert _digests(workload, 1) != _digests(workload, 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digests_in_two_processes(workload):
    assert _digests(workload, 5) == _digests(workload, 5)


def test_refuses_to_run_without_sources(tmp_path):
    """A directory holding only the benchmark gives no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "measure",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaled_time_follows_probe_speed():
    """Half speed for the first two seconds, nominal speed after."""
    probe = SpeedProbe()
    probe.starts = [i * 0.01 for i in range(400)]
    probe.durations = [NOMINAL_PROBE_S * (2 if t < 2 else 1)
                       for t in probe.starts]
    assert probe.scaled(0.0, 1.0) == pytest.approx(0.5)
    assert probe.scaled(2.5, 3.5) == pytest.approx(1.0)
    assert probe.scaled(1.0, 1.001) == pytest.approx(0.0005)


def test_probe_records_while_python_runs():
    probe = SpeedProbe()
    probe.start()
    try:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.durations) >= 5
    assert probe.starts == sorted(probe.starts)
