"""The benchmark's own test: the smoke run reports every metric that
BENCHMARK.json names, with its unit, for every workload.

    python3 -m pytest -q bench/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "5",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = _last_json(proc.stdout)["workloads"]
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == expected, name
    for name in results:
        assert f"{name:12s} failed_frac" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study69", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
