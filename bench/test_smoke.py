"""Smoke test: every workload end to end at a tiny scale.

Run with ``python3 -m pytest -q bench``. It checks that each workload
completes with every check passing and prints exactly the metrics
BENCHMARK.json declares, and that the benchmark refuses to run without
the program source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE_SCALE = "0.12"


def run_bench(cwd: Path, workload: str, trace: int, scale: str | None = SMOKE_SCALE):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if scale is not None:
        cmd += ["--scale", scale]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["ngram_protocol", "boe_protocol", "ngram_mine"])
def test_workload_runs_and_checks_pass(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "ngram_protocol", 0, scale=None)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
