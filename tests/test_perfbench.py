"""The benchmark harness runs every workload on this checkout, traced and
untraced, and every output of it passes its checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["study", "channel", "sweep"])
def test_benchmark_workload_runs_correctly(workload):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=600,
    )
    assert res.returncode == 0, res.stderr
    record = json.loads(res.stdout.splitlines()[-1])
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert "trace.overhead_s" in record["metrics"]  # a traced pass ran
