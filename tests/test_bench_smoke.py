"""Each gated bench workload runs once, untraced and traced, and reports correct.

`correct` includes the check of the output digest against
bench/expected.json, so a change to resolution terms or compare output
fails here before any timed run.  Only reads bench/.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("workload,trace", [
    pytest.param(w, t, id=w if t == "0" else f"{w}-traced") for w in GATED for t in ("0", "1")
])
def test_gated_workload_is_correct(workload, trace):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout[-2000:]
    if trace == "1":  # the per-layer report reads every metric BENCHMARK.json names
        missing = [name for name in PER_LAYER if name not in result["metrics"]]
        assert not missing, missing
