"""Smoke run of the benchmark's traced mode.

The traced run wraps library names from outside ``src/`` (the backend
primitives, ``OpMeter.record``/``scope``, the rotate-and-sum helpers, the
encoders and ``refine.build_report``), so a rename or a changed signature
shows up here as a failed or incorrect step.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload):
    """Metrics of a 1 s ``--trace 1`` run, after checking it ran correctly."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_refine_round_runs_correctly():
    # The traced spans wrap module-level names; a refactor that moves an
    # encoder or rotate-and-sum helper away from them would read 0 here.
    metrics = traced_run("refine-r22")
    for name in ("packing.encode", "packing.fold", "packing.rotate_sum",
                 "packing.rotate_spread"):
        assert metrics[f"{name}.busy_ms"] > 0, name
    assert metrics["packing.rotate_spread.rot_count"] == 1820


def test_traced_wide_inference_runs_correctly():
    # The only workload through the cross layouts; its forward folds run
    # through forward.fold_rotate_sum.
    metrics = traced_run("infer-r22-wide")
    assert metrics["packing.fold.busy_ms"] > 0
