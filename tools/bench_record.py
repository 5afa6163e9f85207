#!/usr/bin/env python3
"""Record the benchmark trajectory: one ``BENCH_<workload>.json`` per workload.

    python3 tools/bench_record.py --seconds 25 --seed 1

runs ``perfbench/run.py --trace 0`` once per workload, each in its own
process and unchanged, and parses the lines it prints: every metric line
(name, value, unit) and the closing JSON line, whose full-precision values
replace the printed ones for the metrics it carries.  Each file holds the
git HEAD the tree was recorded on and whether ``src/`` or ``perfbench/``
differed from it, a digest of the library's sources, the seed and seconds,
the run's correctness, its printed metrics (``timed_steps``, wall p50 and
p90, ``setup_s``, ``peak_rss_mb``, ``host.spin_ms``, ``modelled_he_s``,
``tee_bytes_per_step`` and the rest), and the workload's exact ``Pins``
from ``perfbench/workloads.py``, which an untraced run does not print.

A run that fails (a step not correct, or a nonzero exit) writes no file, and
the tool exits 1 after the other workloads.  A change that claims a
wall-clock effect refreshes these files in the same commit, so each commit's
figures sit beside the code they measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("infer-cnn12", "infer-r22-wide", "refine-r22")


def parse(stdout: str) -> dict:
    """The metric lines and closing JSON line of one perfbench run, as
    ``{"correct", "attempted", "failed", "metrics"}``; each metric maps to
    ``{"value", "unit"}``.  Raises ValueError when the run printed no JSON
    line or a metric line twice."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    result = next((json.loads(line) for line in reversed(lines)
                   if line.startswith("{")), None)
    if result is None:
        raise ValueError("perfbench printed no result line")
    metrics = {}
    for line in lines:
        if not line.startswith("  "):
            continue
        name, value, unit = line.split()
        if name in metrics:
            raise ValueError(f"metric {name!r} printed twice")
        metrics[name] = {"value": float(value), "unit": unit}
    metrics.update(result["metrics"])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def src_digest() -> str:
    """SHA-256 over the path and bytes of every ``.py`` file under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def pins(workload: str) -> dict:
    """The workload's ``Pins`` from ``perfbench/workloads.py``."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS as PERFBENCH

    return dataclasses.asdict(PERFBENCH[workload].pins)


def record(workload: str, seed: int, seconds: int) -> tuple[dict | None, str]:
    """Run perfbench once on ``workload``; returns the record, or None and
    the run's output when it failed."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    try:
        run = parse(proc.stdout)
    except ValueError:
        run = None
    if run is None or proc.returncode or not run["correct"]:
        return None, proc.stdout + proc.stderr
    return {
        "workload": workload,
        "git_head": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "src_sha256": src_digest(),
        "seed": seed,
        "seconds": seconds,
        **run,
        "pins": pins(workload),
    }, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="a workload to record (repeatable); default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory the BENCH files go to")
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload or WORKLOADS:
        data, output = record(workload, args.seed, args.seconds)
        if data is None:
            print(f"{workload}: the run failed; no file written\n{output[-4000:]}",
                  file=sys.stderr)
            status = 1
            continue
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        m = data["metrics"]
        print(f"{path.name}: p50 {m['step_ms_p50']['value']:.2f} ms, "
              f"p90 {m['step_ms_p90']['value']:.2f} ms, "
              f"{int(m['timed_steps']['value'])} timed steps")
    return status


if __name__ == "__main__":
    sys.exit(main())
