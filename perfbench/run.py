#!/usr/bin/env python3
"""lhecnn benchmark: wall time and modelled HE latency per workload.

    python3 perfbench/run.py --workload refine-r22 --seed 1 --seconds 25 --trace 0

runs one workload in this process and prints its metrics, one per line with
its unit, then one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` alternates untraced and traced steps and reports the per-layer
metrics and the tracing overhead.  Without ``--workload`` every workload runs,
each in its own process.  The exit code is 0 only when every step was correct.

The library is imported from ``src/`` beside this directory; see README.md.
"""

import os

# One BLAS/OpenMP thread: the oracle's matmuls would otherwise spin extra
# threads beside the single-threaded session.  Must precede importing numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("infer-cnn12", "infer-r22-wide", "refine-r22")

SETUP_REPEATS = 25
SPIN_ITERATIONS = 400_000
# Every meter scope a step of some workload opens; a step that opens any other
# fails the metrics check, so this list and BENCHMARK.json stay complete.
SCOPES = ("enc.inputs", "enc.labels", "CL1", "Square1", "CL2", "Square2", "FL1",
          "Square3", "FL2", "tee.loss_head", "bwd.FL2", "bwd.FL1", "bwd.CL2",
          "bwd.CL1")
PRIMITIVE_OPERANDS = {"add": 2, "mul": 2, "rot": 1, "cmul": 2}  # ciphertext or plaintext
BOUNDARY = ("requests", "cts_in", "cts_out", "bytes_in", "bytes_out", "reencryptions")


def host_spin_ms() -> float:
    """A fixed pure-Python loop: shows when the machine, not the code, moved."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc ^= i * i
    return (time.perf_counter_ns() - start) / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------


def measure(wl, seed: int, seconds: int, traced: bool) -> dict:
    from workloads import Runner, open_session, write_model
    import tracing as tr

    spin_ms = host_spin_ms()
    tmp = OUT / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        model = write_model(wl, seed, tmp / "model")
        setup_ns, load_ns = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter_ns()
            session, load = open_session(wl, seed, tmp / "model")
            setup_ns.append(time.perf_counter_ns() - start)
            load_ns.append(load)
        runners = [Runner(wl, session, model.copy(), seed)]
        tracer = tr.Tracer()
        if traced:
            traced_session, _ = open_session(wl, seed, tmp / "model", tr.traced_kit(tracer))
            runners.append(Runner(wl, traced_session, model.copy(), seed,
                                  around=tracer.step))
        samples: list[list] = [[] for _ in runners]
        with tr.wrapped_modules(tracer) if traced else contextlib.nullcontext():
            for runner in runners:
                for _ in range(wl.warmup):
                    runner.step()
            budget, spent = seconds * 1e9, 0
            deadline = time.monotonic() + 2 * seconds + 20
            while spent < budget and time.monotonic() < deadline:
                for runner, kept in zip(runners, samples):
                    step = runner.step()
                    if step is not None:
                        kept.append((step, tracer.last))
                        spent += step.ns
        save_ms = None
        if traced:
            start = time.perf_counter_ns()
            runners[-1].session.save(tmp / "saved")
            save_ms = (time.perf_counter_ns() - start) / 1e6
            tracer.write(OUT / f"{wl.name}-seed{seed}.spans.json")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not all(samples):
        raise RuntimeError("no step completed")
    plain = [step for step, _ in samples[0]]
    ns = [s.ns for s in plain]
    metrics = {
        "step_ms_p90": (statistics.quantiles(ns, n=10)[-1] / 1e6 if len(ns) > 1
                        else ns[0] / 1e6, "ms"),
        "setup_s": (median(setup_ns) / 1e9, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    # Printed but not gated in BENCHMARK.json: see README.md, "Metrics".
    summary = {
        "step_ms_p50": (median(ns) / 1e6, "ms"),
        "images_per_s": (wl.cfg.n * len(ns) / (sum(ns) / 1e9), "1/s"),
        "modelled_he_s": (median(s.modelled_us for s in plain) / 1e6, "model-s"),
        "tee_bytes_per_step": (median(s.tee.bytes_in + s.tee.bytes_out for s in plain), "B"),
        "failed_share": (failed / attempted, "1"),
        "timed_steps": (len(ns), "count"),
        "host.spin_ms": (spin_ms, "ms"),
    }
    if traced:
        metrics = per_layer(wl, samples[1])
        metrics.update({
            "refine.save_ms": (save_ms, "ms"),
            "refine.load_ms": (median(load_ns) / 1e6, "ms"),
            "oracle.max_rel_err": (max(s.rel_err for kept in samples for s, _ in kept),
                                   "ratio"),
            "host.spin_ms": (spin_ms, "ms"),
            "trace.overhead_pct": (
                100 * (median(s.ns for s, _ in samples[1]) / median(ns) - 1), "%"),
        })
        summary["timed_steps"] = (len(samples[1]), "count")
    return {"metrics": metrics, "summary": summary, "attempted": attempted,
            "failed": failed}


def per_layer(wl, kept: list) -> dict:
    """Median over traced steps of each per-layer figure."""
    from lhecnn.metering import OP_KINDS, PRIMITIVE_KINDS, UNSCOPED, CostTable

    cost = CostTable.default()
    slots = wl.lhe.slot_count
    rows = []
    for step, busy in kept:
        row: dict[str, tuple[float, str]] = {}
        kinds = {k: 0 for k in OP_KINDS}
        scope_us: dict[str, float] = {}
        scope_level: dict[str, int] = {}
        for (scope, kind, level), c in step.counts.items():
            kinds[kind] += c
            scope_level[scope] = min(level, scope_level.get(scope, level))
            us = cost.lookup(kind, level) if kind in PRIMITIVE_KINDS else None
            scope_us[scope] = scope_us.get(scope, 0.0) + (us or 0.0) * c
        unknown = set(scope_level) - set(SCOPES) - {UNSCOPED}
        if unknown:
            raise RuntimeError(f"scopes missing from the benchmark: {sorted(unknown)}")
        for kind in OP_KINDS:
            row[f"lhe.{kind}.count"] = (kinds[kind], "count")
        for kind in PRIMITIVE_KINDS + ("encrypt",):
            row[f"lhe.{kind}.busy_ms"] = (busy.get(f"lhe.{kind}.busy_ns", 0) / 1e6, "ms")
        for kind in PRIMITIVE_KINDS:
            calls = busy.get(f"lhe.{kind}.calls", 0)
            row[f"lhe.{kind}.us_per_op"] = (
                busy.get(f"lhe.{kind}.busy_ns", 0) / calls / 1e3 if calls else 0.0, "us")
        row["lhe.bytes_computed_mb"] = (
            sum(kinds[k] * PRIMITIVE_OPERANDS[k] for k in PRIMITIVE_KINDS) * slots * 8 / 1e6,
            "MB")
        row["lhe.min_level"] = (min(scope_level.values()), "level")
        for name in ("metering.record", "metering.report", "packing.encode",
                     "packing.rotate_sum", "packing.rotate_spread", "packing.fold"):
            row[f"{name}.busy_ms"] = (busy.get(f"{name}.busy_ns", 0) / 1e6, "ms")
        row["packing.rotate_spread.rot_count"] = (
            busy.get("packing.rotate_spread.rot_count", 0), "count")
        for label in SCOPES:
            row[f"scope.{label}.self_ms"] = (busy.get(f"scope.{label}.self_ns", 0) / 1e6, "ms")
            row[f"scope.{label}.modelled_s"] = (scope_us.get(label, 0.0) / 1e6, "model-s")
            row[f"scope.{label}.min_level"] = (scope_level.get(label, -1), "level")
        for field in BOUNDARY:
            row[f"tee.{field}"] = (getattr(step.tee, field), "B" if "bytes" in field else "count")
        for service in ("loss_head", "reencrypt_batch", "reveal_outputs"):
            row[f"tee.{service}.busy_ms"] = (busy.get(f"tee.{service}.busy_ns", 0) / 1e6, "ms")
        row["refine.self_ms"] = (busy.get("step.self_ns", 0) / 1e6, "ms")
        rows.append(row)
    return {name: (median(r[name][0] for r in rows), unit)
            for name, (_, unit) in rows[0].items()}


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(f"{wl.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}", flush=True)
    result = measure(wl, args.seed, args.seconds, bool(args.trace))
    metrics, correct = result["metrics"], result["failed"] == 0
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        correct = False
        print(f"metrics check: emitted {sorted(set(got.items()) ^ set(want.items()))} "
              f"differ from BENCHMARK.json", flush=True)
    for name, (value, unit) in {**metrics, **result["summary"]}.items():
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in want},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "lhecnn" / "__init__.py").is_file():
        print(f"perfbench: no lhecnn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
