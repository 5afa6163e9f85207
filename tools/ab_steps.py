#!/usr/bin/env python3
"""Same-process A/B step timing of two copies of the library.

    python3 tools/ab_steps.py --a ../parent/src --b src --workload refine-r22 --pairs 300

imports the ``lhecnn`` package of each ``src/`` tree under its own alias in
this one process, opens one session per side on the same model, and times
steps in pairs: each pair runs one step on each side with the same batch,
the side that runs first alternating from pair to pair.  It prints each
side's p50 and p90 step time, the median of the per-pair ratios b/a, the
pairs b won, and whether both sides revealed the same outputs (inference)
or losses (refining) in every pair.  It also prints the slot buffers each
side's backend holds in its free lists after the last pair, in buffers and
in MB: the peak pooled working set of a step, less what the session still
holds (its parameter cells, once a refining round has replaced them).  Peak
RSS cannot tell two trees in one process apart; this count can.

With ``--loads N`` it first times N loads of the saved session per side, in
pairs in the same alternating order, and prints each side's median
``RefineSession.load`` time and the resident kB of the loaded cells file's
mapping right after a load (the most over the N loads, read from
``/proc/self/smaps``; "n/a" where that file does not exist).

Pairs run back to back share the host's state, so a change of a few percent
shows in a few hundred pairs where separate benchmark runs, whose medians
drift with the host, cannot resolve it.  The workloads are those of
``perfbench`` by name and shape.  The sessions are saved to and loaded from
a temporary directory that is removed at exit; nothing else is written.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, as the benchmark runs.  Must precede importing numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

LR = 0.05
WORKLOADS = ("infer-cnn12", "infer-r22-wide", "refine-r22")


def import_tree(src: Path, alias: str):
    """The ``lhecnn`` package under ``src`` imported as module ``alias``; its
    relative imports resolve within the alias, so two trees never mix."""
    init = Path(src).resolve() / "lhecnn" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no lhecnn package under {src}")
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


@dataclass
class Side:
    """One tree's session and its step times."""

    name: str
    lib: object
    session: object
    refine: bool
    times_ns: list

    def step(self, images, labels):
        """One timed step; returns what it revealed, to compare the sides."""
        start = time.perf_counter_ns()
        if self.refine:
            out = self.session.refine(images, labels, lr=LR).losses[0]
        else:
            logits, _ = self.session.infer(images)
            out = self.session.reveal_outputs(logits)
        self.times_ns.append(time.perf_counter_ns() - start)
        return np.asarray(out).tobytes()


def mapping_resident_kb(array: np.ndarray) -> int | None:
    """Resident kB of the mapping of this process that holds ``array``'s
    first byte, from ``/proc/self/smaps``; None where that file does not
    exist."""
    smaps = Path("/proc/self/smaps")
    if not smaps.exists():
        return None
    address = array.__array_interface__["data"][0]
    inside = False
    for line in smaps.read_text().splitlines():
        head = line.split(None, 1)[0]
        if "-" in head and not head.endswith(":"):
            start, end = (int(part, 16) for part in head.split("-"))
            inside = start <= address < end
        elif inside and head == "Rss:":
            return int(line.split()[1])
    return None


def workload(lib, name: str):
    """(model, LHE parameters, r mode, refines) of the named workload."""
    if name == "infer-cnn12":
        cnn = lib.preset("cnn-1-2")
        return cnn.model, cnn.lhe, "auto", False
    r22 = lib.preset("refining-2-2")
    if name == "infer-r22-wide":
        return r22.model, lib.LheParams(32768, 10), "auto", False
    if name == "refine-r22":
        return r22.model, r22.lhe, 1, True
    raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def open_side(name: str, lib, wl: str, seed: int, tmp: Path) -> Side:
    """A session of ``wl`` saved by ``lib`` to ``tmp`` and loaded back."""
    cfg, lhe, r_mode, refine = workload(lib, wl)
    backend = lambda: lib.SimulatorBackend(lib.OpMeter())  # noqa: E731
    first = lib.RefineSession(lib.TeeService(backend(), lhe, seed=seed), cfg, lhe,
                              r_mode=r_mode, exact_activation_grad=False)
    first.load_base_model(lib.init_params(cfg, seed))
    path = tmp / name
    first.save(path)
    session = lib.RefineSession.load(lib.TeeService(backend(), lhe, seed=seed), path)
    return Side(name, lib, session, refine, [])


def load_once(side: Side, wl: str, seed: int, tmp: Path) -> tuple[int, int | None]:
    """One timed load of ``side``'s saved session: its time in ns, and the
    resident kB of the mapping that holds its first cell right after it."""
    lib = side.lib
    tee = lib.TeeService(lib.SimulatorBackend(lib.OpMeter()), workload(lib, wl)[1], seed=seed)
    start = time.perf_counter_ns()
    session = lib.RefineSession.load(tee, tmp / side.name)
    elapsed = time.perf_counter_ns() - start
    return elapsed, mapping_resident_kb(next(iter(session.filters[0].cells.values())).slots)


def run(a_src: Path, b_src: Path, wl: str, pairs: int, warmup: int, seed: int,
        loads: int = 0) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="ab_steps-"))
    try:
        sides = [open_side(name, import_tree(src, f"lhecnn_ab_{name}"), wl, seed, tmp)
                 for name, src in (("a", a_src), ("b", b_src))]
        loaded = {side.name: [] for side in sides}
        for index in range(loads):
            for side in (sides if index % 2 == 0 else sides[::-1]):
                loaded[side.name].append(load_once(side, wl, seed, tmp))
        cfg = workload(sides[0].lib, wl)[0]
        first = cfg.conv[0]
        rng = np.random.default_rng(seed)
        same = True
        for index in range(warmup + pairs):
            images = rng.normal(size=(cfg.n, first.channels, first.input_side,
                                      first.input_side)) * 0.2
            labels = rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)
            order = sides if index % 2 == 0 else sides[::-1]
            outs = {side.name: side.step(images, labels) for side in order}
            same &= outs["a"] == outs["b"]
            if index < warmup:
                for side in sides:
                    side.times_ns.pop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    a_ms, b_ms = ([t / 1e6 for t in side.times_ns] for side in sides)
    ratios = [b / a for a, b in zip(a_ms, b_ms)]
    load_stats = {}
    for name, runs in loaded.items():
        if runs:
            kbs = [kb for _, kb in runs]
            load_stats[f"{name}_load_ms"] = statistics.median(ns for ns, _ in runs) / 1e6
            load_stats[f"{name}_load_kb"] = None if None in kbs else max(kbs)
    return {
        "workload": wl,
        "pairs": pairs,
        "a_p50": np.percentile(a_ms, 50), "a_p90": np.percentile(a_ms, 90),
        "b_p50": np.percentile(b_ms, 50), "b_p90": np.percentile(b_ms, 90),
        "median_ratio": statistics.median(ratios),
        "b_won": sum(b < a for a, b in zip(a_ms, b_ms)),
        "same_outputs": same,
        **{f"{side.name}_buffers": side.session.backend.free_buffers for side in sides},
        "loads": loads,
        "loads_b_won": sum(b < a for (a, _), (b, _) in zip(loaded["a"], loaded["b"])),
        **load_stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="src/ tree of side a (the base)")
    parser.add_argument("--b", type=Path, required=True, help="src/ tree of side b")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=3, help="untimed pairs first")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--loads", type=int, default=0,
                        help="timed loads per side, before the pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.warmup < 0 or args.loads < 0:
        parser.error("--pairs must be positive, --warmup and --loads nonnegative")
    r = run(args.a, args.b, args.workload, args.pairs, args.warmup, args.seed, args.loads)
    print(f"{r['workload']}: {r['pairs']} pairs")
    if r["loads"]:
        for name in "ab":
            kb = r[f"{name}_load_kb"]
            print(f"  {name}  load p50 {r[f'{name}_load_ms']:.3f} ms over {r['loads']} loads; "
                  f"cells mapping resident after a load {'n/a' if kb is None else f'{kb} kB'}")
        print(f"  b loads faster in {r['loads_b_won']} of {r['loads']} load pairs")
    print(f"  a  p50 {r['a_p50']:.2f} ms  p90 {r['a_p90']:.2f} ms")
    print(f"  b  p50 {r['b_p50']:.2f} ms  p90 {r['b_p90']:.2f} ms")
    for name in "ab":
        buffers = r[f"{name}_buffers"]
        mb = sum(8 * n * count for n, count in buffers.items()) / 2**20
        print(f"  {name}  free buffers {sum(buffers.values())} ({mb:.2f} MB)")
    print(f"  median ratio b/a {r['median_ratio']:.3f}; b faster in "
          f"{r['b_won']} of {r['pairs']} pairs")
    print(f"  same outputs in every pair: {'yes' if r['same_outputs'] else 'NO'}")
    return 0 if r["same_outputs"] else 1


if __name__ == "__main__":
    sys.exit(main())
