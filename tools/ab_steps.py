#!/usr/bin/env python3
"""Same-process A/B step timing of two copies of the library.

    python3 tools/ab_steps.py --a ../parent/src --b src --workload refine-r22 --pairs 300

imports the ``lhecnn`` package of each ``src/`` tree under its own alias in
this one process, opens one session per side on the same model, and times
steps in pairs: each pair runs one step on each side with the same batch,
the side that runs first alternating from pair to pair.  It prints each
side's p50 and p90 step time, the median of the per-pair ratios b/a, the
pairs b won, whether both sides revealed the same outputs (inference)
or losses (refining) in every pair, and whether both steps of every pair
recorded the same meter counts (each step's ``meter.since`` delta, keyed
by scope, kind and level).  A refining workload also compares the
bytes of the two sides' decrypted models after the last pair: a round's
loss is computed before its update, so the losses alone miss a parameter
the last update got wrong.  It also prints the slot buffers each
side's backend holds in its free lists after the last pair, in buffers and
in MB: the peak pooled working set of a step, less what the session still
holds (its parameter cells, once a refining round has replaced them).  Peak
RSS cannot tell two trees in one process apart; this count can.  An
inference workload, whose steps leave the loaded cells in place, also prints
the resident kB of each side's cells-file mapping after the last pair
(read from ``/proc/self/smaps``; "n/a" where that file does not exist): the
pages of the saved model its steps have read.  Beside it stands the kB the
filesystem allocated to that cells file (``st_blocks``; "n/a" where the
platform does not report it): a save leaves zero tails as holes, so this is
its written prefixes, not its size.

Each side saves the session it then loads, and the run compares the two
saves: the bytes of the cells files, and the manifests' lines other than
``cells``, which names each file by a random name.  It prints whether they
are the same; a run whose saves differ fails, as one whose outputs, counts
or models differ does.

After the timed pairs it runs two more steps per side, untimed, on a new
session of that side's saved model whose backend counts the pooled slot
buffers alive: one more as a buffer is taken from a free list (or made, when
the list is empty) and one less as it goes back.  It prints the most alive
during the second step and the meter scope that step was in when the count
peaked, so where a workload's peak sits needs no hand tally.  The first
step is not counted: in a refining workload it replaces the loaded cells
with pooled ones, so the second is a steady round.

With ``--loads N`` it first sets up the saved session N times per side, in
pairs in the same alternating order, and prints each side's median set-up
time and the resident kB of the loaded cells file's mapping right after a
load (the most over the N loads, read from ``/proc/self/smaps``; "n/a" where
that file does not exist).  A set-up is timed as perfbench's ``setup_s``
times it: building the meter, the backend and the TEE (key generation
included), then ``RefineSession.load``.

With ``--bias-check`` it first times side a against a copy of side a's
tree, the same way and with as many pairs, and prints that median ratio and
the pairs the copy won beside the a/b ones.  Two identical trees can read a
ratio of a few percent away from 1 (which side was imported and set up
first, where its arrays landed), so an a/b ratio inside that spread
resolves nothing.

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
from collections import defaultdict
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
        """One timed step; returns what it revealed and the meter counts it
        recorded, to compare the sides."""
        meter = self.session.meter
        mark = meter.checkpoint()
        start = time.perf_counter_ns()
        if self.refine:
            out = self.session.refine(images, labels, lr=LR).losses[0]
        else:
            logits, _ = self.session.infer(images)
            out = self.session.reveal_outputs(logits)
        self.times_ns.append(time.perf_counter_ns() - start)
        return np.asarray(out).tobytes(), meter.since(mark)


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


def allocated_kb(directory: Path) -> int | None:
    """kB the filesystem allocated to the cells file saved in ``directory``;
    None where the platform does not report it."""
    (path,) = directory.glob("cells-*.lhe")
    blocks = getattr(path.stat(), "st_blocks", None)
    return None if blocks is None else blocks * 512 // 1024


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


def counting_backend(lib):
    """A subclass of ``lib``'s ``SimulatorBackend`` whose free lists count
    the pooled buffers alive: ``live`` goes up by one as a buffer is taken
    from a list (or made, when the list is empty) and down by one as one
    goes back, and ``peak`` and ``peak_scope`` keep its most and the meter
    scope it was reached in."""

    class CountingList(lib.lhe._FreeList):
        __slots__ = ("backend",)

        def __init__(self, backend):
            super().__init__()
            self.backend = backend

        def pop(self):
            backend = self.backend
            backend.live += 1
            if backend.live > backend.peak:
                backend.peak, backend.peak_scope = backend.live, backend.meter.current_scope
            return super().pop()

        def append(self, view):
            self.backend.live -= 1
            super().append(view)

    class CountingBackend(lib.SimulatorBackend):
        def __init__(self, meter=None):
            super().__init__(meter)
            self.live = self.peak = 0
            self.peak_scope = None
            self._free = defaultdict(lambda: CountingList(self))

    return CountingBackend


def peak_buffers(side: Side, wl: str, seed: int, tmp: Path) -> tuple[int, str]:
    """The most pooled buffers alive during the second of two untimed steps
    of a new session of ``side``'s saved model, and the meter scope the step
    was in when they were."""
    lib = side.lib
    cfg, lhe, _, refine = workload(lib, wl)
    backend = counting_backend(lib)(lib.OpMeter())
    session = lib.RefineSession.load(lib.TeeService(backend, lhe, seed=seed), tmp / side.name)
    counted = Side(side.name, lib, session, refine, [])
    first = cfg.conv[0]
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(cfg.n, first.channels, first.input_side,
                              first.input_side)) * 0.2
    labels = rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)
    counted.step(images, labels)
    backend.peak, backend.peak_scope = backend.live, None
    counted.step(images, labels)
    return backend.peak, backend.peak_scope


def load_once(side: Side, wl: str, seed: int, tmp: Path) -> tuple[int, int | None]:
    """One timed set-up of ``side``'s saved session (meter, backend, TEE and
    load): its time in ns, and the resident kB of the mapping that holds its
    first cell right after it."""
    lib = side.lib
    lhe = workload(lib, wl)[1]
    start = time.perf_counter_ns()
    tee = lib.TeeService(lib.SimulatorBackend(lib.OpMeter()), lhe, seed=seed)
    session = lib.RefineSession.load(tee, tmp / side.name)
    elapsed = time.perf_counter_ns() - start
    return elapsed, cells_resident_kb(session)


def cells_resident_kb(session) -> int | None:
    """Resident kB of the mapping that holds ``session``'s first cell: its
    loaded cells file, until a refining round replaces the cells."""
    return mapping_resident_kb(next(iter(session.filters[0].cells.values())).slots)


def model_bytes(side: Side) -> bytes:
    """The bytes of every parameter of ``side``'s decrypted model."""
    model = side.session.decrypted_model()
    return b"".join(array.tobytes() for array in model.filters + model.weights)


def saved_session(directory: Path) -> tuple[bytes, list[str]]:
    """The bytes of the cells file saved in ``directory``, and its manifest's
    lines other than ``cells``."""
    (path,) = directory.glob("cells-*.lhe")
    manifest = (directory / "session.manifest").read_text(encoding="utf-8")
    return path.read_bytes(), [line for line in manifest.splitlines()
                               if not line.startswith("cells = ")]


def compare(a: Side, b: Side) -> dict:
    """The median of the per-pair step time ratios b/a, and the pairs b won."""
    ratios = [tb / ta for ta, tb in zip(a.times_ns, b.times_ns)]
    return {"median_ratio": statistics.median(ratios),
            "b_won": sum(ratio < 1 for ratio in ratios)}


def time_pairs(sides: list[Side], wl: str, pairs: int, warmup: int,
               seed: int) -> tuple[bool, bool]:
    """Time ``warmup + pairs`` pairs of steps on the two sides, the side
    that runs first alternating, and keep the last ``pairs`` times on each
    side; returns whether both revealed the same, and whether both recorded
    the same meter counts, in every pair."""
    cfg = workload(sides[0].lib, wl)[0]
    first = cfg.conv[0]
    rng = np.random.default_rng(seed)
    same = same_counts = True
    for index in range(warmup + pairs):
        images = rng.normal(size=(cfg.n, first.channels, first.input_side,
                                  first.input_side)) * 0.2
        labels = rng.integers(0, cfg.fc[-1].outputs, size=cfg.n)
        order = sides if index % 2 == 0 else sides[::-1]
        (out, counts), (other, other_counts) = (side.step(images, labels) for side in order)
        same &= out == other
        same_counts &= counts == other_counts
        if index < warmup:
            for side in sides:
                side.times_ns.pop()
    return same, same_counts


def run(a_src: Path, b_src: Path, wl: str, pairs: int, warmup: int, seed: int,
        loads: int = 0, bias_check: bool = False) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="ab_steps-"))
    try:
        a_lib = import_tree(a_src, "lhecnn_ab_a")
        same, same_counts, bias = True, True, {}
        if bias_check:
            copy = tmp / "a_copy"
            shutil.copytree(Path(a_src) / "lhecnn", copy / "lhecnn",
                            ignore=shutil.ignore_patterns("__pycache__"))
            twins = [open_side(name, lib, wl, seed, tmp) for name, lib in
                     (("a_twin", a_lib), ("a_copy", import_tree(copy, "lhecnn_ab_a_copy")))]
            same, same_counts = time_pairs(twins, wl, pairs, warmup, seed)
            bias = {f"aa_{key}": value for key, value in compare(*twins).items()}
            del twins
        sides = [open_side(name, lib, wl, seed, tmp) for name, lib in
                 (("a", a_lib), ("b", import_tree(b_src, "lhecnn_ab_b")))]
        loaded = {side.name: [] for side in sides}
        for index in range(loads):
            for side in (sides if index % 2 == 0 else sides[::-1]):
                loaded[side.name].append(load_once(side, wl, seed, tmp))
        outputs, counts = time_pairs(sides, wl, pairs, warmup, seed)
        same, same_counts = same and outputs, same_counts and counts
        peaks = {side.name: peak_buffers(side, wl, seed, tmp) for side in sides}
        same_model, mapped = None, {}
        if sides[0].refine:
            same_model = model_bytes(sides[0]) == model_bytes(sides[1])
        else:
            for side in sides:
                mapped[f"{side.name}_mapped_kb"] = cells_resident_kb(side.session)
                mapped[f"{side.name}_file_kb"] = allocated_kb(tmp / side.name)
        # read last: reading a cells file caches its holes, which the loaded
        # sessions' mappings would then show as resident
        same_save = saved_session(tmp / "a") == saved_session(tmp / "b")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    a_ms, b_ms = ([t / 1e6 for t in side.times_ns] for side in sides)
    load_stats = {}
    for name, runs in loaded.items():
        if runs:
            kbs = [kb for _, kb in runs]
            load_stats[f"{name}_setup_ms"] = statistics.median(ns for ns, _ in runs) / 1e6
            load_stats[f"{name}_load_kb"] = None if None in kbs else max(kbs)
    return {
        "workload": wl,
        "pairs": pairs,
        "a_p50": np.percentile(a_ms, 50), "a_p90": np.percentile(a_ms, 90),
        "b_p50": np.percentile(b_ms, 50), "b_p90": np.percentile(b_ms, 90),
        **compare(*sides),
        "same_outputs": same,
        "same_counts": same_counts,
        "same_model": same_model,
        "same_save": same_save,
        **bias,
        **{f"{side.name}_buffers": side.session.backend.free_buffers for side in sides},
        **{f"{name}_peak": peak for name, peak in peaks.items()},
        **mapped,
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
                        help="timed set-ups (meter, backend, TEE, load) per side, "
                             "before the pairs")
    parser.add_argument("--bias-check", action="store_true",
                        help="first time a against a copy of a's tree, as many pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.warmup < 0 or args.loads < 0:
        parser.error("--pairs must be positive, --warmup and --loads nonnegative")
    r = run(args.a, args.b, args.workload, args.pairs, args.warmup, args.seed, args.loads,
            args.bias_check)
    print(f"{r['workload']}: {r['pairs']} pairs")
    if r["loads"]:
        for name in "ab":
            kb = r[f"{name}_load_kb"]
            print(f"  {name}  setup p50 {r[f'{name}_setup_ms']:.3f} ms over {r['loads']} loads; "
                  f"cells mapping resident after a load {'n/a' if kb is None else f'{kb} kB'}")
        print(f"  b loads faster in {r['loads_b_won']} of {r['loads']} load pairs")
    print(f"  a  p50 {r['a_p50']:.2f} ms  p90 {r['a_p90']:.2f} ms")
    print(f"  b  p50 {r['b_p50']:.2f} ms  p90 {r['b_p90']:.2f} ms")
    for name in "ab":
        buffers = r[f"{name}_buffers"]
        mb = sum(8 * n * count for n, count in buffers.items()) / 2**20
        print(f"  {name}  free buffers {sum(buffers.values())} ({mb:.2f} MB)")
        peak, scope = r[f"{name}_peak"]
        print(f"  {name}  peak pooled buffers {peak}, in scope {scope}")
        if f"{name}_mapped_kb" in r:
            kb, file_kb = r[f"{name}_mapped_kb"], r[f"{name}_file_kb"]
            print(f"  {name}  cells mapping resident after the last pair "
                  f"{'n/a' if kb is None else f'{kb} kB'}; cells file allocated "
                  f"{'n/a' if file_kb is None else f'{file_kb} kB'}")
    print(f"  median ratio b/a {r['median_ratio']:.3f}; b faster in "
          f"{r['b_won']} of {r['pairs']} pairs")
    if "aa_median_ratio" in r:
        print(f"  bias check: median ratio a copy/a {r['aa_median_ratio']:.3f}; the copy "
              f"faster in {r['aa_b_won']} of {r['pairs']} pairs")
    print(f"  same saved session: {'yes' if r['same_save'] else 'NO'}")
    print(f"  same counts in every pair: {'yes' if r['same_counts'] else 'NO'}")
    if r["same_model"] is not None:
        print(f"  same model after the last pair: {'yes' if r['same_model'] else 'NO'}")
    print(f"  same outputs in every pair: {'yes' if r['same_outputs'] else 'NO'}")
    same = r["same_outputs"] and r["same_counts"] and r["same_save"]
    return 0 if same and r["same_model"] is not False else 1


if __name__ == "__main__":
    sys.exit(main())
