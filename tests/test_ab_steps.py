"""Smoke run of ``tools/ab_steps.py`` with this tree on both sides."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Appended to a copy of ``backward.py``: every spread cell's first slot one
# ulp larger, which changes one parameter per cell
PERTURB = """

_spread = signed_rotate_spread


def signed_rotate_spread(backend, ct, n, g, acc):
    cell = _spread(backend, ct, n, g, acc)
    slots = cell.slots.copy()
    slots[0] = np.nextafter(slots[0], np.inf)
    return Ciphertext(slots, cell.level, cell.key_id, cell.pending_rescale)
"""

# Appended to a copy of ``lhe.py``: every decryption also records one add,
# which changes the counts of a step and nothing it reveals
EXTRA_COUNT = """

_decrypt = SimulatorBackend.decrypt


def _decrypt_and_count(self, ctx, ct):
    self.meter.record("add", ct.level)
    return _decrypt(self, ctx, ct)


SimulatorBackend.decrypt = _decrypt_and_count
"""

# Appended to a copy of ``lhe.py``: every save writes the last slot of its
# last cell, an exact zero, as -0.0, which changes one slot of the saved
# file and nothing a step reveals or counts
NEGATIVE_ZERO_SAVE = """

_save_cells = SimulatorBackend.save_cells


def _save_one_slot_apart(self, fh, cts):
    cts = list(cts)
    last = cts[-1]
    assert last.slots[-1] == 0
    slots = last.slots.copy()
    slots[-1] = -0.0
    cts[-1] = Ciphertext(slots, last.level, last.key_id, last.pending_rescale)
    return _save_cells(self, fh, cts)


SimulatorBackend.save_cells = _save_one_slot_apart
"""


@pytest.mark.parametrize("workload, pairs", [("infer-cnn12", 3), ("refine-r22", 2)])
def test_both_sides_this_tree(tmp_path, workload, pairs):
    # the same code on both sides reveals the same outputs in every pair,
    # and the sessions' temporary directory is gone at exit
    proc = subprocess.run(
        [sys.executable, "tools/ab_steps.py", "--a", "src", "--b", "src",
         "--workload", workload, "--pairs", str(pairs), "--warmup", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == f"{workload}: {pairs} pairs"
    assert any(line.strip().startswith("a  p50") for line in lines)
    # the same tree ends the same steps with the same free lists, and they
    # are not empty: a step's working set goes back to them
    counts = {line.split()[0]: line.split(None, 1)[1] for line in lines
              if "free buffers" in line}
    assert counts.keys() == {"a", "b"} and counts["a"] == counts["b"]
    count, mb = counts["a"].removeprefix("free buffers ").split(" (")
    slots = {"infer-cnn12": 4096, "refine-r22": 8192}[workload]
    assert int(count) > 0 and mb == f"{8 * slots * int(count) / 2**20:.2f} MB)"
    # each side's peak pooled working set, counted live during a steady
    # step, and the stage it sits in: an inference step keeps no pooled
    # buffer, so its peak is what its free lists hold after it; a refining
    # round's also holds the 260 pooled parameter cells
    peaks = {line.split()[0]: line.split(None, 1)[1] for line in lines
             if "peak pooled buffers" in line}
    assert peaks.keys() == {"a", "b"} and peaks["a"] == peaks["b"]
    want = {"infer-cnn12": f"{count}, in scope FL1",
            "refine-r22": f"{int(count) + 260}, in scope bwd.FL1"}[workload]
    assert peaks["a"] == "peak pooled buffers " + want
    assert f"of {pairs} pairs" in proc.stdout
    assert lines[-1].strip() == "same outputs in every pair: yes"
    # the same tree records the same meter counts in each step of a pair,
    # and saves the same session
    assert [line.strip() for line in lines if "same counts" in line] == [
        "same counts in every pair: yes"]
    assert [line.strip() for line in lines if "same saved session" in line] == [
        "same saved session: yes"]
    # a refining workload also compares the two sides' models after the
    # last pair; inference leaves the model as it was loaded
    model = [line.strip() for line in lines if "same model" in line]
    want = ["same model after the last pair: yes"] if workload == "refine-r22" else []
    assert model == want
    # inference also reads how much of each side's loaded cells file its
    # steps made resident, and beside it how much of the file the
    # filesystem allocated; a round replaces every cell, so refining does not
    mapped = [line.split() for line in lines if "cells mapping resident after the last" in line]
    assert [fields[0] for fields in mapped] == ([] if workload == "refine-r22" else ["a", "b"])
    for fields in mapped:
        resident, allocated = " ".join(fields[8:]).split("; cells file allocated ")
        if Path("/proc/self/smaps").exists():
            assert resident.endswith(" kB") and int(resident.split()[0]) > 0
        else:
            assert resident == "n/a"
        if hasattr(os.stat_result, "st_blocks"):
            assert allocated.endswith(" kB") and int(allocated.split()[0]) > 0
        else:
            assert allocated == "n/a"
    assert list(tmp_path.iterdir()) == []


def test_models_that_differ_fail_the_run(tmp_path):
    # side b's tree adds one ulp to the first slot of every cell the spread
    # makes: the losses still agree (a round's loss precedes its update),
    # and the model comparison is what fails the run
    tree = tmp_path / "b"
    shutil.copytree(ROOT / "src" / "lhecnn", tree / "lhecnn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    backward = tree / "lhecnn" / "backward.py"
    backward.write_text(backward.read_text() + PERTURB)
    proc = subprocess.run(
        [sys.executable, "tools/ab_steps.py", "--a", "src", "--b", str(tree),
         "--workload", "refine-r22", "--pairs", "1", "--warmup", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines[-4:] == ["same saved session: yes",
                          "same counts in every pair: yes",
                          "same model after the last pair: NO",
                          "same outputs in every pair: yes"]
    assert list(tmp_path.iterdir()) == [tree]


def test_counts_that_differ_fail_the_run(tmp_path):
    # side b's tree records one more add per decryption: its outputs agree
    # with side a's, and the count comparison is what fails the run
    tree = tmp_path / "b"
    shutil.copytree(ROOT / "src" / "lhecnn", tree / "lhecnn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    lhe = tree / "lhecnn" / "lhe.py"
    lhe.write_text(lhe.read_text() + EXTRA_COUNT)
    proc = subprocess.run(
        [sys.executable, "tools/ab_steps.py", "--a", "src", "--b", str(tree),
         "--workload", "infer-cnn12", "--pairs", "1", "--warmup", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines[-2:] == ["same counts in every pair: NO",
                          "same outputs in every pair: yes"]
    assert list(tmp_path.iterdir()) == [tree]


def test_saves_that_differ_fail_the_run(tmp_path):
    # side b's tree saves one slot of its cells file apart, a zero written
    # as -0.0: its steps reveal and count the same as side a's, and the
    # comparison of the saved sessions is what fails the run
    tree = tmp_path / "b"
    shutil.copytree(ROOT / "src" / "lhecnn", tree / "lhecnn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    lhe = tree / "lhecnn" / "lhe.py"
    lhe.write_text(lhe.read_text() + NEGATIVE_ZERO_SAVE)
    proc = subprocess.run(
        [sys.executable, "tools/ab_steps.py", "--a", "src", "--b", str(tree),
         "--workload", "infer-cnn12", "--pairs", "1", "--warmup", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert lines[-3:] == ["same saved session: NO",
                          "same counts in every pair: yes",
                          "same outputs in every pair: yes"]
    assert list(tmp_path.iterdir()) == [tree]


def test_loads_time_each_side_and_read_no_slot(tmp_path):
    # --loads times that many set-ups (meter, backend, TEE and load) per
    # side before the pairs; this tree's load leaves the cells file's
    # mapping with nothing resident
    proc = subprocess.run(
        [sys.executable, "tools/ab_steps.py", "--a", "src", "--b", "src",
         "--workload", "infer-cnn12", "--pairs", "1", "--warmup", "0", "--loads", "4"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    loads = [line.split() for line in proc.stdout.splitlines() if "setup p50" in line]
    assert [fields[0] for fields in loads] == ["a", "b"]
    resident = "0 kB" if Path("/proc/self/smaps").exists() else "n/a"
    for fields in loads:
        assert float(fields[3]) > 0 and fields[5:8] == ["over", "4", "loads;"]
        assert " ".join(fields[-2:]).endswith(resident)
    assert "b loads faster in" in proc.stdout and "of 4 load pairs" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_bias_check_times_a_against_a_copy_first(tmp_path):
    # --bias-check first times side a against a copy of its tree and prints
    # that ratio and the copy's wins beside the a/b ones; the copy goes with
    # the sessions' temporary directory
    proc = subprocess.run(
        [sys.executable, "tools/ab_steps.py", "--a", "src", "--b", "src",
         "--workload", "infer-cnn12", "--pairs", "2", "--warmup", "0", "--bias-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = [line.strip() for line in proc.stdout.splitlines()]
    ratio = next(k for k, line in enumerate(lines) if line.startswith("median ratio b/a"))
    fields = lines[ratio + 1].split()
    assert fields[:5] == ["bias", "check:", "median", "ratio", "a"]
    assert float(fields[6].rstrip(";")) > 0
    assert lines[ratio + 1].endswith("of 2 pairs")
    assert sum("free buffers" in line for line in lines) == 2
    assert lines[-1] == "same outputs in every pair: yes"
    assert list(tmp_path.iterdir()) == []
