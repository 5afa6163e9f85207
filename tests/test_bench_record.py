"""``tools/bench_record.py``: parsing perfbench's printed lines, and one
short recorded run."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

CANNED = """\
infer-r22-wide: seed 1, 25 s, trace 0
  step_ms_p90                                 20.6512 ms
  setup_s                                  0.00093112 s
  peak_rss_mb                                 98.9023 MB
  step_ms_p50                                 17.6043 ms
  images_per_s                                7012.35 1/s
  modelled_he_s                               10.0452 model-s
  tee_bytes_per_step                           262160 B
  failed_share                                      0 1
  timed_steps                                    1391 count
  host.spin_ms                                35.0123 ms
{"correct": true, "attempted": 1396, "failed": 0, "metrics": {"step_ms_p90": \
{"value": 20.651234, "unit": "ms"}, "setup_s": {"value": 0.000931121, "unit": "s"}, \
"peak_rss_mb": {"value": 98.90234375, "unit": "MB"}}}
"""


def test_parse_reads_every_metric_line_and_the_result_line():
    run = bench_record.parse(CANNED)
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 1396, 0)
    metrics = run["metrics"]
    assert list(metrics) == ["step_ms_p90", "setup_s", "peak_rss_mb", "step_ms_p50",
                             "images_per_s", "modelled_he_s", "tee_bytes_per_step",
                             "failed_share", "timed_steps", "host.spin_ms"]
    # the result line's full-precision values replace the printed ones
    assert metrics["step_ms_p90"] == {"value": 20.651234, "unit": "ms"}
    assert metrics["peak_rss_mb"] == {"value": 98.90234375, "unit": "MB"}
    assert metrics["timed_steps"] == {"value": 1391.0, "unit": "count"}
    assert metrics["modelled_he_s"] == {"value": 10.0452, "unit": "model-s"}
    assert metrics["host.spin_ms"]["value"] == 35.0123


@pytest.mark.parametrize("edit, match", [
    (lambda text: "\n".join(text.splitlines()[:-1]), "no result line"),
    (lambda text: text.replace("  setup_s", "  timed_steps"), "printed twice"),
], ids=["no-result", "twice"])
def test_parse_rejects_a_run_it_cannot_read(edit, match):
    with pytest.raises(ValueError, match=match):
        bench_record.parse(edit(CANNED))


def short_run(root: Path, out: Path, **env) -> dict:
    """The record a one-second infer-cnn12 run of ``root``'s tool writes."""
    proc = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--workload", "infer-cnn12",
         "--seconds", "1", "--seed", "2", "--out", str(out)],
        cwd=root, capture_output=True, text=True, timeout=300, env={**os.environ, **env})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert [path.name for path in out.iterdir()] == ["BENCH_infer-cnn12.json"]
    return json.loads((out / "BENCH_infer-cnn12.json").read_text())


def test_a_short_run_writes_its_record_with_the_pins(tmp_path):
    data = short_run(ROOT, tmp_path)
    assert (data["workload"], data["seed"], data["seconds"], data["correct"]) == (
        "infer-cnn12", 2, 1, True)
    assert data["git_head"] == bench_record.git("rev-parse", "HEAD")
    assert len(data["src_sha256"]) == 64
    assert data["metrics"]["timed_steps"]["value"] >= 1
    assert data["metrics"]["tee_bytes_per_step"]["value"] == data["pins"]["bytes_in"]
    assert data["pins"]["ops"] == [831, 584, 384, 0]
    assert data["pins"]["modelled_us"] == 10_030_337.0


def test_a_tree_outside_a_git_checkout_records_no_head(tmp_path):
    # a copy of the tree with no .git above it: git finds no repository
    copy, out = tmp_path / "tree", tmp_path / "out"
    for part in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    out.mkdir()
    data = short_run(copy, out, GIT_CEILING_DIRECTORIES=str(tmp_path))
    assert (data["git_head"], data["git_dirty"], data["correct"]) == (None, None, True)
    assert data["src_sha256"] == bench_record.src_digest()
