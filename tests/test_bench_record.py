"""``tools/bench_record.py``: parsing perfbench's printed lines, and one
short recorded run."""

import importlib.util
import json
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


def test_a_short_run_writes_its_record_with_the_pins(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/bench_record.py", "--workload", "infer-cnn12",
         "--seconds", "1", "--seed", "2", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert [path.name for path in tmp_path.iterdir()] == ["BENCH_infer-cnn12.json"]
    data = json.loads((tmp_path / "BENCH_infer-cnn12.json").read_text())
    assert (data["workload"], data["seed"], data["seconds"], data["correct"]) == (
        "infer-cnn12", 2, 1, True)
    assert len(data["git_head"]) == 40 and len(data["src_sha256"]) == 64
    assert data["metrics"]["timed_steps"]["value"] >= 1
    assert data["metrics"]["tee_bytes_per_step"]["value"] == data["pins"]["bytes_in"]
    assert data["pins"]["ops"] == [831, 584, 384, 0]
    assert data["pins"]["modelled_us"] == 10_030_337.0
