"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_sketch_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
    # the last line prints the losses, then the round's re-encryptions
    assert int(capsys.readouterr().out.splitlines()[-1].rsplit(" ", 1)[1]) > 0
    assert (tmp_path / "model_dir" / "session.manifest").is_file()
