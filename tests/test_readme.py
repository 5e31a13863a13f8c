"""The README's Library example runs as written and makes the golden pick."""

from __future__ import annotations

import shutil
from pathlib import Path

from helpers import FIXTURE

README = Path(__file__).parent.parent / "README.md"


def _library_example() -> str:
    """The first ``python`` block under ``## Library``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_recommends_the_golden_node(tmp_path, monkeypatch, capsys):
    shutil.copyfile(FIXTURE, tmp_path / "follows.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_example(), str(README), "exec"), {})
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("1 ")  # golden/recommendation.json picks node 1
