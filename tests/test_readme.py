"""The README's library quick tour runs as written, so a renamed or deleted
public name fails here instead of leaving the docs stale."""

import re
from fractions import Fraction as F
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["ShapleyProtocol"]().shares(ns["jam"], 0b11) == (F(3, 4), F(3, 4))
    assert ns["potential"](ns["game"], (0, 0)) == F(3, 4)
    report = ns["report"]
    assert report.pne == ((0, 0),)
    assert report.pos == F(3, 2)
    assert report.potentials == (F(3, 4),)
