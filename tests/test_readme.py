"""The README's library example runs as written on the demo data."""

import re
import runpy
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_snippet_runs_on_demo_data(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    snippets = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(snippets) == 1
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_demo_data.py", "--outdir", "demo"])
    runpy.run_path(str(ROOT / "scripts" / "make_demo_data.py"), run_name="__main__")
    capsys.readouterr()
    exec(compile(snippets[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.strip()
    point = np.array(printed.strip("[]").split(), dtype=float)
    # the demo's quadratic outcome model is y = 4 - 4x + x^2 + e
    np.testing.assert_allclose(point, [4.0, -4.0, 1.0], atol=0.5)
