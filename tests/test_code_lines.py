"""scripts/code_lines.py counts code lines as ROADMAP and CHANGES.md quote them."""

import runpy
from pathlib import Path

script = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"))

SAMPLE = '''"""Module docstring
over two lines."""

import os  # a line with code and a comment counts

# a comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring
spans two lines"""

    def f(self, a,
          b):
        """Function
        docstring."""
        return (a +
                b)
'''


def test_counts_code_lines_and_skips_blanks_comments_and_docstrings():
    # import, class, the two lines of x, the two of the def, the two of the return
    assert script["code_lines"](SAMPLE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n\ny = 2\n")
    assert script["main"]([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"8 {tmp_path / 'pkg' / 'a.py'}", f"2 {tmp_path / 'pkg' / 'b.py'}", "10 total"]
