"""``tools/src_lines.py`` on a small fixture source whose counts are known."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring
on two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        # only a comment
        return os.sep


async def g():
    """Function docstring."""
'''


def test_counts_docstring_code_and_physical_lines():
    # docstrings: lines 1-2, 8 and 19; code: 4, 7, 10-11, 13, 15 and 18
    assert src_lines.count(SOURCE) == (7, 4, 19)


def test_prints_the_sums_over_the_files_of_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# a comment\n")
    (tmp_path / "notes.txt").write_text("not Python\n")
    src_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == "code 8 docstring 4 total 22\n"
