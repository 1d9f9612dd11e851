"""What tools/code_lines.py counts: the tool the simplicity gates are judged by."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_docstrings_blank_and_comment_lines_are_not_counted():
    source = '''"""A module docstring
over two lines."""

# a comment-only line
class A:
    """A class docstring."""

    def f(self):
        """A function docstring
        over two lines."""
        return 1  # a trailing comment


async def g():
    """An async function docstring."""
    return 2
'''
    # class A, def f, return 1, async def g, return 2
    assert code_lines.code_lines(source) == 5


def test_a_string_that_is_not_a_docstring_is_counted():
    source = '''x = 1
"""a string expression after the first statement"""


def f():
    y = 2
    "not the body's first statement"
    return y
'''
    assert code_lines.code_lines(source) == 6


def test_a_statement_over_several_lines_counts_each_line():
    source = "total = (\n    1\n    + 2\n)\n"
    assert code_lines.code_lines(source) == 4


def test_the_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""doc"""\nx = 1\ny = 2\n')
    (tmp_path / "b.py").write_text("# comment\n\nz = 3\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "2"], ["b.py", "1"], ["total", "3"]]
