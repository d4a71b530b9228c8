"""`tools/code_lines.py`, the code-line count that ROADMAP.md and
CHANGES.md quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: the import, the class line, `def`, the two lines of the
# assigned string, the two lines of the call and `return`: 8.
SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# A comment line, then a blank one.


class Thing:
    """A class docstring."""

    def f(self, x):
        """A function docstring
        over two lines."""
        text = """a string that is code
over two lines"""
        "a lone string literal, counted as a docstring"
        os.path.join(text,
                     x)
        return x
'''


def test_a_source_of_known_count(tmp_path):
    assert code_lines.code_lines(SOURCE) == 8
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert list(code_lines.count([str(tmp_path)]).values()) == [8, 1]
