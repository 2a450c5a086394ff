"""The code-line counter of tools/code_lines.py."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is no docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_only(tmp_path):
    """Blank lines, comment lines and the module, class and function
    docstrings do not count; a string that is no docstring counts on
    each of its lines, and so does each line of a bracketed expression."""
    module = tmp_path / "sample.py"
    module.write_text(SAMPLE, encoding="utf-8")
    assert code_lines.code_lines(module) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["3", "total"]]
