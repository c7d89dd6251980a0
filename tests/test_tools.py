"""The repository's code-line counter (``tools/count_code_lines.py``)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"


def _counter():
    spec = importlib.util.spec_from_file_location("count_code_lines", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment line
def f(x):
    """Docstring."""
    text = """a multi-line
    string that is not a docstring"""
    return (math.sqrt(x)
            + len(text))
'''


def test_counts_code_lines_without_blanks_comments_or_docstrings():
    # import, def, the two lines of `text`, the two lines of `return`
    assert _counter().code_lines(SOURCE) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _counter().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "6"], ["b.py", "1"],
                                                ["total", "7"]]
