"""The repository's tooling: the code-line counter
(``tools/count_code_lines.py``) and the pytest settings in ``pyproject.toml``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "count_code_lines.py"


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


def test_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """Warnings fail the suite, but Hypothesis's failure report must not."""
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in output and "INTERNALERROR" not in output, output
