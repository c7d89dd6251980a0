"""The demos import only names the package still defines, and each one runs
to its end."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_every_imported_promptsearch_name_exists(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("promptsearch"):
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}: {node.module} lacks {missing}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("promptsearch"):
                    importlib.import_module(alias.name)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(path, tmp_path):
    """Every demo runs to its end from an empty directory; demo 01 exits
    non-zero when its analytic gradient and its finite difference disagree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    if path.name == "01_reference_model.py":
        assert "finite difference" in run.stdout
