"""List the statements of the ``promptsearch`` package that no test reaches.

    python tools/unreached.py [PYTEST_ARGS ...]

Imports the package from the ``src/`` next to this script (which it also
puts first on ``PYTHONPATH``, for the tests' child processes), then runs
pytest in this process (on that checkout's ``tests`` when no argument is
given) under a line tracer (``sys.settrace``) that records the lines run in
the package's files only.  Then it prints each statement inside a function
body that no line of it ran, as ``<path>:<line>: <text of its first line>``
(the path relative to the repository root), in file and line order, and
then their number.

A simple statement is reached when any of its lines ran; a compound one
(``if``, ``for``, ``with``, a nested ``def`` ...) when any line of its header,
decorators included, ran.  An ``except`` or ``case`` line is not listed itself;
the statements under it are.  Docstrings and ``global``/``nonlocal``
statements run no code and are not listed.

Exits with pytest's exit code when pytest fails, 1 when a statement goes
unreached, and 0 otherwise.

What it cannot see:

- Module-level code (imports, constants, class bodies, the ``def`` lines of
  module functions and methods) runs when the package is imported, before
  tracing starts.  It is never listed, whether a test needs it or not.
- Code that runs only in child processes (the workers of ``tune --jobs N``,
  a demo or the CLI run as a subprocess) is not traced, so a statement that
  only a child process reaches is listed as unreached.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _statements(body):
    """The statements of a block and of the blocks nested in it, except the
    bodies of nested functions, which are functions of their own."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for name in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, name, ()):
                yield from _statements([child] if isinstance(child, ast.stmt)
                                       else child.body)


def _own_lines(node) -> range:
    """The lines whose running means the statement ran."""
    if not isinstance(getattr(node, "body", None), list):
        return range(node.lineno, node.end_lineno + 1)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, max(start, node.body[0].lineno - 1) + 1)


def function_statements(source: str) -> list[tuple[int, range]]:
    """``(first line, own lines)`` of each statement inside a function body."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _statements(fn.body):
            if isinstance(node, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            lines = _own_lines(node)
            out.append((lines[0], lines))
    return sorted(out, key=lambda item: item[0])


def run_traced(package: Path, call):
    """``call()``'s result and the ``(file, line)`` pairs of ``package``'s
    files that ran while it ran.  The tracer in place before, if any (an
    outer run of this one), is put back afterwards."""
    prefix = os.path.join(package, "")
    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    outer = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        return call(), ran
    finally:
        sys.settrace(outer)


def print_unreached(package: Path, ran: set[tuple[str, int]]) -> int:
    """Print each function statement of ``package`` that no line of ``ran``
    reaches, then their number; return that number."""
    count = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source_lines = text.splitlines()
        for first, lines in function_statements(text):
            if not any((str(path), line) in ran for line in lines):
                count += 1
                print(f"{path.relative_to(_ROOT)}:{first}: {source_lines[first - 1].strip()}")
    print(f"{count} unreached statements")
    return count


def main(argv: list[str]) -> int:
    src = str(_ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    import promptsearch
    import pytest

    package = Path(promptsearch.__file__).parent
    code, ran = run_traced(package, lambda: pytest.main(argv or [str(_ROOT / "tests")]))
    count = print_unreached(package, ran)
    return int(code) or (1 if count else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
