"""Count the code lines of the ``promptsearch`` package.

A code line is a line that holds at least one token other than a comment and
is not part of a docstring (of a module, class or function).  Blank lines,
comment lines and docstrings are left out; a multi-line expression counts
every line it spans.  Prints one line per module and the package total:

    python tools/count_code_lines.py [PACKAGE_DIR ...]

``PACKAGE_DIR`` defaults to ``src/promptsearch`` next to this script.  Given
several directories (say a parent checkout's package and a change's), each
line holds one count per directory, in the order given, and then each later
directory's change from the first; a module missing from a directory counts
0 lines there.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def module_lines(root: Path) -> dict[str, int]:
    """Code lines of each module directly under ``root``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [
        Path(__file__).parent.parent / "src" / "promptsearch"]
    counts = [module_lines(root) for root in roots]
    rows = [(name, [c.get(name, 0) for c in counts])
            for name in sorted(set().union(*counts))]
    rows.append(("total", [sum(c.values()) for c in counts]))
    for name, ns in rows:
        changes = "".join(f" {n - ns[0]:>+6}" for n in ns[1:])
        print(f"{name:<16}" + "".join(f" {n:>5}" for n in ns) + changes)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
