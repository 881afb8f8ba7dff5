"""Count code lines in ``src/viscosplit/*.py``.

A code line is a non-blank line that is neither a whole-line comment nor
part of a docstring (the first statement of a module, class or function
when it is a string literal, found with ``ast``).  Prints one count per
module and the total.

Usage:

    python3 tools/code_lines.py
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "viscosplit"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), start=1)
               if n not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(SOURCES.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
