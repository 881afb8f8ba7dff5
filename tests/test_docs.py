"""The documentation runs and points at what exists.

README's Python blocks are executed as they stand, and every Sphinx role
in a docstring or ``#:`` comment of ``src/viscosplit`` names an object
that is there, so a rule stated once and pointed at from elsewhere
keeps its pointers.
"""
import ast
import contextlib
import functools
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "viscosplit"

PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
ROLE = re.compile(r":(func|data|class|meth|attr|mod|exc):`~?([^`]+)`")


def readme_blocks():
    return PYTHON_BLOCK.findall((ROOT / "README.md").read_text())


def test_readme_python_blocks_run():
    blocks = readme_blocks()
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        printed.append(out.getvalue().splitlines())
    assert printed[0][0] == "tolerance 21"
    assert "FAIL forward inverse_strongly_monotone (alpha=1)" in printed[1]


def resolves(module, classes, role, target):
    """Whether the role's ``target`` names an object: under ``viscosplit.``
    when qualified, else in ``module``, and for a method or an attribute
    in the enclosing ``classes`` (innermost first) before that."""
    target = target.removesuffix("()")
    if target.startswith("viscosplit"):
        parts = target.split(".")
        for k in range(len(parts), 0, -1):
            try:
                base = importlib.import_module(".".join(parts[:k]))
            except ImportError:
                continue
            scopes, target = [base], ".".join(parts[k:])
            break
    else:
        scopes = [module]
        if role in ("meth", "attr"):
            scopes = [getattr(module, c) for c in classes] + scopes
    for scope in scopes:
        try:
            functools.reduce(getattr, filter(None, target.split(".")), scope)
        except AttributeError:
            continue
        return True
    return False


def references(path):
    """(line, role, target, enclosing class names) of each role in the
    file at ``path``."""
    source = path.read_text()
    classes = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    found = []
    for match in ROLE.finditer(source):
        line = source.count("\n", 0, match.start()) + 1
        inside = sorted((c for c in classes
                         if c.lineno <= line <= c.end_lineno),
                        key=lambda c: -c.lineno)
        found.append((line, *match.groups(), [c.name for c in inside]))
    return found


@pytest.mark.parametrize("path", sorted(SOURCES.glob("*.py")),
                         ids=lambda path: path.name)
def test_docstring_cross_references_resolve(path):
    module = importlib.import_module(f"viscosplit.{path.stem}"
                                     if path.stem != "__init__"
                                     else "viscosplit")
    dangling = [f"{path.name}:{line} :{role}:`{target}`"
                for line, role, target, classes in references(path)
                if not resolves(module, classes, role, target)]
    assert dangling == []


def test_cross_references_are_found_and_checked():
    found = [ref for path in sorted(SOURCES.glob("*.py"))
             for ref in references(path)]
    assert len(found) > 100
    solvers = importlib.import_module("viscosplit.solvers")
    assert resolves(solvers, [], "func", "_step")
    assert resolves(solvers, ["Trajectory"], "meth", "rows")
    assert resolves(solvers, [], "attr",
                    "viscosplit.setvalued.MultiMap.demi_constant")
    assert not resolves(solvers, [], "func", "_no_such_step")
    assert not resolves(solvers, [], "meth", "rows")
    assert not resolves(solvers, [], "class", "viscosplit.hilbert.Missing")
