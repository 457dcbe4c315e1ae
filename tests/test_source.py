"""Checks on the package source itself: every private module-level function
in `src/treehom` has a reader there, so code that only the tests run does
not stay in the package."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treehom"


def _references(node):
    """Every name node reads: plain names, attribute names and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_function_has_a_reader_in_src():
    modules = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    assert len(modules) > 1
    used = Counter(name for m in modules for name in _references(m))
    # a function whose every reference lies in its own definition (recursion,
    # a decorator) has no reader
    unread = sorted(f.name for m in modules for f in m.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and f.name.startswith("_") and not f.name.startswith("__")
                    and used[f.name] == Counter(_references(f))[f.name])
    assert unread == []
