"""Checks on the package source itself: every private module-level function,
class and assigned name in `src/treehom` has a reader there, so code that
only the tests run does not stay in the package; and importing the CLI
loads no standard module that its commands do not need."""

import ast
import os
import subprocess
import sys
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


def _private_definitions(module):
    """(name, node) for each private function, class and assigned name at
    the module's top level, node the statement that defines it."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unread(kinds):
    """The private top-level names defined by statements of the given kinds
    that nothing in the package reads. A name whose every reference lies in
    its own definition (recursion, a decorator, the assignment's own target)
    has no reader."""
    modules = [ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))]
    assert len(modules) > 1
    used = Counter(name for m in modules for name in _references(m))
    return sorted(name for m in modules for name, node in _private_definitions(m)
                  if isinstance(node, kinds) and used[name] == Counter(_references(node))[name])


def test_every_private_function_has_a_reader_in_src():
    assert _unread((ast.FunctionDef, ast.AsyncFunctionDef)) == []


def test_every_private_class_and_assigned_name_has_a_reader_in_src():
    # the records' shapes, module tables and caches, the CLI's argument tuples
    assert _unread((ast.ClassDef, ast.Assign, ast.AnnAssign)) == []


def test_no_module_imports_typing():
    # annotations are never evaluated (`from __future__ import annotations`),
    # so builtin generics, `X | None` and `collections.abc` name every type
    found = set()
    for p in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if (isinstance(node, ast.Import) and any(a.name == "typing" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "typing"
                    or isinstance(node, ast.Name) and node.id in ("Optional", "Union", "TYPE_CHECKING")):
                found.add(p.stem)
    assert sorted(found) == []


def test_cli_import_loads_no_unneeded_standard_module():
    # -S keeps site hooks from loading (and so hiding) these modules
    unneeded = ["typing", "re", "enum", "dataclasses", "fractions", "decimal", "argparse"]
    code = f"import sys, treehom.cli; print(sorted(set({unneeded!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout == "[]\n"
