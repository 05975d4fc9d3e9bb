"""Every import in the package is used.

A name bound by an import must be read somewhere in its module, or listed
in the module's `__all__`.  An import kept only for other modules to find
(a re-export) says so with `# noqa: F401` on one of its lines.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tmdsim"
MODULES = sorted(PACKAGE.glob("*.py"))


def _bound_names(tree, lines):
    """(name, line) of every name an import binds, re-exports excluded."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in lines[i - 1]
               for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _bound_names(tree, source.splitlines())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "from math import (pi,  # noqa: F401\n"
              "                  tau)\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(os.sep)\n")
    assert unused_imports(source) == [("dumps", 5)]
