"""Every import in the package is used, and the tracers keep no row maths
of their own.

A name bound by an import must be read somewhere in its module, or listed
in the module's `__all__`.  An import kept only for other modules to find
(a re-export) says so with `# noqa: F401` on one of its lines.

The two tracers, tracer.py and render.py, reach the hit tests and the
per-row dots and norms only through geometry.py and elements.py (the
shared nearest-hit search and each tracer's rounding): neither module may
use np.einsum, np.vecdot, np.linalg.norm, plane_hits or sphere_cap_hits.
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


TRACERS = [PACKAGE / "tracer.py", PACKAGE / "render.py"]


def _dotted(node):
    """`a.b.c` for a name or an attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _forbidden(name):
    return (name in ("np.einsum", "np.vecdot", "np.linalg.norm")
            or name.rsplit(".", 1)[-1] in ("plane_hits", "sphere_cap_hits"))


def forbidden_uses(source: str) -> list:
    """(name, line) of every import or use of a name a tracer may not use,
    in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [_dotted(node)]
        found += [(name, node.lineno) for name in names
                  if name and _forbidden(name)]
    return sorted(found, key=lambda use: use[1])


@pytest.mark.parametrize("path", TRACERS, ids=lambda p: p.name)
def test_tracers_keep_no_row_maths_of_their_own(path):
    assert forbidden_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_forbidden_use():
    source = ("import numpy as np\n"
              "from .elements import sphere_cap_hits as cap\n"
              "n = np.linalg.norm(x, axis=1)\n"
              "dot = np.einsum\n"
              "hits = geometry.plane_hits(o, d, pose, extent)\n"
              "y = np.dot(x, x) + np.linalg.det(m)\n")
    assert forbidden_uses(source) == [
        ("sphere_cap_hits", 2), ("np.linalg.norm", 3), ("np.einsum", 4),
        ("geometry.plane_hits", 5)]
