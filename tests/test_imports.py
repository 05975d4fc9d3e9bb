"""Every import in the package is used, every definition is read, and the
tracers keep no row maths of their own.

A name bound by an import must be read somewhere in its module, or listed
in the module's `__all__`.  An import kept only for other modules to find
(a re-export) says so with `# noqa: F401` on one of its lines.

The two tracers, tracer.py and render.py, reach the hit tests and the
per-row dots and norms only through geometry.py and elements.py (the
shared nearest-hit search and the row normalizations): neither module may
use np.einsum, np.vecdot, np.linalg.norm, plane_hits or sphere_cap_hits,
nor plane_facing.  The plane test's former stages, plane_distances and
crossing_points, are folded into plane_hits and gone, but their names stay
forbidden.  plane_crossings stays allowed: it is plane_hits on an unbounded
plane, and the spot diagram's plane is no surface.
They reach an element's physics only through the interaction table
(`elements.leave`): neither may use refract_thin_lens,
reflect_convex_mirror, plate_exit, classify_plate_modes or double_band.
Neither may name ConvexMirror or curved_cap either: the search alone
decides which element a ray may hit next, a curved cap included, so the
walkers hand it the element just left whatever its kind.

Every function, class and method (dunder methods aside) of the package is
read somewhere in the package outside its own definition: called, looked
up as an attribute, or imported (a re-export counts).  A definition that
only tests read is dead code.  The few that only callers outside the
package read are listed, each with its reason, and the list must match
what the check finds, so it cannot go stale.  The check goes by name.  A
method counts as read only by an attribute or an import of its name, so a
local variable of that name does not hide it, but it counts as read
wherever any attribute of its name is read.

Importing the command line and the renderer loads neither multiprocessing
nor concurrent.futures: together they add about 20 ms to every start-up.
"""
import ast
import os
import subprocess
import sys
from collections import Counter
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
            or name.rsplit(".", 1)[-1] in (
                "plane_hits", "sphere_cap_hits", "plane_facing",
                "plane_distances", "crossing_points", "refract_thin_lens",
                "reflect_convex_mirror", "plate_exit", "classify_plate_modes",
                "double_band", "ConvexMirror", "curved_cap"))


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
              "y = np.dot(x, x) + np.linalg.det(m)\n"
              "out = elements.plate_exit(plate, p, u, v, local, 0)\n"
              "from .geometry import plane_crossings, plane_facing\n"
              "t, ahead = geometry.plane_distances(o, pose, facing, t)\n"
              "spot = plane_crossings(o, d, pose)\n"
              "hits = crossing_points(o, d, pose, t, ahead)\n"
              "from .elements import ConvexMirror, Screen\n"
              "left = -1 if elements.curved_cap(el) else k\n")
    assert forbidden_uses(source) == [
        ("sphere_cap_hits", 2), ("np.linalg.norm", 3), ("np.einsum", 4),
        ("geometry.plane_hits", 5), ("elements.plate_exit", 7),
        ("plane_facing", 8), ("geometry.plane_distances", 9),
        ("crossing_points", 11), ("ConvexMirror", 12),
        ("elements.curved_cap", 13)]


# Definitions that nothing in the package reads, kept for callers outside it.
OUTSIDE_CALLERS = {
    "geometry.reflect": "the acceptance module's involution checks",
    "geometry.Pose.to_world_point": "the acceptance module places poses",
    "geometry.Pose.to_world_dir": "the acceptance module places poses",
    "tracer.TracePath.walk": "the acceptance module and perfbench walk "
                             "path trees",
}


def _reads(tree, method=False):
    """Every name the tree reads: loaded names (unless `method`) and
    attributes, and the names an import takes from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not method:
                yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _definitions(body, prefix, in_class=False):
    """(qualified name, node, whether it is a method) of the functions and
    classes of a module or class body, and of the non-dunder methods of
    each class."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        name = f"{prefix}.{node.name}"
        if not (node.name.startswith("__") and node.name.endswith("__")):
            yield name, node, in_class
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node.body, name, True)


def unread_definitions(sources: dict) -> list:
    """Qualified names of the definitions in `sources` (module name ->
    source text) that no code outside their own definition reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = {method: Counter(name for tree in trees.values()
                             for name in _reads(tree, method))
             for method in (False, True)}
    unread = []
    for module, tree in trees.items():
        for qualified, node, method in _definitions(tree.body, module):
            own = Counter(_reads(node, method))[node.name]  # recursion, self.name
            if reads[method][node.name] == own:
                unread.append(qualified)
    return sorted(unread)


def test_every_definition_is_read_in_the_package():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_definitions(sources) == sorted(OUTSIDE_CALLERS)


def test_the_check_sees_an_unread_definition():
    sources = {
        "a": ("def used():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Box:\n"
              "    def __len__(self):\n        return 0\n"
              "    def shown(self):\n        return self.hidden\n"
              "    @property\n    def hidden(self):\n        return 2\n"
              "    def lonely(self):\n        return 3\n"
              "    def hidden_by_a_local(self):\n        return 4\n"
              "def shadow(x):\n"
              "    hidden_by_a_local = x\n    return hidden_by_a_local\n"),
        "b": "from a import used, Box, shadow\n",
    }
    assert unread_definitions(sources) == ["a.Box.hidden_by_a_local",
                                           "a.Box.lonely", "a.Box.shown",
                                           "a.recursive"]


def test_start_up_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, tmdsim.cli, tmdsim.render\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
