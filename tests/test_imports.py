"""Every name a package module, test or demo imports is read by that
file, every private package name is read, and the oracles import no
kernel.

No linter runs in the test command, so this is the unused-import check:
it parses each ``src/pillardet/*.py`` module (``__init__.py``, whose
imports are the public API, is skipped), ``tests/*.py`` and
``demos/*.py``, and fails on any imported name the file never reads. A
deliberate re-export carries ``# noqa: F401`` on the line of the name it
keeps.

Every module-level private name of ``src/pillardet/*.py`` (a ``_name``
bound by ``def``, ``class`` or assignment) is read by some package module,
as a load, an attribute or an import, so no helper outlives its last use.

The brute-force references in ``oracles.py`` stay structurally
independent of the code they check: that module may import only
``__future__``, ``math``, ``numpy`` and the data classes ``Box3D``,
``RotatedRect2D`` and ``GridSpec``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pillardet"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py")))
ORACLE_MODULES = {"__future__", "math", "numpy"}
DATA_CLASSES = {"Box3D", "RotatedRect2D", "GridSpec"}


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((alias.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_name_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import (pi,\n"
              "                  tau)\n"
              "from json import dumps  # noqa: F401\n"
              "print(sys.argv, pi)\n")
    assert unused_imports(source) == ["2: os", "4: tau"]


def private_names(source: str) -> set[str]:
    """The private names ``source`` binds at module level: ``_name``s
    defined by ``def``, ``class`` or assignment (dunders are not private)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def names_read(source: str) -> set[str]:
    """Every name ``source`` loads, reads as an attribute or imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` of each module-level private name of ``sources``
    (module name -> source) that none of them reads."""
    read = set().union(*map(names_read, sources.values()))
    return sorted(f"{module}: {name}" for module, source in sources.items()
                  for name in private_names(source) if name not in read)


def test_every_private_name_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_check_finds_an_unread_private_name():
    sources = {
        "a": ("_LIMIT = 4\n"
              "_helper = None\n"
              "def _used(x):\n"
              "    return x\n"
              "def _helper(x):\n"
              "    return x + _LIMIT\n"
              "class _Kept:\n"
              "    _helper = 1\n"
              "__all__ = []\n"),
        "b": ("from .a import _used\n"
              "import a\n"
              "print(_used(1), a._Kept)\n"),
    }
    assert unread_private_names(sources) == ["a: _helper"]


def kernel_imports(source: str) -> list[str]:
    """``line: name`` of each import in ``source`` that is neither a module
    in ``ORACLE_MODULES`` nor a name in ``DATA_CLASSES``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(a.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] not in ORACLE_MODULES]
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] not in ORACLE_MODULES):
            found += [(a.lineno, a.name) for a in node.names
                      if a.name not in DATA_CLASSES]
    return [f"{line}: {name}" for line, name in found]


def test_oracles_import_no_kernel():
    assert kernel_imports((PACKAGE / "oracles.py").read_text()) == []


def test_check_finds_a_kernel_import_and_passes_data_classes():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import numpy as np\n"
              "from .grid import deconv2x2\n"
              "import pillardet.fpn\n"
              "from .geometry import (RotatedRect2D,\n"
              "                       iou_3d)\n")
    assert kernel_imports(source) == [
        "4: deconv2x2", "5: pillardet.fpn", "7: iou_3d"]
