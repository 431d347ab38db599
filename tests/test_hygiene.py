"""Source hygiene: every name a module of sdlab imports is used in that
module.  `__init__.py` is left out, as its imports are the re-exports."""

import ast
from pathlib import Path

import pytest

import sdlab

MODULES = sorted(p for p in Path(sdlab.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name bound by an import in `source` and never
    read there; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "def f():\n"
              "    from .mesh import _per_mesh\n"
              "    return np.zeros(1), dataclass\n")
    assert unused_imports(source) == [(2, "os"), (4, "field"),
                                      (6, "_per_mesh")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
