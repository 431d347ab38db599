"""Source hygiene: every name a module of sdlab imports is used in that
module (`__init__.py` is left out, as its imports are the re-exports),
every parameter of a function is read by it, no module but mesh
switches on the boundary layout, and every function that the traced
benchmark wraps still exists."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import sdlab
from sdlab.assembly import PhysParams, assemble_system
from sdlab.mesh import BcConfig, build_coupled_mesh, stacked_domain, tag_boundaries
from sdlab.precond import build_preconditioner

SOURCES = sorted(Path(sdlab.__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unused_parameters(source):
    """(line, function, name) of each parameter of a function or lambda in
    `source` that its body never reads.  A name that starts with "_" says
    the parameter is there for a callback's signature only."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), a.arg)
                  for a in params
                  if a.arg not in read and not a.arg.startswith("_")]
    return sorted(found)


def test_checker_finds_unused_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def g(d):\n"
              "        return a + c\n"
              "    b = 2\n"
              "    return g, lambda x, _y, z: x, kw\n"
              "class C:\n"
              "    def m(self, e):\n"
              "        return e\n")
    assert unused_parameters(source) == [(1, "f", "args"), (1, "f", "b"),
                                         (2, "g", "d"),
                                         (5, "<lambda>", "z"),
                                         (7, "m", "self")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def layout_switches(source):
    """(line, member) of each `BcConfig.<member>`, or its `.value`, that
    `source` compares against (`is`, `==`, `in` and their negations; a
    member in a tuple, list or set compared against counts) or keys a dict
    literal by.  Passing a member as an argument is no switch."""
    def members(node):
        items = (node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set))
                 else [node])
        for n in items:
            if isinstance(n, ast.Attribute) and n.attr == "value":
                n = n.value
            if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id == "BcConfig"):
                yield n.attr

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Dict):
            operands = [k for k in node.keys if k is not None]
        else:
            continue
        found += [(node.lineno, m) for op in operands for m in members(op)]
    return sorted(found)


def test_checker_finds_layout_switches():
    source = ("def f(config, mesh, table):\n"
              "    if config is BcConfig.MULTI:\n"
              "        return 1\n"
              "    key = 1 if config in (BcConfig.EE, BcConfig.NE) else 2\n"
              "    names = [c for c in BcConfig if c is not BcConfig.MULTI]\n"
              "    rows = {BcConfig.NN: 1, 'x': 2, **table}\n"
              "    same = mesh.config.value != BcConfig.EN.value\n"
              "    tag_boundaries(mesh, BcConfig.MULTI)\n"
              "    return key, names, rows, same, BcConfig.NE.value\n"
              "def g(config=BcConfig.NESTAR):\n"
              "    return config == 'NN'\n")
    assert layout_switches(source) == [(2, "MULTI"), (4, "EE"), (4, "NE"),
                                       (5, "MULTI"), (6, "NN"), (7, "EN")]


# mesh.LAYOUTS is the one place that decides per layout
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "mesh.py"],
                         ids=lambda p: p.name)
def test_no_layout_switches(path):
    assert layout_switches(path.read_text()) == []


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, loaded from its path without
    writing a bytecode cache next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# the traced benchmark reads a per-layer metric as null when a function it
# wraps is gone, and its result line then fails the traced checks
def test_every_traced_hook_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_preconditioner_exposes_its_factors():
    # precond.lu_fill is counted from BlockPreconditioner._solvers
    mesh = tag_boundaries(build_coupled_mesh(stacked_domain(2), 0),
                          BcConfig.EN)
    system = assemble_system(mesh, PhysParams(mu=1.0, K=1.0))
    solvers = build_preconditioner(system)._solvers
    assert solvers
    for lu in solvers.values():
        assert lu.L.nnz > 0 and lu.U.nnz > 0
