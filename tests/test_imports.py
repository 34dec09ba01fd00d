"""No module of the package, and no test oracle, keeps an import it does not use,
and the package imports no module that it does not declare.

An import counts as used when a name it binds appears in the module's
code, or as a string literal in an `__all__` assignment (the package
builds its list with `sorted(...)`). A line marked `# noqa: F401` keeps
its imports on purpose, and must say which purpose: it is marked
`(re-exported)`, or the benchmark's tracer names it in `LAYER_SPANS` or
`LAYER_COUNTS` of `perfbench/layer_trace.py`, which times layers by
wrapping module attributes. A module of the package may import the
standard library, `mulcom` and what `[project].dependencies` in
pyproject.toml names, and takes no underscore-prefixed name from another
module of the package: what a module keeps private, such as the
gradient delivery that `numerics.record` does for every fused record,
stays in that module.
"""

import ast
import glob
import os
import re
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = sorted(glob.glob(os.path.join(TESTS, os.pardir, "src", "mulcom", "*.py")))
FILES = PACKAGE + sorted(glob.glob(os.path.join(TESTS, "*oracle*.py")))
PYPROJECT = os.path.join(TESTS, os.pardir, "pyproject.toml")
LAYER_TRACE = os.path.join(TESTS, os.pardir, "perfbench", "layer_trace.py")


def unused_imports(source):
    """(line, name) of every import in `source` that nothing references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_the_rule_sees_unused_and_exempt_imports():
    source = (
        "import os\n"
        "from math import (\n    pi,\n    tau,  # noqa: F401\n    e,\n)\n"
        "from errors import Shown\n"
        "__all__ = sorted(['Shown'])\n"
        "print(e)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def tracer_lookups(source):
    """(module, name) of each `(mulcom.<module>, "<name>", ...)` entry of the
    `LAYER_SPANS` and `LAYER_COUNTS` tables in `source`, read without running it."""
    found = set()
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("LAYER_SPANS", "LAYER_COUNTS")
                for t in node.targets)):
            continue
        for entry in node.value.elts:
            owner, name = entry.elts[:2]
            if (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                    and owner.value.id == "mulcom" and isinstance(name, ast.Constant)):
                found.add((owner.attr, name.value))
    return found


def unearned_exemptions(source, module, lookups):
    """(line, name) of every `# noqa: F401` import in `source`, the package's
    `module`, that is neither marked `(re-exported)` nor in `lookups`."""
    lines = source.splitlines()
    unearned = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            text = lines[alias.lineno - 1]
            name = alias.asname or alias.name.split(".")[0]
            if ("# noqa: F401" in text and "(re-exported)" not in text
                    and (module, name) not in lookups):
                unearned.append((alias.lineno, name))
    return unearned


@pytest.mark.parametrize("path", PACKAGE, ids=os.path.basename)
def test_every_exempt_import_earns_it(path):
    with open(LAYER_TRACE, encoding="utf-8") as fh:
        lookups = tracer_lookups(fh.read())
    module = os.path.splitext(os.path.basename(path))[0]
    with open(path, encoding="utf-8") as fh:
        assert unearned_exemptions(fh.read(), module, lookups) == []


def test_the_rule_sees_unearned_exemptions():
    tracer = (
        "import mulcom.msrrn\n"
        "LAYER_SPANS = ((mulcom.msrrn, 'gather_rows', 'msrrn.gather'),\n"
        "               (mulcom.graph.GraphBatch, 'select', 'graph.select'))\n"
        "LAYER_COUNTS = ((mulcom.streams, 'lstm_cell', 'streams.cell'),)\n"
        "OTHER = ((mulcom.msrrn, 'tanh', 'msrrn.tanh'),)\n"
    )
    lookups = tracer_lookups(tracer)
    assert lookups == {("msrrn", "gather_rows"), ("streams", "lstm_cell")}
    source = (
        "from .config import ModelConfig  # noqa: F401 (re-exported)\n"
        "from .numerics import (\n    gather_rows,  # noqa: F401\n"
        "    lstm_cell,  # noqa: F401\n    tanh,  # noqa: F401\n)\n"
    )
    assert unearned_exemptions(source, "msrrn", lookups) == [(4, "lstm_cell"), (5, "tanh")]
    assert unearned_exemptions(source, "streams", lookups) == [(3, "gather_rows"), (5, "tanh")]


def undeclared_imports(source, declared):
    """(line, module) of every top-level module `source` imports that is not
    in the standard library, not `mulcom` and not in `declared`."""
    allowed = set(sys.stdlib_module_names) | {"mulcom"} | set(declared)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:  # a relative import stays inside the package
            continue
        found += [(node.lineno, top) for top in (n.split(".")[0] for n in names)
                  if top not in allowed]
    return found


def declared_modules():
    """The module names of pyproject.toml's `[project].dependencies`."""
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


@pytest.mark.parametrize("path", PACKAGE, ids=os.path.basename)
def test_every_import_is_declared(path):
    with open(path, encoding="utf-8") as fh:
        assert undeclared_imports(fh.read(), declared_modules()) == []


def test_the_rule_sees_undeclared_imports():
    source = (
        "import json, os.path\n"
        "import numpy.linalg\n"
        "import orjson\n"
        "from mulcom.errors import MulComError\n"
        "from . import graph\n"
        "from .numerics import Tensor\n"
    )
    assert undeclared_imports(source, {"numpy"}) == [(3, "orjson")]
    assert undeclared_imports(source, {"numpy", "orjson"}) == []


def private_imports(source):
    """(line, name) of every underscore-prefixed name, dunders aside, that
    `source` imports from a module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or node.module.split(".")[0] == "mulcom"):
            names = [(alias.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [(alias.lineno, part) for alias in node.names
                     if alias.name.split(".")[0] == "mulcom"
                     for part in alias.name.split(".")[1:]]
        else:
            continue
        found += [(line, name) for line, name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=os.path.basename)
def test_no_private_name_crosses_modules(path):
    with open(path, encoding="utf-8") as fh:
        assert private_imports(fh.read()) == []


def test_the_rule_sees_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from . import __version__\n"
        "from .numerics import (\n    Tensor,\n    _accum,\n)\n"
        "from mulcom.numerics import _emit as emit\n"
        "from .streams import _layout\n"
        "import mulcom._hidden.part\n"
    )
    assert private_imports(source) == [
        (6, "_accum"), (8, "_emit"), (9, "_layout"), (10, "_hidden")]
