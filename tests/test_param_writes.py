"""The package changes tensor values in place only through `numerics.write`.

`write` gives the tensor a new version, and the `Derived` caches of
parameter-only products compute again only when a version moved; an
in-place write that bypasses it would leave them stale. So no module
of the package may assign into `x.data[...]` or update `x.data` with
an augmented assignment (`x.data += ...`, `x.data[i] *= ...`), except
inside `write` itself. Rebinding `x.data = ...` to a view of the same
values (`join`, `Adam`) is not a write.
"""

import ast
import glob
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = sorted(glob.glob(os.path.join(TESTS, os.pardir, "src", "mulcom", "*.py")))
WRITER = ("numerics", "write")


def _writes_data(target):
    """Whether assigning to `target` writes into some `x.data` in place."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_data(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_data(target.value)
    if not isinstance(target, ast.Subscript):
        return False
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "data"


def data_writes(source, module):
    """(line, function) of every in-place write to `x.data` in `source` outside `WRITER`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = False
        if isinstance(node, ast.Assign):
            hit = any(_writes_data(t) for t in node.targets)
        elif isinstance(node, ast.AugAssign):
            target = node.target
            hit = _writes_data(target) or (
                isinstance(target, ast.Attribute) and target.attr == "data")
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            hit = _writes_data(node.target)
        if hit and (module, function) != WRITER:
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=os.path.basename)
def test_values_are_written_only_through_write(path):
    module = os.path.splitext(os.path.basename(path))[0]
    with open(path, encoding="utf-8") as fh:
        assert data_writes(fh.read(), module) == []


def test_the_rule_sees_every_in_place_write():
    source = (
        "def write(t, value, index=...):\n"
        "    t.data[index] = value\n"
        "def probe(t, p):\n"
        "    t.data[0] = 1.0\n"
        "    p.w.data[...] += 2.0\n"
        "    t.data += 1.0\n"
        "    t.data[0][1] = 3.0\n"
        "    a, t.data[1] = 1, 2\n"
        "    t.data[2]: float = 4.0\n"
        "    t.data = t.data[::-1]\n"
        "    t.grad[0] = 1.0\n"
        "    x = t.data[0]\n"
        "    data[0] = 1.0\n"
        "t.data[...] = 0.0\n"
    )
    expected = [(4, "probe"), (5, "probe"), (6, "probe"), (7, "probe"), (8, "probe"),
                (9, "probe"), (14, None)]
    assert data_writes(source, "numerics") == expected
    assert data_writes(source, "model") == [(2, "write")] + expected
