"""Only `numerics.record` puts anything on a tape.

`record` checks which inputs are tracked, delivers every gradient
through `_accum` and appends one record per op. A second way onto a
tape would bypass all three, and anything hooked on `record` would miss
its records. So the package holds exactly one call that adds to a
tape's `records`, an `append` in `numerics.record`, and no module but
`numerics` calls `active_tape()`.
"""

import ast
import glob
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = sorted(glob.glob(os.path.join(TESTS, os.pardir, "src", "mulcom", "*.py")))
BOUNDARY = "numerics.py"
ADDS = ("append", "extend", "insert")


def tape_access(source):
    """(line, enclosing function, what) of each call that adds to a `records` or reads `active_tape()`."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr in ADDS
                    and isinstance(f.value, ast.Attribute) and f.value.attr == "records"):
                found.append((node.lineno, func, f"records.{f.attr}"))
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "active_tape":
                found.append((node.lineno, func, "active_tape()"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return sorted(found)


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_only_record_adds_to_a_tape():
    adds = [(os.path.basename(path), func, what) for path in PACKAGE
            for _, func, what in tape_access(read(path)) if what.startswith("records.")]
    assert adds == [(BOUNDARY, "record", "records.append")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if os.path.basename(p) != BOUNDARY],
                         ids=os.path.basename)
def test_no_module_but_numerics_touches_the_tape(path):
    assert tape_access(read(path)) == []


def test_the_rule_sees_every_add_and_active_tape_call():
    source = (
        "from .numerics import active_tape\n"
        "def record(inputs, out, fn):\n"
        "    active_tape().records.append((inputs, out, fn))\n"
        "def _emit(inputs, out, fn):\n"
        "    tape = nx.active_tape()\n"
        "    tape.records.append((inputs, out, fn))\n"
        "    def inner():\n"
        "        tape.records.insert(0, None)\n"
        "    _STATE.stack.append(tape)\n"
        "    return len(tape.records), [r for r in tape.records]\n"
        "tape.records.extend(())\n"
    )
    assert tape_access(source) == [
        (3, "record", "active_tape()"), (3, "record", "records.append"),
        (5, "_emit", "active_tape()"), (6, "_emit", "records.append"),
        (8, "inner", "records.insert"), (11, None, "records.extend"),
    ]
