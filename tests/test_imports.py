"""No module of the package, and no test oracle, keeps an import it does not use.

An import counts as used when a name it binds appears in the module's
code, or as a string literal in an `__all__` assignment (the package
builds its list with `sorted(...)`). A line marked `# noqa: F401` keeps
its imports on purpose: a re-export, or a name the benchmark's tracer
looks up on the module.
"""

import ast
import glob
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
FILES = sorted(
    glob.glob(os.path.join(TESTS, os.pardir, "src", "mulcom", "*.py"))
    + glob.glob(os.path.join(TESTS, "*oracle*.py"))
)


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
