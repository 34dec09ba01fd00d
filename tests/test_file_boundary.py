"""Only `mulcom.ioutil` opens files or parses JSON.

`ioutil` reads, checks and writes every JSON file the package touches:
it turns each unreadable or malformed file into a `DataFormatError`
naming the path and line. A module that opened a file or imported
`json` or `orjson` itself would bypass that. So no module of the package
but `ioutil` may call `open` (as a name or an attribute, such as
`io.open`) or import `json` or `orjson`.
"""

import ast
import glob
import os

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
PACKAGE = sorted(glob.glob(os.path.join(TESTS, os.pardir, "src", "mulcom", "*.py")))
BOUNDARY = "ioutil.py"
PARSERS = ("json", "orjson")


def file_access(source):
    """(line, what) of each `open` call and each json or orjson import in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                found.append((node.lineno, "open"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] in PARSERS]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] in PARSERS):
            found.append((node.lineno, node.module))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if os.path.basename(p) != BOUNDARY],
                         ids=os.path.basename)
def test_only_ioutil_opens_files_or_parses_json(path):
    with open(path, encoding="utf-8") as fh:
        assert file_access(fh.read()) == []


def test_the_rule_sees_every_open_and_parser_import():
    source = (
        "import os, json\n"
        "import orjson as fast\n"
        "from json import loads\n"
        "from json.decoder import JSONDecodeError\n"
        "from .ioutil import read_json\n"
        "import jsonschema\n"
        "def f(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
        "def g(path):\n"
        "    return io.open(path), os.fdopen(3), opener(path)\n"
    )
    assert file_access(source) == [(1, "json"), (2, "orjson"), (3, "json"),
                                   (4, "json.decoder"), (8, "open"), (11, "open")]
