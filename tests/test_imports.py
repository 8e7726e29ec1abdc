"""Every name that a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mtss"


def unused_imports(source: str) -> list[str]:
    """The names that the import statements of `source` bind (at any depth)
    and that no `Name` node reads, as "name (line n)".  `__future__`
    imports and statements with "# noqa" on one of their lines are
    exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_unused_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from itertools import (\n"
        "    chain,\n"
        "    product,  # noqa: F401\n"
        ")\n"
        "from math import gcd, lcm\n"
        "def f(x: lcm):\n"
        "    from json import dumps\n"
        "    return os.sep, xml\n"
    )
    assert unused_imports(source) == ["osp (line 3)", "gcd (line 9)", "dumps (line 11)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
