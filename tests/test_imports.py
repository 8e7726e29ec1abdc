"""Every name that a module of the package imports is used in that module,
every private function, class or method is read by the package, every
public one is read by the package or the benchmark, no module imports a
private name from another, and the imports run one way, up the package's
layers (`LAYERS`), at module level only."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mtss"
BENCH = SRC.parents[1] / "bench"


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


def _names(node) -> Counter:
    """How often each name is read under `node`, by a `Name` or an
    `Attribute` (as in `schemes._leaf`)."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """The functions and classes of a module, top-level or methods of a
    top-level class, as (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for d in node.body:
                    if isinstance(d, _DEFS):
                        yield f"{node.name}.{d.name}", d


def _fields(tree):
    """The names that the bodies of a module's top-level classes assign:
    dataclass fields and class attributes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for d in node.body:
                targets = [d.target] if isinstance(d, ast.AnnAssign) else getattr(d, "targets", [])
                yield from (t.id for t in targets if isinstance(t, ast.Name))


def _unread(sources, readers, wanted, exempt) -> list[str]:
    """The functions and classes of `sources` ({module name: source}),
    top-level or methods of a top-level class, whose name `wanted` accepts
    and that neither `sources` nor `readers` (more sources) name outside
    their own definition, as "module.name" or "module.Class.name", leaving
    out those in `exempt`.  A name counts as read wherever a `Name` or an
    `Attribute` spells it, so the reads of a method whose bare name another
    definition of `sources` (a function, class, method or class field) also
    has cannot be told apart: such a method is reported too."""
    total = sum((_names(ast.parse(source)) for source in readers), Counter())
    defined, bare = [], Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        total += _names(tree)
        bare.update(_fields(tree))
        for qualified, d in _definitions(tree):
            bare[d.name] += 1
            if wanted(d.name):
                defined.append((f"{module}.{qualified}", d.name, _names(d)[d.name]))
    return [
        label
        for label, name, inside in defined
        if (total[name] == inside or (label.count(".") == 2 and bare[name] > 1))
        and label not in exempt
    ]


def unused_private(sources: dict[str, str], shadowed=()) -> list[str]:
    """The private functions, classes and methods of `sources` that the
    package does not read (see `_unread`), unless `shadowed` lists them.
    Dunder names are exempt."""
    return _unread(sources, [], _private, set(shadowed))


def unused_public(sources: dict[str, str], readers: list[str], kept, shadowed=()) -> list[str]:
    """The public functions, classes and methods of `sources` that neither
    the package nor `readers` read (see `_unread`), unless `kept` or
    `shadowed` lists them."""
    return _unread(sources, readers, lambda name: not name.startswith("_"), {*kept, *shadowed})


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


def test_unused_private_finds_what_it_should():
    sources = {
        "a": (
            "def _called():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Read:\n"
            "    pass\n"
            "def _dead():\n"
            "    return _called()\n"
            "def __getattr__(name):\n"
            "    pass\n"
            "class K:\n"
            "    def _asked(self):\n"
            "        return self._orphan\n"
            "    def _orphan(self):\n"
            "        return K()._asked()\n"
            "    def _left(self):\n"
            "        pass\n"
            "    def _spelled(self):\n"
            "        pass\n"
            "class J:\n"
            "    _spelled: int = 0\n"
        ),
        "b": "import a\nx = a._Read, a.J()._spelled\n",
    }
    # K._spelled, which nothing reads, is shadowed by J's field.
    assert unused_private(sources) == ["a._recursive", "a._dead", "a.K._left", "a.K._spelled"]
    assert unused_private(sources, shadowed={"a.K._spelled"}) == [
        "a._recursive", "a._dead", "a.K._left"
    ]


def test_no_unused_private_definitions():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private(sources) == []


def test_unused_public_finds_what_it_should():
    sources = {
        "a": (
            "def called():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def benched():\n"
            "    return called()\n"
            "def kept():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        self.asked()\n"
            "    def asked(self):\n"
            "        pass\n"
            "    def orphan(self):\n"
            "        return K()\n"
            "    @staticmethod\n"
            "    def built():\n"
            "        pass\n"
            "    def shape(self):\n"
            "        pass\n"
            "class J:\n"
            "    shape: int = 0\n"
        ),
        "b": "import a\nx = a.K, a.J().shape\n",
    }
    readers = ["from a import benched\nbenched()\n", "import a\na.K.built()\n"]
    # K.shape, which only tests would read, is shadowed by J's field.
    assert unused_public(sources, readers, kept={"a.kept"}) == [
        "a.recursive", "a.K.orphan", "a.K.shape"
    ]
    assert unused_public(sources, readers, kept={"a.kept"}, shadowed={"a.K.shape"}) == [
        "a.recursive", "a.K.orphan"
    ]
    assert unused_public(sources, [], kept={"a.kept"}) == [
        "a.recursive", "a.benched", "a.K.orphan", "a.K.built", "a.K.shape"
    ]


# The paper's two corollaries (extending an entropy vector to a larger
# structure, and an entropy vector read off a scheme's ranks) are API kept on
# purpose, although only the tests call them.
COROLLARY_API = {"cone.extend_vector", "cone.EntropyVector.from_profile"}
# Also kept on purpose for the tests alone: the convexity tests scale
# entropy vectors.
KEPT = COROLLARY_API | {"cone.EntropyVector.scale"}

# The public methods whose bare name another definition of the package also
# has (`RankProfile.rank` and `field.rank`, `StructurePair.count` and the
# `SubArray.count` field, ...), so the lint cannot tell their reads apart.
# Each is read by the package or the benchmark, checked by hand.
SHADOWED = {
    "schemes.LinearScheme.columns", "schemes.LinearScheme.fingerprint",
    "schemes.LinearScheme.from_text", "schemes.LinearScheme.to_text",
    "dealer.ShareBundle.from_text", "dealer.ShareBundle.to_text",
    "structure.StructurePair.count", "structure.StructurePair.threshold",
    "structure.StructurePair.variables", "verify.RankProfile.rank",
    "verify.RatioReport.value",
}


def test_no_public_definition_only_tests_read():
    """Every public function, class and method of the package is read by
    the package or by the benchmark, apart from the kept API; `SHADOWED`
    is exactly the methods the lint leaves to a check by hand."""
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unused_public(sources, readers, KEPT, SHADOWED) == []
    assert set(unused_public(sources, readers, KEPT)) == SHADOWED


# The package's layers, lowest first: a module imports only the modules of
# the layers below its own.  So the converse side (`simplex`, `structure`,
# `cone`) imports no construction, and `schemes` builds on `verify` and
# `dealer`, which do not import it.
LAYERS = (
    ("__init__", "field", "simplex"),
    ("structure",),
    ("cone", "verify", "dealer"),
    ("schemes",),
    ("cli",),
)


def layering_faults(source: str, allowed) -> list[str]:
    """The import statements of `source` that break the layering, as "what
    (line n)": one below module level, a relative one, and each module of
    the package it imports that `allowed` does not list (as "mtss.name")."""
    tree = ast.parse(source)
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if node not in tree.body:
            faults.append(f"below module level (line {node.lineno})")
        if isinstance(node, ast.ImportFrom) and node.level:
            faults.append(f"relative (line {node.lineno})")
            continue
        base = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
        for alias in node.names:
            package, _, rest = f"{base}{alias.name}".partition(".")
            module = rest.partition(".")[0]
            if package == "mtss" and module not in allowed:
                faults.append(f"mtss.{module} (line {node.lineno})")
    return faults


def test_layering_faults_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from mtss import field, schemes\n"
        "from mtss.structure import VariableId\n"
        "import mtss.cli\n"
        "from .simplex import LinearProgram\n"
        "if np:\n"
        "    from mtss.verify import ratios\n"
        "def f():\n"
        "    import json\n"
    )
    assert layering_faults(source, {"field", "structure", "verify"}) == [
        "mtss.schemes (line 3)",
        "mtss.cli (line 5)",
        "relative (line 6)",
        "below module level (line 8)",
        "below module level (line 10)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_run_one_way(path):
    """Each module imports, at module level and by absolute name, only the
    modules of the layers below its own."""
    level = next(i for i, layer in enumerate(LAYERS) if path.stem in layer)
    allowed = {m for layer in LAYERS[:level] for m in layer}
    assert layering_faults(path.read_text(), allowed) == []


def private_imports(source: str) -> list[str]:
    """The private names (one leading underscore) that the `from` imports of
    `source` take from a module of the package, at any depth, as
    "module.name (line n)"; a relative import counts as the package's."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not node.level and module.split(".")[0] != "mtss":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{module}.{alias.name} (line {node.lineno})")
    return found


def test_private_imports_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from mtss import _hidden, field\n"
        "from mtss.structure import __all__, _parse, parse\n"
        "from .cone import _rows\n"
        "def f():\n"
        "    from mtss.verify import _scan\n"
    )
    assert private_imports(source) == [
        "mtss._hidden (line 3)",
        "mtss.structure._parse (line 4)",
        "cone._rows (line 5)",
        "mtss.verify._scan (line 7)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_imported_across_modules(path):
    assert private_imports(path.read_text()) == []


def defined_private(source: str) -> set[str]:
    """The private names (one leading underscore) that `source` defines at
    any depth: def and class names, the names and attributes it stores to,
    and the string names in a `__slots__`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            found.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            found.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return {name for name in found if isinstance(name, str) and _private(name)}


def foreign_private_reads(sources: dict[str, str]) -> list[str]:
    """The reads `x._name` in each module of `sources` ({module name:
    source}) of a private attribute that the module does not define and
    another module does, as "module._name (line n)"."""
    defined = {module: defined_private(source) for module, source in sources.items()}
    found = []
    for module, source in sources.items():
        foreign = set().union(*(d for m, d in defined.items() if m != module))
        foreign -= defined[module]
        reads = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr in foreign
        ]
        for node in sorted(reads, key=lambda n: (n.lineno, n.col_offset)):
            found.append(f"{module}.{node.attr} (line {node.lineno})")
    return found


def test_foreign_private_reads_finds_what_it_should():
    sources = {
        "a": (
            "class K:\n"
            "    __slots__ = ('_slot',)\n"
            "    def _method(self):\n"
            "        self._stored = 1\n"
            "_table = {}\n"
        ),
        "b": (
            "def f(k, other):\n"
            "    k._method()\n"
            "    other._stored = k._slot, k._table\n"
            "    return other._stored, k._unknown, k.__dict__, k.public\n"
        ),
        "c": "def g(k):\n    return k._stored\n",
    }
    assert foreign_private_reads(sources) == [
        "b._method (line 2)",
        "b._slot (line 3)",
        "b._table (line 3)",
        "c._stored (line 2)",
    ]


def test_no_module_reads_another_modules_private_attribute():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert foreign_private_reads(sources) == []
