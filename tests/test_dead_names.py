"""Dead-name guard: every function, method and class defined in the package
is used by the package itself, and every record field is read by it.

A name counts as used when some ``Name`` or attribute access with that
name appears in ``src/rootsys`` outside the name's own definition.  Names
that ``rootsys/__init__.py`` exports, dunders and the ``run`` console
entry point are the package's surface and are exempt.  The fields are the
annotated names of a dataclass or a ``NamedTuple`` subclass and the
``__slots__`` names of any other class.  A field counts as read when some
attribute load with its name appears anywhere in the package; passing it
to the constructor does not count, and exported classes get no
exemption.  Code kept only for the tests belongs in
``tests/``.  A module-level import counts as used when its own module
names it; the re-exports of ``__init__.py`` and ``from __future__`` are
exempt.
"""

import ast
from pathlib import Path

import rootsys

PACKAGE = Path(rootsys.__file__).resolve().parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _exported(init: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is a dataclass or a ``NamedTuple`` subclass: the
    classes whose annotated names are fields."""
    return any(
        _used_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    ) or any(_used_name(b) == "NamedTuple" for b in node.bases)


def _fields(node: ast.ClassDef) -> list[tuple[int, str]]:
    """(line, name) of each field of the class: its annotated names if it
    is a dataclass or a ``NamedTuple``, else the names its ``__slots__``
    lists."""
    if _is_dataclass(node):
        return [
            (f.lineno, f.target.id)
            for f in node.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
        ]
    return [
        (f.lineno, slot.value)
        for f in node.body
        if isinstance(f, ast.Assign)
        and any(_used_name(t) == "__slots__" for t in f.targets)
        and isinstance(f.value, (ast.Tuple, ast.List))
        for slot in f.value.elts
        if isinstance(slot, ast.Constant) and isinstance(slot.value, str)
    ]


def dead_names(trees: dict[str, ast.Module]) -> list[str]:
    """Definitions no code in the package refers to, as ``file:line name``,
    and record fields it never reads, as ``file:line Class.field``."""
    exempt = _exported(trees["__init__.py"]) | {"run"}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _used_name(node)
            if name is not None:
                uses.setdefault(name, []).append(node)
    read = {
        node.attr
        for nodes in uses.values()
        for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    dead = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            if isinstance(node, ast.ClassDef):
                dead += [
                    f"{filename}:{line} {node.name}.{field}"
                    for line, field in _fields(node)
                    if field not in read
                ]
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(id(use) in inside for use in uses.get(name, ())):
                dead.append(f"{filename}:{node.lineno} {name}")
    return dead


def unused_imports(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level imports that their own module never names, as
    ``file:line name``."""
    unused = []
    for filename, tree in trees.items():
        if filename == "__init__.py":
            continue
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{filename}:{stmt.lineno} {bound}"
                    for alias in stmt.names
                    if (bound := alias.asname or alias.name.split(".")[0]) not in named
                ]
    return unused


def test_no_dead_names():
    assert dead_names(_trees()) == []


def test_no_unused_imports():
    assert unused_imports(_trees()) == []


def test_guard_flags_an_unused_method():
    # the guard itself must fail on a name used only inside its own body
    source = (
        "class Graph:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "def build():\n"
        "    return Graph()\n"
    )
    trees = {"__init__.py": ast.parse("from .g import build\n"), "g.py": ast.parse(source)}
    assert dead_names(trees) == ["g.py:2 walk"]


def test_guard_flags_an_unread_field():
    # a field that is only passed to the constructor, or only written, is
    # flagged, even on an exported dataclass; a field read anywhere is not
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Edge:\n"
        "    head: int\n"
        "    weight: int\n"
        "    label: str = ''\n"
        "def build(edge):\n"
        "    edge.label = 'x'\n"
        "    return Edge(edge.head, 1)\n"
    )
    trees = {
        "__init__.py": ast.parse("from .g import Edge, build\n"),
        "g.py": ast.parse(source),
    }
    assert dead_names(trees) == ["g.py:5 Edge.weight", "g.py:6 Edge.label"]


def test_guard_flags_an_unread_named_tuple_field():
    source = (
        "from typing import NamedTuple\n"
        "class Edge(NamedTuple):\n"
        "    head: int\n"
        "    weight: int = 1\n"
        "def build(edge):\n"
        "    return Edge(edge.head)\n"
    )
    trees = {"__init__.py": ast.parse("from .g import Edge, build\n"), "g.py": ast.parse(source)}
    assert dead_names(trees) == ["g.py:4 Edge.weight"]


def test_guard_flags_an_unread_slot():
    # a plain class's fields are the names its __slots__ lists; one that
    # only its __init__ sets is flagged
    source = (
        "class Edge:\n"
        "    __slots__ = ('head', 'weight')\n"
        "    def __init__(self, head, weight):\n"
        "        object.__setattr__(self, 'head', head)\n"
        "        object.__setattr__(self, 'weight', weight)\n"
        "def build(edge):\n"
        "    return Edge(edge.head, 1)\n"
    )
    trees = {"__init__.py": ast.parse("from .g import Edge, build\n"), "g.py": ast.parse(source)}
    assert dead_names(trees) == ["g.py:2 Edge.weight"]


def test_guard_flags_an_unused_import():
    # an import its module never names is flagged; __init__.py re-exports
    # and from __future__ are not
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from .errors import InternalInconsistencyError, InvalidArgumentError\n"
        "def check(x):\n"
        "    if not x:\n"
        "        raise InvalidArgumentError(json.dumps(x))\n"
    )
    trees = {"__init__.py": ast.parse("from .g import check\n"), "g.py": ast.parse(source)}
    assert unused_imports(trees) == ["g.py:3 InternalInconsistencyError"]
