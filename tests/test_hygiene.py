"""Static checks on the package source, run with the rest of the suite."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "antimagic"
# __init__ imports names only to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.extend((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import ceil, floor\n"
                          "floor(os.sep)\n") == ["ceil"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level _private function or class that
    no source reads; a read inside its own definition, such as a
    recursive call, does not count."""
    defined = []
    read = set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append((module, stmt.name))
            read |= names
    return [f"{module}:{name}" for module, name in defined
            if name not in read]


def test_the_check_sees_an_unused_helper():
    sources = {
        "a.py": "def _used():\n    return _used()\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n"
                "class _Spare:\n    pass\n",
        "b.py": "from .a import _used\nprint(_used())\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:_recursive",
                                                  "a.py:_Spare"]


def test_every_private_helper_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []
