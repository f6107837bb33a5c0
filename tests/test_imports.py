"""Every module-level import of the package is used.

A name that a module imports and never reads is dead weight at best and a
second home for a name at worst (a re-export that callers start to rely
on).  A module that means to re-export a name lists it in `__all__`.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swsos"


def _unread_imports(source: str) -> list:
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read and name not in exported]


def test_the_check_sees_an_unread_import():
    assert _unread_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]
    assert _unread_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_level_imports_are_read(module):
    assert _unread_imports((PACKAGE / module).read_text()) == []
