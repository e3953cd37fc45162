"""Static checks on the package, test and demo sources; the lint step of
the test suite."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Package modules are named from src/, test and demo files from the root.
MODULES = {str(p.relative_to(SRC)): p for p in sorted(SRC.rglob("*.py"))}
MODULES.update({str(p.relative_to(ROOT)): p for d in ("tests", "demos")
                for p in sorted((ROOT / d).glob("*.py"))})


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, nor lists in __all__."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_import_is_used(name):
    assert unused_imports(MODULES[name].read_text()) == []
