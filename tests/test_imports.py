"""Every name a package module imports is used in that module (no linter
is assumed installed, so the check reads the syntax trees itself)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kummer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}
