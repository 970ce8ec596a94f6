"""Every name a package module or a demo imports is used in that module (no
linter is assumed installed, so the check reads the syntax trees itself)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kummer"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", MODULES + DEMOS, ids=lambda p: p.stem)
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


def test_every_private_name_is_read():
    # a module-level private function, class or constant that no package
    # code reads is left over from a refactor; a read inside its own
    # definition (recursion) does not count
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            defined.update((f"{path.stem}.{name}", name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
            read |= {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} - names
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} - names
    assert sorted(where for where, name in defined.items() if name not in read) == []
