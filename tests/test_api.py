"""The package surface: exported names resolve, and no module carries an
import it never uses (a deleted helper must not leave one behind)."""

import ast
from pathlib import Path

import pytest

import rolemine

PACKAGE = Path(rolemine.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_every_exported_name_resolves():
    assert len(rolemine.__all__) == len(set(rolemine.__all__))
    for name in rolemine.__all__:
        assert hasattr(rolemine, name), name


def _imported_and_used(source: str) -> tuple[set[str], set[str]]:
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    imported, used = _imported_and_used(path.read_text(encoding="utf-8"))
    assert imported - used == set()


def test_unused_import_is_found():
    imported, used = _imported_and_used(
        "from .model import Role, mask_of\nimport os.path\nx = mask_of(())\n"
    )
    assert imported - used == {"Role", "os"}
