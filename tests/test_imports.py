"""Every imported name is used.

A stdlib ``ast`` pass over the package modules and the tests: each name
an import binds must be read somewhere in its module, or be listed in
the module's ``__all__``.  ``__init__.py`` is skipped, since its imports
are the package's exports.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for pattern in ("src/wpmfre/*.py", "tests/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads or exports."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n"
    source += "__all__ = ['loads']\nprint(system.argv)\n"
    assert unused_imports(source) == ["dumps", "os"]
