"""Every module of the package uses each name it imports.

No linter ships with the test dependencies, so this walks the syntax tree:
a name bound by an import statement has to appear somewhere in the module
as a plain name (an attribute access `np.exp` counts as a use of `np`).
`__init__.py` re-exports by importing and is exempt.
"""

import ast
from pathlib import Path

import pytest

import sramyield

MODULES = sorted(p for p in Path(sramyield.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = "import os.path\nfrom math import pi, tau as t\nprint(os, t)\n"
    assert unused_imports(source) == ["pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
