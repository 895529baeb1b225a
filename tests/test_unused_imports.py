"""No package module and no test module imports a name it never uses.

Read from the source with the standard `ast` module: a name bound by an
import in any module but the package's `__init__` (which re-exports) must
appear as a name somewhere else in that module. Only `from __future__`
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import ncrainbow

PACKAGE = Path(ncrainbow.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(p.stem for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_name_it_imports(module):
    assert unused_imports((TESTS / f"{module}.py").read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from .bounds import failure_bound as fb, scan_exception_report\n"
              "from .groups import Group\n"
              "def f(g: Group) -> str:\n"
              "    return json.dumps(fb(g))\n")
    assert unused_imports(source) == ["os", "scan_exception_report"]
