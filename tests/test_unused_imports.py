"""No package module and no test module imports a name it never uses,
and no package module defines a private name the package never reads.

Read from the source with the standard `ast` module: a name bound by an
import in any module but the package's `__init__` (which re-exports) must
appear as a name somewhere else in that module. Only `from __future__`
imports are exempt. A private top-level function, class or constant of a
package module (a leading `_`, not a dunder) must be read somewhere in
the package, as a name or as an attribute.
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


def private_definitions(tree: ast.Module) -> list[str]:
    """The private top-level functions, classes and constants tree defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: list[str]) -> list[str]:
    """The private top-level names the sources define and none of them reads."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return [name for tree in trees for name in private_definitions(tree) if name not in read]


def test_package_reads_every_private_name_it_defines():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    module = ("_LIMIT = 3\n"
              "_seen: set = set()\n"
              "def _helper():\n"
              "    return 1\n"
              "class _Used:\n"
              "    def run(self):\n"
              "        return _LIMIT\n"
              "def __dir__():\n"
              "    return []\n")
    other = "from .m import _Used\nprint(_Used().run)\n"
    assert unread_private_names([module, other]) == ["_seen", "_helper"]
