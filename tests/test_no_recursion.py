"""No function in the package calls itself.

Search depth in the package is bounded by the inputs (graph size, path
length), not by a constant, so a recursive function there can raise
RecursionError on a valid input. Every search keeps an explicit stack.
Only direct recursion is detected: a call, anywhere in a function's body,
to the function's own name or to ``self.<name>`` / ``cls.<name>``.
"""

import ast
from pathlib import Path

import ncrainbow

PACKAGE = Path(ncrainbow.__file__).parent


def self_calls(tree: ast.AST) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                found.append(f"{func.name} (line {node.lineno})")
            elif (isinstance(callee, ast.Attribute) and callee.attr == func.name
                  and isinstance(callee.value, ast.Name) and callee.value.id in ("self", "cls")):
                found.append(f"{func.name} (line {node.lineno})")
    return found


def test_lint_detects_recursion():
    source = '''
def outer(n):
    def walk(v):
        return walk(v - 1) if v else 0
    return walk(n)

class C:
    def size(self, node):
        return 1 + sum(self.size(c) for c in node)

def fine(xs):
    return len(xs) + sum(map(fine_helper, xs))
'''
    assert [f.split()[0] for f in self_calls(ast.parse(source))] == ["walk", "size"]


def test_package_has_no_recursive_function():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = [f"{path.name}: {f}" for path in modules
             for f in self_calls(ast.parse(path.read_text(), str(path)))]
    assert found == []
