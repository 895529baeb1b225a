"""The checker module stands apart from what it checks.

ncrainbow.check must not import rainbow, bounds or ncgraph, directly or
through another package module, and must not read a coloring's masks;
both are read from the source. Its pair count is held to an explicit
enumeration of the rainbow paths of at most two edges.
"""

import ast
import random
from itertools import combinations
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import ncrainbow
from ncrainbow import check, rainbow
from ncrainbow.check import short_rainbow_counts
from ncrainbow.colorings import EdgeColoring
from ncrainbow.graphs import graph_from_edges
from util import brute_simple_paths

PACKAGE = Path(ncrainbow.__file__).resolve().parent
CHECKED = {"rainbow", "bounds", "ncgraph"}


def package_imports(module: str) -> set[str]:
    """The package modules that module's source imports, anywhere in it; a
    name taken from the package itself counts as importing __init__."""
    def resolve(parts, names):
        if parts:
            return {parts[0]}
        return {a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__" for a in names}

    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 1:
                found |= resolve(parts, node.names)
            elif node.level == 0 and parts[0] == "ncrainbow":
                found |= resolve(parts[1:], node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ncrainbow":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def reached(module: str) -> set[str]:
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(package_imports(name))
    return seen


def test_check_reaches_none_of_the_modules_it_checks():
    assert {"colorings", "graphs"} <= reached("check")
    assert not reached("check") & CHECKED, sorted(reached("check") & CHECKED)
    # the walk does follow imports: reproduce reaches all three
    assert CHECKED | {"check"} <= reached("reproduce")


def test_check_never_reads_masks():
    tree = ast.parse((PACKAGE / "check.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "masks"]


def test_rainbow_validates_through_check():
    assert rainbow.validate_certificate is check.validate_certificate


@st.composite
def colored_graphs(draw, max_n=9):
    """A random graph colored from one to three of up to five declared colors."""
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    color_count = draw(st.integers(1, 5))
    used = draw(st.lists(st.integers(1, color_count), min_size=1, max_size=3, unique=True))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p])
    return g, EdgeColoring(g, color_count, [rng.choice(used) for _ in g.edges])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(colored_graphs())
def test_counts_are_the_enumerated_short_rainbow_paths(graph_and_coloring):
    g, col = graph_and_coloring
    colors = col.assignment()
    counts = list(short_rainbow_counts(col))
    assert [pair for pair, _ in counts] == list(combinations(range(g.vertex_count), 2))
    for (x, y), count in counts:
        rainbow_paths = [p for p in brute_simple_paths(g, x, y, max_len=2)
                         if len({colors[min(e), max(e)] for e in zip(p, p[1:])}) == len(p) - 1]
        assert count == len(rainbow_paths), (x, y)
