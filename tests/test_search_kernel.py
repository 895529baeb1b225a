"""The search kernel against the coloring it stands for.

Attempt s of the search must pass exactly when the coloring
random_two_coloring(g, s) passes the mask-based pair check of
tests/util.py. The kernel is driven through `_search_chunk`, on one plan
from `_search_plan`, over whole blocks of attempts, restarted after each
success, so every verdict in a block is compared, not only the first
success.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from ncrainbow import rainbow
from ncrainbow.colorings import random_two_coloring, splitmix64
from ncrainbow.graphs import complete_graph, edgeless_graph, graph_from_edges
from ncrainbow.groups import dicyclic, dihedral, metacyclic
from ncrainbow.ncgraph import noncommuting_graph
from ncrainbow.rainbow import max_disjoint_paths, select_disjoint_paths
from util import recursive_select_disjoint_paths, two_color_failure_pair

MASK64 = (1 << 64) - 1


def oracle_verdicts(g, k, seed, count):
    return [two_color_failure_pair(g, random_two_coloring(g, seed + i), k) is None
            for i in range(count)]


def assert_kernel_matches(g, k, seed, count):
    verdicts = oracle_verdicts(g, k, seed, count)
    plan = rainbow._search_plan(g, k)
    start = 0
    while start <= count:
        expected = next((i for i in range(start, count) if verdicts[i]), None)
        assert rainbow._search_chunk((plan, seed, start, count)) == expected, (
            f"seed {seed}, block [{start}, {count})")
        if expected is None:
            break
        start = expected + 1


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 16))
    shape = draw(st.sampled_from(["random", "random", "random", "edgeless", "complete"]))
    if shape == "edgeless":
        return edgeless_graph(n)
    if shape == "complete":
        return complete_graph(n)
    p = draw(st.sampled_from([0.2, 0.5, 0.8, 0.95]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    isolated = draw(st.sets(st.integers(0, n - 1), max_size=2))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if u not in isolated and v not in isolated and rng.random() < p]
    return graph_from_edges(n, edges)


SEEDS = st.one_of(
    st.sampled_from([0, -1, -40, 2 ** 64 - 20, 2 ** 64, 2 ** 64 + 7, -2 ** 64 - 3,
                     2 ** 65 - 10]),
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(2 ** 64 - 100, 2 ** 64 + 100),
)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs(), st.integers(1, 4), SEEDS)
def test_kernel_matches_oracle_on_random_graphs(g, k, seed):
    assert_kernel_matches(g, k, seed, 40)


@pytest.mark.parametrize("group, k", [(dihedral(7), 3), (dihedral(10), 2), (dicyclic(3), 2),
                                      (metacyclic(24, 7), 2)],
                         ids=["D14-k3", "D20-k2", "Q12-k2", "M24_7-k2"])
def test_kernel_matches_oracle_on_noncommuting_graphs(group, k):
    assert_kernel_matches(noncommuting_graph(group).graph, k, 0, 500)


def test_wrapped_seed_gives_the_same_verdicts():
    plan = rainbow._search_plan(noncommuting_graph(dicyclic(3)).graph, 2)
    base = [rainbow._search_chunk((plan, s, 0, 1)) for s in range(30)]
    assert base == [rainbow._search_chunk((plan, s + 2 ** 64, 0, 1)) for s in range(30)]
    assert base == [rainbow._search_chunk((plan, s - 2 ** 64, 0, 1)) for s in range(30)]


def direct_output(seed, j):
    z = (seed + (j + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def test_splitmix64_output_j_is_the_direct_formula():
    rng = random.Random(64)
    seeds = [0, -1, 2 ** 64 - 1, 2 ** 64, -2 ** 64 + 5] + [rng.randrange(-2 ** 66, 2 ** 66)
                                                           for _ in range(20)]
    for seed in seeds:
        stream = splitmix64(seed)
        assert [next(stream) for _ in range(501)] == [direct_output(seed, j)
                                                      for j in range(501)]


def test_select_disjoint_paths_has_no_recursion_limit():
    paths = [(0, 5, i, 1) for i in range(6, 2106)]  # all share the internal vertex 5
    assert select_disjoint_paths(paths, 2) is None
    assert select_disjoint_paths(paths, 1) == [paths[0]]
    assert max_disjoint_paths(paths) == 1


def test_select_disjoint_paths_matches_recursive_selection():
    rng = random.Random(5)
    for _ in range(400):
        x, y = 0, 1
        paths = []
        for _ in range(rng.randint(0, 9)):
            inner = rng.sample(range(2, 9), rng.randint(0, 3))
            paths.append((x, *inner, y))
        for k in range(len(paths) + 2):
            assert select_disjoint_paths(paths, k) == recursive_select_disjoint_paths(paths, k)
        best = max((k for k in range(len(paths) + 1)
                    if recursive_select_disjoint_paths(paths, k) is not None), default=0)
        assert max_disjoint_paths(paths) == best
