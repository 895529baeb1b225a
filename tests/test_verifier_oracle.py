"""The 2-color verifier against the full list of short rainbow paths.

For one and two colors, `is_rainbow_k_connected` counts each pair's
rainbow paths by a popcount and builds only the k paths it keeps. Its
certificate must list, for every pair, the first k entries of
`short_rainbow_paths`, and a failing coloring must be reported at the
first pair the mask oracle of tests/util.py finds, with the number of
short rainbow paths that pair has.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ncrainbow.colorings import EdgeColoring, random_two_coloring
from ncrainbow.graphs import complete_graph, graph_from_edges
from ncrainbow.rainbow import FailureWitness, is_rainbow_k_connected, short_rainbow_paths
from util import two_color_failure_pair


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(2, 16))
    p = draw(st.sampled_from([0.3, 0.7, 0.9, 1.0, 1.0]))
    color_count = draw(st.integers(1, 2))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = graph_from_edges(n, edges)
    return g, EdgeColoring(g, color_count, [rng.randint(1, color_count) for _ in edges])


K16 = complete_graph(16)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(colored_graphs(), st.integers(1, 4))
@example((K16, random_two_coloring(K16, 1)), 4)  # passes at k = 4
@example((K16, random_two_coloring(K16, 2)), 4)  # fails at k = 4
def test_verifier_matches_short_paths(graph_and_coloring, k):
    g, col = graph_and_coloring
    result = is_rainbow_k_connected(g, col, k)
    # the oracle counts over colors 1 and 2, so a 1-color coloring is read as
    # the same edge colors on two colors
    pair = two_color_failure_pair(g, EdgeColoring(g, 2, col.edge_colors), k)
    if pair is None:
        n = g.vertex_count
        assert sorted(result.per_pair) == [(x, y) for x in range(n) for y in range(x + 1, n)]
        for (x, y), paths in result.per_pair.items():
            assert list(paths) == short_rainbow_paths(g, col, x, y)[:k]
    else:
        assert result == FailureWitness(pair, k, len(short_rainbow_paths(g, col, *pair)))
