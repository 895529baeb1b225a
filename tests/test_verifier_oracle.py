"""The 2-color verifier against the short rainbow paths of the oracles.

For one and two colors, `is_rainbow_k_connected` counts each pair's
rainbow paths by a popcount and builds only the k paths it keeps. Its
certificate must list, for every pair, the first k paths of
util.reference_two_color_paths, and a failing coloring must be reported
at the first pair the count of ncrainbow.check finds short, with that
count. A coloring may declare up to five colors and use any one or two
of them.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ncrainbow.check import short_rainbow_counts
from ncrainbow.colorings import EdgeColoring, random_two_coloring
from ncrainbow.graphs import complete_graph, graph_from_edges
from ncrainbow import rainbow
from ncrainbow.rainbow import FailureWitness, RainbowCertificate, is_rainbow_k_connected
from util import first_short_pair, reference_two_color_paths


@st.composite
def colored_graphs(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([0.3, 0.7, 0.9, 1.0, 1.0]))
    color_count = draw(st.integers(1, 5))
    used = draw(st.lists(st.integers(1, color_count), min_size=1, max_size=2, unique=True))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = graph_from_edges(n, edges)
    return g, EdgeColoring(g, color_count, [rng.choice(used) for _ in edges])


K16 = complete_graph(16)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(colored_graphs(), st.integers(1, 4))
@example((K16, random_two_coloring(K16, 1)), 4)  # passes at k = 4
@example((K16, random_two_coloring(K16, 2)), 4)  # fails at k = 4
def test_verifier_matches_short_paths(graph_and_coloring, k):
    """Deciding and building in one pass per row gives the search's witness,
    the first pair the count of ncrainbow.check finds short, with that
    count, or the certificate of util.reference_two_color_paths: every
    pair, each with the direct edge and then the lowest middles, read from
    the color list."""
    g, col = graph_and_coloring
    result = is_rainbow_k_connected(g, col, k)
    pair = first_short_pair(col, k)
    if pair is None:
        n = g.vertex_count
        assert sorted(result.per_pair) == [(x, y) for x in range(n) for y in range(x + 1, n)]
        assert result == RainbowCertificate(k, reference_two_color_paths(g, col, k))
        assert rainbow._short_pair(g, col, k) is None
    else:
        assert result == FailureWitness(pair, k, dict(short_rainbow_counts(col))[pair])
        assert result == rainbow._short_pair(g, col, k)


@settings(max_examples=300, deadline=None)
@given(colored_graphs(max_n=10), st.integers(1, 4))
def test_search_guard_decides_as_the_verifier(graph_and_coloring, k):
    """The count the search decides by is the verifier's: the same first
    short pair and path count, and None exactly when a certificate comes back."""
    g, col = graph_and_coloring
    witness = rainbow._short_pair(g, col, k)
    result = is_rainbow_k_connected(g, col, k)
    if witness is None:
        assert isinstance(result, RainbowCertificate)
    else:
        assert result == witness


K4 = complete_graph(4)
# rainbow-2-connected, though pairs (0, 2) and (0, 3) have one bichromatic
# middle each: only their direct edges lift them to k = 2
K4_LIFTED = EdgeColoring(K4, 2, [2, 1, 2, 2, 1, 1])


@st.composite
def two_colorings(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    p = draw(st.sampled_from([0.3, 0.7, 0.9, 1.0, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p])
    return g, EdgeColoring(g, 2, [rng.choice((1, 2)) for _ in g.edges])


def test_k4_example_is_lifted_by_direct_edges_only():
    assert [m.bit_count() for m in rainbow._bichromatic(K4, K4_LIFTED, 0)] \
        == [2, 1, 1]
    assert rainbow._short_pair(K4, K4_LIFTED, 2) is None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(two_colorings(), st.integers(1, 4))
@example((K4, K4_LIFTED), 2)
@example((K16, random_two_coloring(K16, 1)), 4)
@example((K16, random_two_coloring(K16, 2)), 4)
def test_short_pair_witness_is_the_oracle_pair(graph_and_coloring, k):
    """The search's count, which skips a row whose every pair has k
    middles and counts the direct edge only in the rows it scans, fails
    at the first pair the count of ncrainbow.check finds short, with that
    count."""
    g, col = graph_and_coloring
    witness = rainbow._short_pair(g, col, k)
    pair = first_short_pair(col, k)
    if pair is None:
        assert witness is None
    else:
        assert witness == FailureWitness(pair, k, dict(short_rainbow_counts(col))[pair])

