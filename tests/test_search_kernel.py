"""The coloring search against the colorings it draws.

Attempt s of the search must pass exactly when the coloring
random_two_coloring(g, s) passes the pair count of ncrainbow.check,
which reads the color list and not the masks. The search has no decider
of its own: every attempt is drawn and decided by the verifier's count
(rainbow._short_pair). The tests named for the kernel ask that count for
the verdict of every attempt in a range and compare it with the
oracle's. Whole searches through `search_two_coloring` are restarted
after each success, so every verdict in a range is compared, not only
the first success. A search that finds k above the vertex connectivity,
where no attempt can pass, counts as finding none. The oracle's verdicts
are computed once per (graph, k, seed, count) and shared by the checks.
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
from ncrainbow.rainbow import PreconditionKappa, search_two_coloring
from util import first_short_pair

MASK64 = (1 << 64) - 1


def oracle_verdicts(g, k, seed, count):
    return [first_short_pair(random_two_coloring(g, seed + i), k) is None
            for i in range(count)]


def restarts(verdicts, search):
    """Run search(start) from 0 and again after each success; each run must
    return the first passing index at or after start, or None."""
    start = 0
    while start <= len(verdicts):
        expected = next((i for i in range(start, len(verdicts)) if verdicts[i]), None)
        assert search(start) == expected, f"range [{start}, {len(verdicts)})"
        if expected is None:
            break
        start = expected + 1


def decides(g, k, s):
    """The search's verdict on attempt s: the verifier's count on its redraw."""
    return rainbow._short_pair(g, random_two_coloring(g, s), k) is None


def assert_kernel_matches(g, k, seed, verdicts):
    assert [decides(g, k, seed + i) for i in range(len(verdicts))] == verdicts


def assert_search_matches(g, k, seed, verdicts):
    def search(start):
        try:
            col = search_two_coloring(g, k, len(verdicts) - start, seed + start)
        except PreconditionKappa:
            assert not any(verdicts[start:])
            return None
        return None if col is None else col.seed - seed

    restarts(verdicts, search)


@st.composite
def graphs(draw, max_n=16):
    n = draw(st.integers(2, max_n))
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
    verdicts = oracle_verdicts(g, k, seed, 40)
    assert_kernel_matches(g, k, seed, verdicts)


@pytest.mark.parametrize("group, k", [(dihedral(7), 3), (dihedral(10), 2), (dicyclic(3), 2),
                                      (metacyclic(24, 7), 2)],
                         ids=["D14-k3", "D20-k2", "Q12-k2", "M24_7-k2"])
def test_kernel_matches_oracle_on_noncommuting_graphs(group, k):
    g = noncommuting_graph(group).graph
    verdicts = oracle_verdicts(g, k, 0, 500)
    assert_kernel_matches(g, k, 0, verdicts)


def test_wrapped_seed_gives_the_same_verdicts():
    """A seed shifted by a multiple of 2^64 draws the same colorings, so the
    count on each gives the same verdicts."""
    g = noncommuting_graph(dicyclic(3)).graph
    base = [decides(g, 2, s) for s in range(30)]
    assert any(base) and not all(base)
    for shift in (2 ** 64, -2 ** 64, 2 ** 70):
        assert base == [decides(g, 2, s + shift) for s in range(30)]


D14 = noncommuting_graph(dihedral(7)).graph
D18 = noncommuting_graph(dihedral(9)).graph


@pytest.mark.parametrize("g, seed", [(D14, 1), (D18, 0), (D18, 2 ** 64 - 1500), (D18, -1500),
                                     (D18, 2 ** 70 + 77), (D18, -2 ** 70 - 5)],
                         ids=["D14", "D18", "D18-wrap", "D18-negative", "D18-2^70",
                              "D18--2^70"])
def test_search_matches_oracle_on_rare_winners(g, seed):
    assert_search_matches(g, 3, seed, oracle_verdicts(g, 3, seed, 3012))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs(max_n=9), st.integers(1, 3), SEEDS)
def test_search_matches_oracle_on_random_graphs(g, k, seed):
    verdicts = oracle_verdicts(g, k, seed, 3000)
    assert_search_matches(g, k, seed, verdicts)


def test_search_stops_at_its_budget():
    winner = search_two_coloring(D18, 3, 5000, 0).seed
    assert search_two_coloring(D18, 3, winner, 0) is None
    assert search_two_coloring(D18, 3, winner + 1, 0).seed == winner


def test_pair_short_of_common_neighbours_rejects_every_attempt():
    hexagon = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])  # kappa = 2
    assert search_two_coloring(hexagon, 2, 1093, 0) is None


@pytest.mark.parametrize("n, k", [(2, 1), (4, 2), (5, 3), (6, 2)])
def test_search_matches_oracle_on_complete_graphs(n, k):
    g = complete_graph(n)
    assert_search_matches(g, k, 5, oracle_verdicts(g, k, 5, 3000))


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
