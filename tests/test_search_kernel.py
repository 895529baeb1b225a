"""The search kernel against the coloring it stands for.

Attempt s of the search must pass exactly when the coloring
random_two_coloring(g, s) passes the mask-based pair check of
tests/util.py. The row kernel is asked for the verdict of every attempt
in a range, and whole searches through `_first_passing`, which decides a
head of attempts one by one and then switches to prefiltered blocks, are
restarted after each success, so every verdict in a range is compared,
not only the first success. Each prefiltered block must keep every
passing attempt, and the prefilter must keep exactly the attempts whose
non-adjacent pairs all have k rainbow 2-paths.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from ncrainbow import lanes, rainbow
from ncrainbow.colorings import random_two_coloring, splitmix64
from ncrainbow.graphs import complete_graph, edgeless_graph, graph_from_edges
from ncrainbow.groups import dicyclic, dihedral, metacyclic
from ncrainbow.ncgraph import noncommuting_graph
from ncrainbow.rainbow import (SEARCH_BLOCK, SEARCH_HEAD, max_disjoint_paths,
                               search_two_coloring, select_disjoint_paths)
from util import recursive_select_disjoint_paths, two_color_failure_pair

MASK64 = (1 << 64) - 1


def oracle_verdicts(g, k, seed, count):
    return [two_color_failure_pair(g, random_two_coloring(g, seed + i), k) is None
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


def assert_kernel_matches(g, k, seed, count):
    plan = rainbow._search_plan(g, k)
    assert [rainbow._attempt_passes(plan, seed + i) for i in range(count)] == \
        oracle_verdicts(g, k, seed, count)


def assert_blocks_match(g, k, seed, count):
    """Each prefiltered block keeps every passing attempt, and the row
    kernel decides each attempt it keeps as the oracle does."""
    verdicts = oracle_verdicts(g, k, seed, count)
    plan, prefilter = rainbow._search_plan(g, k), lanes.prefilter_plan(g, k)
    for lo in range(0, count, SEARCH_BLOCK):
        width = min(SEARCH_BLOCK, count - lo)
        survivors = list(lanes.survivors(prefilter, seed + lo, width))
        assert survivors == sorted(set(survivors)) and all(0 <= t < width for t in survivors)
        assert set(survivors) >= {t for t in range(width) if verdicts[lo + t]}
        assert all(rainbow._attempt_passes(plan, seed + lo + t) == verdicts[lo + t]
                   for t in survivors)


def assert_search_matches(g, k, seed, count):
    def search(start):
        found = rainbow._first_passing(g, k, count - start, seed + start)
        return None if found is None else start + found

    restarts(oracle_verdicts(g, k, seed, count), search)


def prefilter_passes(g, k, s):
    """Every non-adjacent pair of random_two_coloring(g, s) has k rainbow 2-paths."""
    col = random_two_coloring(g, s)
    absent = (0,) * g.vertex_count
    m1, m2 = col.masks.get(1, absent), col.masks.get(2, absent)
    n = g.vertex_count
    return all(((m1[a] & m2[u]) | (m2[a] & m1[u])).bit_count() >= k
               for u in range(n) for a in range(u) if not g.adj[a] >> u & 1)


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
    assert_kernel_matches(g, k, seed, 40)
    assert_blocks_match(g, k, seed, 40)


@pytest.mark.parametrize("group, k", [(dihedral(7), 3), (dihedral(10), 2), (dicyclic(3), 2),
                                      (metacyclic(24, 7), 2)],
                         ids=["D14-k3", "D20-k2", "Q12-k2", "M24_7-k2"])
def test_kernel_matches_oracle_on_noncommuting_graphs(group, k):
    g = noncommuting_graph(group).graph
    assert_kernel_matches(g, k, 0, 500)
    assert_blocks_match(g, k, 0, 500)


def test_wrapped_seed_gives_the_same_verdicts():
    g = noncommuting_graph(dicyclic(3)).graph
    plan, prefilter = rainbow._search_plan(g, 2), lanes.prefilter_plan(g, 2)
    base = [rainbow._attempt_passes(plan, s) for s in range(30)]
    assert [rainbow._search_chunk(plan, prefilter, s, 0, 1) == 0 for s in range(30)] == base
    for shift in (2 ** 64, -2 ** 64, 2 ** 70):
        assert base == [rainbow._attempt_passes(plan, s + shift) for s in range(30)]
        assert base == [rainbow._search_chunk(plan, prefilter, s + shift, 0, 1) == 0
                        for s in range(30)]


D14 = noncommuting_graph(dihedral(7)).graph
D18 = noncommuting_graph(dihedral(9)).graph


@pytest.mark.parametrize("g, seed", [(D14, 1), (D18, 0), (D18, 2 ** 64 - 1500), (D18, -1500),
                                     (D18, 2 ** 70 + 77), (D18, -2 ** 70 - 5)],
                         ids=["D14", "D18", "D18-wrap", "D18-negative", "D18-2^70",
                              "D18--2^70"])
def test_search_matches_oracle_across_the_switch(g, seed):
    count = SEARCH_HEAD + 2 * SEARCH_BLOCK + 900  # the last block is cut short
    assert_search_matches(g, 3, seed, count)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs(max_n=9), st.integers(1, 3), SEEDS)
def test_search_matches_oracle_on_random_graphs(g, k, seed):
    assert_search_matches(g, k, seed, 3000)
    assert_blocks_match(g, k, seed, 3000)


@pytest.mark.parametrize("g, width, seed", [
    (D14, SEARCH_BLOCK, 1), (D14, 333, 2 ** 64 - 100), (D18, SEARCH_BLOCK, -7),
    (D18, 517, 2 ** 70 + 3), (noncommuting_graph(dicyclic(3)).graph, 700, -2 ** 70)],
    ids=["D14", "D14-wrap-333", "D18-negative", "D18-2^70-517", "Q12--2^70-700"])
def test_prefilter_keeps_exactly_the_attempts_whose_nonadjacent_pairs_pass(g, width, seed):
    k = 3 if g.vertex_count > 10 else 2
    survivors = lanes.survivors(lanes.prefilter_plan(g, k), seed, width)
    assert list(survivors) == [t for t in range(width) if prefilter_passes(g, k, seed + t)]
    assert survivors  # the oracle above must not be vacuous


def test_stop_inside_a_block():
    winner = rainbow._first_passing(D18, 3, 5000, 0)
    assert winner is not None and winner > SEARCH_HEAD and (winner - SEARCH_HEAD) % SEARCH_BLOCK
    assert rainbow._first_passing(D18, 3, winner, 0) is None
    assert rainbow._first_passing(D18, 3, winner + 1, 0) == winner
    assert search_two_coloring(D18, 3, winner + 1, 0).seed == winner


def test_pair_short_of_common_neighbours_rejects_every_attempt():
    hexagon = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])  # kappa = 2
    prefilter = lanes.prefilter_plan(hexagon, 2)
    assert lanes.survivors(prefilter, 0, SEARCH_BLOCK) == []
    assert search_two_coloring(hexagon, 2, SEARCH_HEAD + SEARCH_BLOCK + 5, 0) is None


@pytest.mark.parametrize("n, k", [(2, 1), (4, 2), (5, 3), (6, 2)])
def test_complete_graph_has_nothing_to_prefilter(n, k):
    g = complete_graph(n)
    prefilter = lanes.prefilter_plan(g, k)
    assert prefilter == ([], [], 128 - k)
    assert list(lanes.survivors(prefilter, 5, 300)) == list(range(300))
    assert_blocks_match(g, k, 5, 3000)
    assert_search_matches(g, k, 5, 3000)


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
