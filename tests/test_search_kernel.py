"""The coloring search against the colorings it draws.

Attempt s of the search must pass exactly when the coloring
random_two_coloring(g, s) passes the pair count of ncrainbow.check,
which reads the color list and not the masks. The search has no decider
of its own: every attempt it draws, the head of SEARCH_HEAD attempts and
then each survivor of a block's lane-parallel prefilter, is redrawn and
decided by the verifier's count (rainbow._short_pair). The tests named
for the kernel ask that count for the verdict of every attempt in a
range and compare it with the oracle's. Whole
searches through `search_two_coloring` are restarted after each success,
so every verdict in a range is compared, not only the first success. A
search that finds k above the vertex connectivity, where no attempt can
pass, counts as finding none. Each prefiltered block must keep every
passing attempt, and the prefilter must keep exactly the attempts whose
non-adjacent pairs all have k rainbow 2-paths. The search plan it reads
is built once per search, and no block may change it. The oracle's
verdicts are computed once per (graph, k, seed, count) and shared by
the checks.
"""

import copy
import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from ncrainbow import rainbow
from ncrainbow.check import short_rainbow_counts
from ncrainbow.colorings import random_two_coloring, splitmix64
from ncrainbow.graphs import complete_graph, edgeless_graph, graph_from_edges
from ncrainbow.groups import dicyclic, dihedral, metacyclic
from ncrainbow.ncgraph import noncommuting_graph
from ncrainbow.rainbow import SEARCH_BLOCK, SEARCH_HEAD, PreconditionKappa, search_two_coloring
from util import complement, first_short_pair

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


def assert_blocks_match(g, k, seed, verdicts):
    """Each prefiltered block keeps every passing attempt. The count that
    decides the attempts kept reads no plan, so assert_kernel_matches and
    the searches check its verdicts."""
    count = len(verdicts)
    plan = rainbow._search_plan(g)
    for lo in range(0, count, SEARCH_BLOCK):
        width = min(SEARCH_BLOCK, count - lo)
        survivors = rainbow._survivors(plan, k, seed + lo, width)
        assert survivors == sorted(set(survivors)) and all(0 <= t < width for t in survivors)
        assert set(survivors) >= {t for t in range(width) if verdicts[lo + t]}


def assert_search_matches(g, k, seed, verdicts):
    def search(start):
        try:
            col = search_two_coloring(g, k, len(verdicts) - start, seed + start)
        except PreconditionKappa:
            assert not any(verdicts[start:])
            return None
        return None if col is None else col.seed - seed

    restarts(verdicts, search)


def prefilter_passes(g, k, s):
    """Every non-adjacent pair of random_two_coloring(g, s) has k rainbow 2-paths."""
    return all(count >= k for (a, u), count in short_rainbow_counts(random_two_coloring(g, s))
               if not g.adj[a] >> u & 1)


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
    assert_blocks_match(g, k, seed, verdicts)


@pytest.mark.parametrize("group, k", [(dihedral(7), 3), (dihedral(10), 2), (dicyclic(3), 2),
                                      (metacyclic(24, 7), 2)],
                         ids=["D14-k3", "D20-k2", "Q12-k2", "M24_7-k2"])
def test_kernel_matches_oracle_on_noncommuting_graphs(group, k):
    g = noncommuting_graph(group).graph
    verdicts = oracle_verdicts(g, k, 0, 500)
    assert_kernel_matches(g, k, 0, verdicts)
    assert_blocks_match(g, k, 0, verdicts)


def test_wrapped_seed_gives_the_same_verdicts():
    """A seed shifted by a multiple of 2^64 draws the same colorings, so the
    block path, a width-1 prefilter pass and the count on the redraw, gives
    the same verdicts."""
    g = noncommuting_graph(dicyclic(3)).graph
    plan = rainbow._search_plan(g)

    def block_of_one(s):  # the block path's verdict on attempt s alone
        return rainbow._survivors(plan, 2, s, 1) == [0] and decides(g, 2, s)

    base = [decides(g, 2, s) for s in range(30)]
    assert any(base) and not all(base)
    assert [block_of_one(s) for s in range(30)] == base
    for shift in (2 ** 64, -2 ** 64, 2 ** 70):
        assert base == [decides(g, 2, s + shift) for s in range(30)]
        assert base == [block_of_one(s + shift) for s in range(30)]


D14 = noncommuting_graph(dihedral(7)).graph
D18 = noncommuting_graph(dihedral(9)).graph


@pytest.mark.parametrize("g, seed", [(D14, 1), (D18, 0), (D18, 2 ** 64 - 1500), (D18, -1500),
                                     (D18, 2 ** 70 + 77), (D18, -2 ** 70 - 5)],
                         ids=["D14", "D18", "D18-wrap", "D18-negative", "D18-2^70",
                              "D18--2^70"])
def test_search_matches_oracle_across_the_switch(g, seed):
    count = SEARCH_HEAD + 2 * SEARCH_BLOCK + 900  # the last block is cut short
    assert_search_matches(g, 3, seed, oracle_verdicts(g, 3, seed, count))


@pytest.mark.parametrize("g", [D14, D18], ids=["D14", "D18"])
def test_search_plan_holds_the_edge_offsets_and_the_nonadjacent_pairs(g):
    """Each edge, either way round, maps to the offset of its splitmix64
    output; the pairs are exactly the non-adjacent ones, in (common count,
    u, a) order, with their common neighbours."""
    offsets, pairs = rainbow._search_plan(g)
    assert offsets == {edge: (j + 1) * 0x9E3779B97F4A7C15 & MASK64
                       for j, (u, v) in enumerate(g.edges) for edge in ((u, v), (v, u))}
    common = {(a, u): set(g.neighbors(a)) & set(g.neighbors(u))
              for a, u in combinations(range(g.vertex_count), 2) if not g.adjacent(a, u)}
    assert [(size, u, a) for size, u, a, _ in pairs] == sorted(
        (len(ws), u, a) for (a, u), ws in common.items())
    assert all(mask == sum(1 << w for w in common[a, u]) for _, u, a, mask in pairs)


def test_blocks_leave_the_plan_as_built():
    """Two prefilter passes on one plan keep the same lanes, and neither
    changes the plan the next block reads."""
    plan = rainbow._search_plan(D14)
    before = copy.deepcopy(plan)
    first = rainbow._survivors(plan, 3, 1 + SEARCH_HEAD, SEARCH_BLOCK)
    assert first and plan == before
    assert rainbow._survivors(plan, 3, 1 + SEARCH_HEAD, SEARCH_BLOCK) == first
    assert plan == before


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs(max_n=9), st.integers(1, 3), SEEDS)
def test_search_matches_oracle_on_random_graphs(g, k, seed):
    verdicts = oracle_verdicts(g, k, seed, 3000)
    assert_search_matches(g, k, seed, verdicts)
    assert_blocks_match(g, k, seed, verdicts)


@pytest.mark.parametrize("g, width, seed", [
    (D14, SEARCH_BLOCK, 1), (D14, 333, 2 ** 64 - 100), (D18, SEARCH_BLOCK, -7),
    (D18, 517, 2 ** 70 + 3), (noncommuting_graph(dicyclic(3)).graph, 700, -2 ** 70)],
    ids=["D14", "D14-wrap-333", "D18-negative", "D18-2^70-517", "Q12--2^70-700"])
def test_prefilter_keeps_exactly_the_attempts_whose_nonadjacent_pairs_pass(g, width, seed):
    k = 3 if g.vertex_count > 10 else 2
    survivors = rainbow._survivors(rainbow._search_plan(g), k, seed, width)
    assert survivors == [t for t in range(width) if prefilter_passes(g, k, seed + t)]
    assert survivors  # the oracle above must not be vacuous


def test_stop_inside_a_block():
    winner = search_two_coloring(D18, 3, 5000, 0).seed
    assert winner > SEARCH_HEAD and (winner - SEARCH_HEAD) % SEARCH_BLOCK
    assert search_two_coloring(D18, 3, winner, 0) is None
    assert search_two_coloring(D18, 3, winner + 1, 0).seed == winner


def test_pair_short_of_common_neighbours_rejects_every_attempt():
    hexagon = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])  # kappa = 2
    assert rainbow._survivors(rainbow._search_plan(hexagon), 2, 0, SEARCH_BLOCK) == []
    assert search_two_coloring(hexagon, 2, SEARCH_HEAD + SEARCH_BLOCK + 5, 0) is None


@pytest.mark.parametrize("n, k", [(2, 1), (4, 2), (5, 3), (6, 2)])
def test_complete_graph_has_nothing_to_prefilter(n, k):
    g = complete_graph(n)
    assert rainbow._survivors(rainbow._search_plan(g), k, 5, 300) == list(range(300))
    verdicts = oracle_verdicts(g, k, 5, 3000)
    assert_blocks_match(g, k, 5, verdicts)
    assert_search_matches(g, k, 5, verdicts)


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


def test_pair_that_could_overflow_a_byte_lane_is_left_out():
    """0 and 1 are the only non-adjacent pair and have 300 common
    neighbours, so their count of rainbow 2-paths (about 150, plus the
    bias 126) would overflow a byte lane: the prefilter must leave the pair
    out rather than drop attempts the oracle passes."""
    g = complement(graph_from_edges(302, [(0, 1)]))
    verdicts = oracle_verdicts(g, 2, 11, 4)
    assert any(verdicts)
    survivors = rainbow._survivors(rainbow._search_plan(g), 2, 11, 4)
    assert set(survivors) >= {t for t in range(4) if verdicts[t]}
