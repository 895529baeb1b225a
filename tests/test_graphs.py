import random

import pytest

from ncrainbow import graphs
from ncrainbow.check import brute_force_vertex_connectivity as brute_vertex_connectivity
from ncrainbow.colorings import j62_graph_and_coloring
from ncrainbow.graphs import (SearchBudgetExceeded, _max_vertex_disjoint, are_isomorphic,
                              complete_graph, complete_multipartite,
                              detect_complete_multipartite, edgeless_graph,
                              graph_from_edges, johnson, lexicographic_product,
                              read_graph_file, vertex_connectivity, write_graph_file)
from ncrainbow.groups import central_product, dicyclic, dihedral, metacyclic
from ncrainbow.ncgraph import noncommuting_graph
from util import brute_isomorphic, complement, recursive_are_isomorphic


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def test_complete_multipartite_counts():
    k3 = complete_multipartite([1, 1, 1])
    assert (k3.vertex_count, k3.edge_count) == (3, 3)
    g = complete_multipartite([1, 1, 1, 2])
    assert (g.vertex_count, g.edge_count) == (5, 9)
    octa = complete_multipartite([2, 2, 2])
    assert (octa.vertex_count, octa.edge_count) == (6, 12)
    assert all(octa.degree(v) == 4 for v in range(6))


@pytest.mark.parametrize("sizes", [[1], [3], [1, 1], [2, 1], [1, 3], [2, 2, 2],
                                   [1, 2, 3], [3, 1, 2, 1], [4, 1, 1, 1, 5]])
def test_complete_multipartite_matches_a_brute_construction(sizes):
    """u ~ v exactly when their parts differ; labels are p<part>_<j>, 1-based."""
    part = [p for p, s in enumerate(sizes, start=1) for _ in range(s)]
    n = len(part)
    g = complete_multipartite(sizes)
    assert g.vertex_count == n
    assert g.labels == tuple(f"p{p}_{j}" for p, s in enumerate(sizes, start=1)
                             for j in range(1, s + 1))
    assert g.adj == tuple(sum(1 << v for v in range(n) if part[v] != part[u])
                          for u in range(n))


@pytest.mark.parametrize("s,k", [(1, 4), (2, 3), (3, 5), (4, 2)])
def test_multipartite_regular_degrees(s, k):
    g = complete_multipartite([s] * k)
    assert all(g.degree(v) == s * k - s for v in range(g.vertex_count))


def test_lexicographic_product():
    k2 = complete_graph(2)
    prod = lexicographic_product(k2, edgeless_graph(2))
    # K2 with edgeless fibers of size 2 is complete bipartite K_{2,2}.
    assert prod.vertex_count == 4 and prod.edge_count == 4
    assert detect_complete_multipartite(prod) == [2, 2]

    base = complete_multipartite([1, 2, 1])
    same = lexicographic_product(base, edgeless_graph(1))
    assert same.adj == base.adj

    two_edges = lexicographic_product(edgeless_graph(2), complete_graph(2))
    assert two_edges.edge_count == 2 and two_edges.degree(0) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fiber_blowup_edge_count(n):
    rng = random.Random(7)
    g = random_graph(rng, 6)
    prod = lexicographic_product(g, edgeless_graph(n))
    assert prod.edge_count == n * n * g.edge_count


def test_complement():
    assert complement(complete_graph(5)).edge_count == 0
    rng = random.Random(3)
    g = random_graph(rng, 8)
    assert complement(complement(g)).adj == g.adj
    co = complement(complete_multipartite([2, 2, 2]))
    assert co.edge_count == 3 and all(co.degree(v) == 1 for v in range(6))


def test_johnson():
    j = johnson(6, 2)
    assert j.vertex_count == 15 and j.edge_count == 60
    assert all(j.degree(v) == 8 for v in range(15))
    assert johnson(5, 1).is_complete()
    assert johnson(3, 2).is_complete()
    assert "{1,3}" in johnson(6, 2).labels


def test_detect_complete_multipartite():
    assert detect_complete_multipartite(complete_multipartite([2, 2, 2])) == [2, 2, 2]
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert detect_complete_multipartite(c5) is None
    assert detect_complete_multipartite(edgeless_graph(1)) == [1]


@pytest.mark.parametrize("parts", [[1], [3], [1, 1], [2, 3], [1, 2, 3],
                                   [4, 4], [2, 2, 2, 2], [5, 5, 5, 5, 5],
                                   [1, 1, 1, 7], [10, 10, 10, 10]])
def test_detect_round_trip(parts):
    assert detect_complete_multipartite(complete_multipartite(parts)) == sorted(parts)


def test_detect_against_networkx_complement_cliques():
    """g is complete multipartite iff every component of its complement is
    a clique; the parts are those components. Half the cases have one
    vertex pair toggled, so most of those are not multipartite."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    rejected = 0
    for trial in range(200):
        g = relabelled(rng, complete_multipartite(
            [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]))
        edges = set(g.edges)
        if trial % 2 and g.vertex_count > 1:
            edges ^= {tuple(sorted(rng.sample(range(g.vertex_count), 2)))}
        g = graph_from_edges(g.vertex_count, sorted(edges))
        ref = nx.Graph(list(g.edges))
        ref.add_nodes_from(range(g.vertex_count))
        co = nx.complement(ref)
        comps = [co.subgraph(c) for c in nx.connected_components(co)]
        if all(c.number_of_edges() == len(c) * (len(c) - 1) // 2 for c in comps):
            expected = sorted(len(c) for c in comps)
        else:
            expected = None
            rejected += 1
        assert detect_complete_multipartite(g) == expected
    assert rejected >= 50


def test_isomorphism_reflexive_under_shuffle():
    rng = random.Random(11)
    for trial in range(20):
        g = random_graph(rng, rng.randint(4, 20))
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        shuffled = graph_from_edges(
            g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])
        mapping = are_isomorphic(g, shuffled)
        assert mapping is not None
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                assert g.adjacent(u, v) == shuffled.adjacent(mapping[u], mapping[v])


def test_isomorphism_refutes_degree_mismatch():
    octa = complete_multipartite([2, 2, 2])
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert are_isomorphic(octa, c6) is None


def test_isomorphism_matches_brute_force():
    rng = random.Random(19)
    for trial in range(40):
        n = rng.randint(3, 6) if trial < 30 else rng.randint(7, 8)
        g1 = random_graph(rng, n)
        g2 = random_graph(rng, n)
        assert (are_isomorphic(g1, g2) is not None) == brute_isomorphic(g1, g2)


def test_isomorphism_budget(monkeypatch):
    # C6 vs two triangles: same degrees everywhere, so refinement cannot
    # split classes and refutation needs search nodes.
    c6 = graph_from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert are_isomorphic(c6, triangles) is None
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 2)
    with pytest.raises(SearchBudgetExceeded):
        are_isomorphic(c6, triangles)


def test_isomorphism_budget_is_exact_at_its_boundary(monkeypatch):
    """Mapping the (D8)o(D8) graph onto the J(6,2) fiber graph takes exactly
    145 search nodes: a budget of 145 finds the map and 144 runs out."""
    d8d8 = noncommuting_graph(central_product(dihedral(4), dihedral(4), 2, 2)).graph
    j62 = j62_graph_and_coloring()[0]
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 145)
    assert are_isomorphic(d8d8, j62) is not None
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 144)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 144 nodes"):
        are_isomorphic(d8d8, j62)


def relabelled(rng, g):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return graph_from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def edge_switched(rng, g):
    """g with edges ab, cd replaced by ad, cb where possible: same degrees,
    usually another graph."""
    edges = set(g.edges)
    for _ in range(50):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            return graph_from_edges(g.vertex_count, sorted(edges - {(a, b), (c, d)} | new))
    return g


def cycles(*lengths):
    edges, start = [], 0
    for n in lengths:
        edges += [(start + i, start + (i + 1) % n) for i in range(n)]
        start += n
    return graph_from_edges(start, edges)


def isomorphism_cases():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 14), rng.choice([0.2, 0.5, 0.8]))
        yield g, relabelled(rng, g)
        if g.edge_count >= 2:
            yield g, relabelled(rng, edge_switched(rng, g))
    for a, b, c, d in [(6, 6, 3, 9), (4, 8, 6, 6), (5, 5, 3, 7), (3, 3, 3, 3), (12, 0, 6, 6)]:
        pair = [cycles(*(x for x in (a, b) if x)), cycles(*(x for x in (c, d) if x))]
        yield pair[0], pair[1]
        if a + b <= 10:  # the 12-vertex complements take ~10^5 nodes
            yield complement(pair[0]), complement(pair[1])
        yield pair[0], relabelled(rng, pair[0])


def test_isomorphism_search_matches_recursive_reference(monkeypatch):
    """Same mapping (or None) and the same node count, so the budget
    fires at the same values, on isomorphic and non-isomorphic pairs."""
    searched = {True: 0, False: 0}  # by outcome: isomorphic or refuted
    for g1, g2 in isomorphism_cases():
        expected, nodes = recursive_are_isomorphic(g1, g2)
        assert are_isomorphic(g1, g2) == expected
        with monkeypatch.context() as patch:
            patch.setattr(graphs, "ISO_NODE_BUDGET", nodes)
            assert are_isomorphic(g1, g2) == expected
            if nodes:
                searched[expected is not None] += 1
                patch.setattr(graphs, "ISO_NODE_BUDGET", nodes - 1)
                with pytest.raises(SearchBudgetExceeded):
                    are_isomorphic(g1, g2)
    assert searched[True] >= 80 and searched[False] >= 5


def test_isomorphism_deeper_than_the_recursion_limit():
    mapping = are_isomorphic(edgeless_graph(1200), edgeless_graph(1200))
    assert mapping == list(range(1200))
    path = graph_from_edges(1200, [(i, i + 1) for i in range(1199)])
    mapping = are_isomorphic(path, relabelled(random.Random(4), path))
    assert mapping is not None and sorted(mapping) == list(range(1200))


def test_isomorphism_matches_recursive_reference_on_larger_graphs(monkeypatch):
    """The incremental vertex order and the per-frame candidate masks give
    the reference's mapping and node count on a few hundred vertices."""
    rng = random.Random(31)
    pairs = [(cycles(50, 50, 50), relabelled(rng, cycles(50, 50, 50))),
             (cycles(20, 20), cycles(15, 25))]  # both need backtracking
    for n, p in [(120, 0.03), (200, 0.02), (300, 0.01)]:
        g = random_graph(rng, n, p)
        pairs += [(g, relabelled(rng, g)), (g, relabelled(rng, edge_switched(rng, g)))]
    for g1, g2 in pairs:
        expected, nodes = recursive_are_isomorphic(g1, g2)
        monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", nodes)
        assert are_isomorphic(g1, g2) == expected
        if nodes:
            monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", nodes - 1)
            with pytest.raises(SearchBudgetExceeded):
                are_isomorphic(g1, g2)


def test_isomorphism_of_large_sparse_graphs():
    assert are_isomorphic(edgeless_graph(4000), edgeless_graph(4000)) == list(range(4000))
    star = graph_from_edges(3000, [(0, i) for i in range(1, 3000)])
    mapping = are_isomorphic(star, relabelled(random.Random(6), star))
    assert mapping is not None and sorted(mapping) == list(range(3000))


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(complete_multipartite([1, 1, 1, 2])) == 3
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert vertex_connectivity(path3) == 1
    disconnected = graph_from_edges(4, [(0, 1), (2, 3)])
    assert vertex_connectivity(disconnected) == 0
    assert vertex_connectivity(edgeless_graph(1)) == 0
    for g in (complete_graph(4), edgeless_graph(3), edgeless_graph(1)):
        with pytest.raises(ValueError, match="at_most must be non-negative, not -1"):
            vertex_connectivity(g, at_most=-1)


@pytest.mark.parametrize("parts", [[1, 1, 2], [2, 2, 2], [3, 1, 1, 1], [2, 2, 6],
                                   [4, 4, 4], [1, 1, 1, 1, 8], [5, 5, 5],
                                   [2, 2, 2, 2, 2, 10], [10, 10, 10]])
def test_multipartite_connectivity_formula(parts):
    g = complete_multipartite(parts)
    assert vertex_connectivity(g) == sum(parts) - max(parts)


def test_connectivity_against_brute_force():
    """Random graphs, and the cases the flow loop meets with no code of
    their own: n <= 1, edgeless, disconnected and complete, at every cap."""
    k4_and_edge = graph_from_edges(6, list(complete_graph(4).edges) + [(4, 5)])
    isolated_zero = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
    cases = [edgeless_graph(0), edgeless_graph(1), edgeless_graph(2), edgeless_graph(5),
             complete_graph(2), complete_graph(3), complete_graph(6), k4_and_edge, isolated_zero]
    rng = random.Random(23)
    for trial in range(25):
        cases.append(random_graph(rng, rng.randint(2, 8), p=rng.choice([0.3, 0.5, 0.8])))
    for g in cases:
        kappa = brute_vertex_connectivity(g)
        assert vertex_connectivity(g) == kappa
        for k in range(g.vertex_count + 1):
            assert vertex_connectivity(g, at_most=k) == min(kappa, k)


def _assert_connectivity_matches_networkx(nx, g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.vertex_count))
    ref.add_edges_from(g.edges)
    kappa = nx.node_connectivity(ref)
    assert vertex_connectivity(g) == kappa
    for k in range(1, 5):
        assert vertex_connectivity(g, at_most=k) == min(kappa, k)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.8])
def test_connectivity_against_networkx_random(p):
    nx = pytest.importorskip("networkx")
    rng = random.Random(int(p * 100))
    for trial in range(8):
        _assert_connectivity_matches_networkx(nx, random_graph(rng, rng.randint(10, 40), p))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_connectivity_against_networkx_planted_separator(k):
    # Two random blocks meeting only through {0..k-1}: the separator holds
    # the first k sources, so only flows from a later source find it.
    nx = pytest.importorskip("networkx")
    rng = random.Random(k)
    for trial in range(8):
        n = k + rng.randint(k + 1, 15) + rng.randint(k + 1, 15)
        side = [rng.random() < 0.5 for _ in range(n)]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u < k or side[u] == side[v]) and rng.random() < 0.6]
        _assert_connectivity_matches_networkx(nx, graph_from_edges(n, edges))


def test_flow_counts_against_networkx_cubic():
    # Sparse regular graphs make augmenting paths reroute earlier ones.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (build_auxiliary_node_connectivity,
                                                  local_node_connectivity)
    rng = random.Random(3)
    for trial in range(8):
        ref = nx.random_regular_graph(3, 2 * rng.randint(6, 12), seed=rng.randrange(2**32))
        n = ref.number_of_nodes()
        g = graph_from_edges(n, list(ref.edges()))
        aux = build_auxiliary_node_connectivity(ref)
        for s in range(n):
            for t in range(s + 1, n):
                if not g.adjacent(s, t):
                    flow = local_node_connectivity(ref, s, t, auxiliary=aux)
                    assert _max_vertex_disjoint(g, s, t, n) == flow, (trial, s, t)
                    assert _max_vertex_disjoint(g, s, t, 2) == min(flow, 2), (trial, s, t)


@pytest.mark.parametrize("group", [dihedral(10), dicyclic(10), metacyclic(24, 7)],
                         ids=lambda g: g.name)
def test_connectivity_against_networkx_noncommuting(group):
    nx = pytest.importorskip("networkx")
    _assert_connectivity_matches_networkx(nx, noncommuting_graph(group).graph)


def test_graph_file_round_trip(tmp_path):
    g = johnson(5, 2)
    path = tmp_path / "j52.graph"
    write_graph_file(g, path)
    back = read_graph_file(path)
    assert back.adj == g.adj and back.labels == g.labels


def test_graph_file_rejects_malformed(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("graph 3 1\n1 0\n")
    with pytest.raises(ValueError):
        read_graph_file(p)
    p.write_text("graph 3 2\n0 1\n")
    with pytest.raises(ValueError):
        read_graph_file(p)


def test_graph_from_edges_validation():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 5)])
    with pytest.raises(ValueError, match=r"^duplicate edge \(1, 2\)$"):
        graph_from_edges(3, [(2, 1), (1, 2)])


@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (3, 0), (0, 5)])
def test_adjacent_rejects_out_of_range(u, v):
    """A negative vertex must not wrap to the last row: adjacent(-1, 0) on K3
    would be True, and adjacent(0, -1) would raise 'negative shift count'."""
    k3 = complete_graph(3)
    with pytest.raises(IndexError, match="out of range for 3 vertices"):
        k3.adjacent(u, v)
    assert [k3.adjacent(0, x) for x in range(3)] == [False, True, True]


@pytest.mark.parametrize("bad", [-1, -3, 3])
def test_neighbors_rejects_out_of_range(bad):
    """A negative vertex must not wrap to the last row: neighbors(-1) on K3
    would be [0, 1]."""
    k3 = complete_graph(3)
    with pytest.raises(IndexError, match="out of range for 3 vertices"):
        k3.neighbors(bad)
    assert [k3.neighbors(x) for x in range(3)] == [[1, 2], [0, 2], [0, 1]]


@pytest.mark.parametrize("bad", [-1, -3, 3])
def test_degree_rejects_out_of_range(bad):
    """A negative vertex must not wrap: degree(-3) on K3 would be 2."""
    k3 = complete_graph(3)
    with pytest.raises(IndexError, match="out of range for 3 vertices"):
        k3.degree(bad)
    assert [k3.degree(x) for x in range(3)] == [2, 2, 2]
