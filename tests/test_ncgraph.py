import random
from collections import Counter

import pytest

from ncrainbow.graphs import (Graph, detect_complete_multipartite, read_graph_file,
                              write_graph_file)
from ncrainbow.groups import (central_product, cyclic, dicyclic, dihedral, direct_product,
                              group_from_cayley_table, metacyclic, semidirect_product)
from ncrainbow.ncgraph import (AbelianGroup, BoundViolated, NonCommutingGraph,
                               abelian_extension_check, common_neighbor_floor_check,
                               noncommuting_graph, pair_profile)
from util import inject_min_tau, relabel_table


def both_taus(ncg, x, y, adj=None):
    """tau(x, y) counted on the graph side (ncg's rows, or adj) and from
    |G| - |C(x) ∪ C(y)|."""
    adj, group = adj or ncg.graph.adj, ncg.group
    cx, cy = (group.centralizer_mask(ncg.vertex_to_element[v]) for v in (x, y))
    return (adj[x] & adj[y]).bit_count(), group.order - (cx | cy).bit_count()


def test_small_structures():
    d6 = noncommuting_graph(dihedral(3))
    assert d6.graph.vertex_count == 5 and d6.graph.edge_count == 9
    assert detect_complete_multipartite(d6.graph) == [1, 1, 1, 2]
    d8 = noncommuting_graph(dihedral(4))
    assert detect_complete_multipartite(d8.graph) == [2, 2, 2]
    q8 = noncommuting_graph(dicyclic(2))
    assert detect_complete_multipartite(q8.graph) == [2, 2, 2]


def test_abelian_rejected():
    with pytest.raises(AbelianGroup):
        noncommuting_graph(cyclic(5))
    with pytest.raises(AbelianGroup):
        common_neighbor_floor_check(cyclic(6))
    with pytest.raises(AbelianGroup):
        pair_profile(cyclic(6))


def test_labels_are_element_names():
    ncg = noncommuting_graph(dihedral(3))
    assert ncg.graph.labels == ("r^1", "r^2", "r^0*s", "r^1*s", "r^2*s")


def test_tau_values_d6():
    ncg = noncommuting_graph(dihedral(3))
    # vertex order: r, r^2, s, rs, r^2s
    assert both_taus(ncg, 0, 2) == (2, 2)   # rotation vs reflection
    assert both_taus(ncg, 0, 1) == (3, 3)   # the commuting rotation pair
    assert both_taus(ncg, 2, 3) == (3, 3)   # two reflections
    assert pair_profile(ncg.group) == {(2, True): 6, (3, True): 3, (3, False): 1}


def test_tau_values_d8():
    ncg = noncommuting_graph(dihedral(4))
    g = ncg.graph
    adjacent = next((x, y) for x in range(6) for y in range(x + 1, 6)
                    if g.adjacent(x, y))
    assert both_taus(ncg, *adjacent) == (2, 2)
    assert pair_profile(ncg.group)[(2, True)] == g.edge_count


@pytest.mark.parametrize("group", [dihedral(3), dihedral(4), dihedral(7), dicyclic(2),
                                   dicyclic(3), metacyclic(8, 3),
                                   direct_product(dihedral(3), cyclic(3))])
def test_tau_matches_neighbor_intersection(group):
    # Independent graph-side count via explicit neighbor sets, against both
    # sides of the centralizer-union identity and the library's profile.
    ncg = noncommuting_graph(group)
    g = ncg.graph
    expected = Counter()
    for x in range(g.vertex_count):
        nx = set(g.neighbors(x))
        for y in range(x + 1, g.vertex_count):
            common = len(nx & set(g.neighbors(y)))
            assert both_taus(ncg, x, y) == (common, common)
            expected[(common, g.adjacent(x, y))] += 1
    assert pair_profile(group) == expected


def test_cross_check_catches_a_flipped_edge():
    # Toggle the edge a-b on both sides of the D8 graph: the common-neighbor
    # count of a and any other neighbor c of b moves by one on the graph
    # side only, so the row check must refuse to build the graph.
    ncg = noncommuting_graph(dihedral(4))
    a, b = 0, 1
    c = next(v for v in ncg.graph.neighbors(b) if v != a)
    adj = list(ncg.graph.adj)
    adj[a] ^= 1 << b
    adj[b] ^= 1 << a
    graph = Graph(ncg.graph.vertex_count, ncg.graph.labels, tuple(adj))
    assert both_taus(ncg, a, c) == (2, 2)
    graph_side, group_side = both_taus(ncg, a, c, adj)
    assert graph_side != group_side
    NonCommutingGraph(ncg.graph, ncg.group, ncg.vertex_to_element)
    with pytest.raises(BoundViolated, match="tau mismatch"):
        NonCommutingGraph(graph, ncg.group, ncg.vertex_to_element)


@pytest.mark.parametrize("group", [dihedral(4), dicyclic(3), metacyclic(8, 3),
                                   direct_product(dihedral(3), cyclic(3)),
                                   direct_product(dihedral(4), cyclic(5)),
                                   central_product(dihedral(4), dihedral(4), 2, 2)],
                         ids=lambda g: g.name)
def test_every_single_edge_flip_is_caught(group):
    # Toggling any one vertex pair on both sides makes that pair's row
    # disagree with the group side, whether it adds or removes an edge,
    # so no such graph can be built.
    ncg = noncommuting_graph(group)
    n = ncg.graph.vertex_count
    for a in range(n):
        for b in range(a + 1, n):
            adj = list(ncg.graph.adj)
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            with pytest.raises(BoundViolated, match="tau mismatch"):
                NonCommutingGraph(Graph(n, ncg.graph.labels, tuple(adj)), ncg.group,
                                  ncg.vertex_to_element)


Z7_Z3 = semidirect_product(cyclic(7), cyclic(3),
                           [[pow(2, y, 7) * x % 7 for x in range(7)] for y in range(3)])


@pytest.mark.parametrize("group, center_size", [
    (dihedral(75), 1), (Z7_Z3, 1), (dihedral(50), 2),
    (direct_product(dihedral(5), cyclic(6)), 6), (metacyclic(100, 51), 50),
], ids=lambda g: getattr(g, "name", None))
def test_graph_is_the_commutation_relation_of_a_relabelled_group(group, center_size):
    """Rows are made once per coset of the center and copied to its members.
    Relabelled at random, so the identity moves and no coset is a run of
    vertices, the graph still equals x*y != y*x read from the table."""
    rng = random.Random(group.order)
    for _ in range(2):
        table, names = relabel_table(group, rng.sample(range(group.order), group.order))
        g = group_from_cayley_table(table, names, group.name)
        t, n = g.table, g.order
        vertices = [x for x in range(n) if any(t[x][y] != t[y][x] for y in range(n))]
        assert n - len(vertices) == center_size
        ncg = noncommuting_graph(g)
        assert ncg.vertex_to_element == tuple(vertices)
        assert ncg.graph.labels == tuple(g.names[x] for x in vertices)
        assert ncg.graph.adj == tuple(sum(1 << j for j, y in enumerate(vertices)
                                          if t[x][y] != t[y][x]) for x in vertices)


@pytest.mark.parametrize("group", [dihedral(3), dihedral(4), dicyclic(3), metacyclic(8, 3)])
def test_floor_witness_is_the_first_pair_with_least_tau(group):
    ncg = noncommuting_graph(group)
    g = ncg.graph
    pairs = [(x, y) for x in range(g.vertex_count) for y in range(x + 1, g.vertex_count)]
    taus = [len(set(g.neighbors(x)) & set(g.neighbors(y))) for x, y in pairs]
    x, y = pairs[taus.index(min(taus))]
    min_tau, witness = common_neighbor_floor_check(group)
    assert min_tau == min(taus)
    assert witness == (g.labels[x], g.labels[y])


def test_floor_reports():
    min_tau, witness = common_neighbor_floor_check(dihedral(3))
    assert min_tau == 2 and 6 * min_tau == 2 * 6  # 6*tau/|G| = 2
    assert witness == ("r^1", "r^0*s")
    min_tau, _ = common_neighbor_floor_check(dicyclic(2))
    assert 6 * min_tau >= 8


@pytest.mark.parametrize("n", [3, 24], ids=["D6", "D48"])
def test_floor_guard_passes_at_a_sixth_and_raises_below(monkeypatch, n):
    """6 * tau >= |G| is a theorem, so only an injected tau reaches the guard:
    tau = |G|/6 exactly passes, one less raises. A group makes its pairs
    once, so each injection gets a fresh group."""
    inject_min_tau(monkeypatch, lambda order: order // 6)
    min_tau, _ = common_neighbor_floor_check(dihedral(n))
    assert min_tau == 2 * n // 6 and 6 * min_tau == 2 * n
    inject_min_tau(monkeypatch, lambda order: order // 6 - 1)
    with pytest.raises(BoundViolated, match=f"= {2 * n - 6} < {2 * n}"):
        common_neighbor_floor_check(dihedral(n))


def extension(group, n):
    """The graphs of group and of group x Z_n, for abelian_extension_check."""
    return noncommuting_graph(group), noncommuting_graph(direct_product(group, cyclic(n)))


def test_fiber_expansion_checks():
    for group, n, vertices in ((dihedral(3), 2, 10), (dihedral(3), 3, 15),
                               (dihedral(3), 1, 5), (dicyclic(2), 3, 18)):
        base, extended = extension(group, n)
        assert abelian_extension_check(base, extended) is None
        assert extended.group.order // base.group.order == n
        assert extended.graph.vertex_count == vertices


def test_fiber_expansion_refuses_a_graph_that_is_not_the_product():
    """D12 and Q12 have the order and the graph, up to isomorphism, of
    D6 x Z2, but not its positions."""
    d6, _ = extension(dihedral(3), 2)
    for other in (dihedral(6), dicyclic(3)):
        with pytest.raises(BoundViolated, match=f"{other.name}: not a fiber expansion of D6"):
            abelian_extension_check(d6, noncommuting_graph(other))


@pytest.mark.parametrize("group", [dihedral(n) for n in range(3, 9)]
                         + [dicyclic(m) for m in range(2, 6)])
def test_no_isolated_vertices_and_small_diameter(group):
    ncg = noncommuting_graph(group)
    g = ncg.graph
    assert g.vertex_count == group.order - group.center_mask.bit_count()
    assert all(g.degree(v) > 0 for v in range(g.vertex_count))
    # Diameter <= 2: every non-adjacent pair has a common neighbour.
    n = g.vertex_count
    assert all(g.adjacent(x, y) or g.adj[x] & g.adj[y]
               for x in range(n) for y in range(x + 1, n))


def test_graph_export_round_trip(tmp_path):
    ncg = noncommuting_graph(dicyclic(3))
    path = tmp_path / "q12.graph"
    write_graph_file(ncg.graph, path)
    back = read_graph_file(path)
    assert back.adj == ncg.graph.adj
    assert back.labels == ncg.graph.labels
