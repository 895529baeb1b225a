"""Acceptance suite: one test per certified claim, all tolerances exact.

Each test prints a single PASS line (visible with `pytest -s`); the
`ncrainbow reproduce` CLI command runs the same pipeline outside pytest.
"""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from ncrainbow.bounds import (coarse_bound, coarse_bound_holds, failure_bound,
                              lemma_bound, mid_bound, threshold_for_k)
from ncrainbow.check import (brute_force_vertex_connectivity as brute_vertex_connectivity,
                             short_rainbow_counts)
from ncrainbow.colorings import (EdgeColoring, PartitionSpec, j62_graph_and_coloring,
                                 multipartite_two_coloring)
from ncrainbow.graphs import (are_isomorphic, complete_graph, detect_complete_multipartite,
                              graph_from_edges, vertex_connectivity)
from ncrainbow.groups import cyclic, dicyclic, dihedral, direct_product
from ncrainbow.ncgraph import abelian_extension_check, noncommuting_graph, pair_profile
from ncrainbow.rainbow import (FailureWitness, RainbowCertificate, certify_rc2,
                               is_rainbow_k_connected, search_two_coloring,
                               validate_certificate)
from ncrainbow.reproduce import (COLORING_GRID, EXPECTED_FLAGGED, certify_by_structure,
                                 standard_suite)


@pytest.fixture(scope="module")
def suite():
    groups = standard_suite()
    names = {g.name for g in groups}
    required = ({f"D{2 * n}" for n in range(3, 17)}
                | {f"Q{4 * m}" for m in range(2, 9)}
                | {"M(8,3)", "M(8,5)", "D8xZ2", "Q8xZ2",
                   "(Z4)o(D8)", "(Z4):(Z4)", "(Z2xZ2):(Z4)"}
                | {"D6xZ3", "D8xZ3", "Q8xZ3"}
                | {"(D8)o(D8)", "(D8)o(Q8)"}
                | {"s3", "a4"})
    assert required <= names
    return groups


def test_criterion_1_common_neighbor_floor(suite):
    pairs_checked = 0
    for group in suite:
        ncg = noncommuting_graph(group)
        g = ncg.graph
        order = group.order
        centralizers = [
            {x for x in range(order)
             if group.mul(x, e) == group.mul(e, x)}
            for e in ncg.vertex_to_element
        ]
        for x in range(g.vertex_count):
            nx = g.adj[x]
            for y in range(x + 1, g.vertex_count):
                graph_side = (nx & g.adj[y]).bit_count()
                group_side = order - len(centralizers[x] | centralizers[y])
                assert graph_side == group_side, (group.name, x, y)
                assert 6 * graph_side >= order, (group.name, x, y)
                pairs_checked += 1
    print(f"\nACCEPTANCE 1 tau floor and identity: PASS ({pairs_checked} pairs)")


def test_criterion_2_multipartite_structure():
    for n in (3, 5, 7, 9):
        got = detect_complete_multipartite(noncommuting_graph(dihedral(n)).graph)
        assert got == sorted([1] * n + [n - 1]), n
    for n in (4, 6, 8, 10):
        got = detect_complete_multipartite(noncommuting_graph(dihedral(n)).graph)
        assert got == sorted([2] * (n // 2) + [n - 2]), n
    for m in range(2, 7):
        got = detect_complete_multipartite(noncommuting_graph(dicyclic(m)).graph)
        assert got == sorted([2] * m + [2 * m - 2]), m
    print("\nACCEPTANCE 2 multipartite structure: PASS (13 graphs)")


def test_criterion_3_natural_fiber_isomorphism():
    for group, n in ((dihedral(3), 2), (dihedral(3), 3),
                     (dihedral(4), 3), (dicyclic(2), 3)):
        abelian_extension_check(noncommuting_graph(group),
                                noncommuting_graph(direct_product(group, cyclic(n))))
    print("\nACCEPTANCE 3 fiber expansion: PASS (4 cases)")


def test_criterion_4_coloring_grid():
    for l, m, n in COLORING_GRID:
        graph, coloring = multipartite_two_coloring(PartitionSpec(l, m, n))
        result = is_rainbow_k_connected(graph, coloring, 2)
        assert isinstance(result, RainbowCertificate), (l, m, n)
        bundle = certify_rc2(graph, coloring)
        assert bundle.lower_bound == 2
        assert bundle.rc2 == 2
    print(f"\nACCEPTANCE 4 explicit colorings: PASS ({len(COLORING_GRID)} grid points)")


def test_criterion_5_triangle_exclusion():
    k3 = complete_graph(3)
    for bits in range(8):
        coloring = EdgeColoring(k3, 2, [1 + (bits >> i & 1) for i in range(3)])
        assert isinstance(is_rainbow_k_connected(k3, coloring, 2), FailureWitness)
    three = EdgeColoring(k3, 3, [1, 2, 3])
    cert = RainbowCertificate(2, {(0, 1): ((0, 1), (0, 2, 1)), (0, 2): ((0, 2), (0, 1, 2)),
                                  (1, 2): ((1, 2), (1, 0, 2))})
    validate_certificate(k3, three, cert)
    print("\nACCEPTANCE 5 K3 exclusion: PASS (8 colorings refuted, 3-coloring passes)")


def assert_lemma_links(group, ks):
    """Every pair has tau >= |G|/4, failure_bound(G, k) <= lemma_bound(|G|, k)
    for each k in ks, and failure_bound(G, 2) <= mid_bound(|G|, |Z|), the
    paper's per-group link. Returns the k = 2 value."""
    taus = {t for t, _ in pair_profile(group)}
    assert 4 * min(taus) >= group.order, group.name
    values = [failure_bound(group, k) for k in ks]
    for k, value in zip(ks, values):
        assert value <= lemma_bound(group.order, k), (group.name, k)
    assert mid_bound(group.order, group.center_mask.bit_count()).covers(values[0]), group.name
    return values[0]


def test_criterion_6_exception_scan(suite):
    """The computed side of the exception scan, through order 112: the
    flagged set, and every swept and suite group under lemma_bound (the
    suite at k = 2..6) and mid_bound, with each pair's tau at least |G|/4."""
    values = {g.name: assert_lemma_links(g, range(2, 7)) for g in suite}
    flagged = {name for name, value in values.items() if value >= 1}
    assert flagged == set(EXPECTED_FLAGGED)
    assert values["D6"] == Fraction(19, 8)
    assert values["D8"] == Fraction(63, 16)
    for name in ("D18", "D20", "D22", "Q20", "Q24"):
        assert values[name] < 1, name
    for n in range(3, 57):
        assert (assert_lemma_links(dihedral(n), [2]) >= 1) == (n <= 8), n
    for m in range(2, 29):
        assert (assert_lemma_links(dicyclic(m), [2]) >= 1) == (m <= 4), m
    print(f"\nACCEPTANCE 6 exception scan: PASS ({len(flagged)} flagged, "
          "dihedral/dicyclic clean through order 112, each under lemma_bound)")


def test_criterion_7_johnson_fiber():
    start = time.monotonic()
    graph, coloring = j62_graph_and_coloring()
    assert (graph.vertex_count, graph.edge_count) == (30, 240)
    assert isinstance(is_rainbow_k_connected(graph, coloring, 2), RainbowCertificate)
    from ncrainbow.groups import central_product
    for grp in (central_product(dihedral(4), dihedral(4), 2, 2),
                central_product(dihedral(4), dicyclic(2), 2, 2)):
        ncg = noncommuting_graph(grp)
        mapping = are_isomorphic(ncg.graph, graph)
        assert mapping is not None, grp.name
        for u in range(30):
            for v in range(u + 1, 30):
                assert ncg.graph.adjacent(u, v) == graph.adjacent(mapping[u], mapping[v])
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 7 Johnson fiber: PASS (isomorphisms found in {elapsed:.2f}s)")


def test_criterion_8_constructive_rc2(suite):
    searched = structural = 0
    for group in suite:
        ncg = noncommuting_graph(group)
        if failure_bound(group, 2) < 1:
            coloring = search_two_coloring(ncg.graph, 2, 10 ** 4, seed=1)
            assert coloring is not None, group.name
            bundle = certify_rc2(ncg.graph, coloring)
            searched += 1
        else:
            bundle = certify_by_structure(ncg)
            assert bundle is not None, group.name
            structural += 1
        assert bundle.rc2 == 2 and bundle.lower_bound == 2
    print(f"\nACCEPTANCE 8 rc2 across the suite: PASS "
          f"({searched} searched, {structural} structural)")


def test_criterion_9_inequality_chain():
    assert not coarse_bound_holds(108)
    for n in range(114, 2001):
        assert coarse_bound_holds(n), n
    seen = []
    for n in range(3, 301):
        coarse = coarse_bound(n)
        for z in range(1, n):
            if n % z == 0:
                mid = mid_bound(n, z)
                assert mid.sixth_log2 == coarse.sixth_log2, (n, z)
                assert mid.prefactor <= coarse.prefactor, (n, z)
                seen.append((n, z))
    # every proper divisor, z = 1 included: the trivial center of D6, D10, D14 and S3
    assert {(n, 1) for n in range(3, 301)} <= set(seen)
    assert set(seen) == {(n, z) for n in range(3, 301) for d in range(1, isqrt(n) + 1)
                         if n % d == 0 for z in (d, n // d) if z < n}
    print("\nACCEPTANCE 9 inequality chain: PASS (coarse 114..2000, mid <= coarse to 300)")


def test_criterion_10_rainbow_3():
    assert failure_bound(dihedral(3), 3) == Fraction(55, 8)
    g14 = noncommuting_graph(dihedral(7)).graph
    kappa = vertex_connectivity(g14)
    assert kappa >= 3
    coloring = search_two_coloring(g14, 3, 10 ** 5, seed=1)
    assert coloring is not None
    assert coloring.seed == 45_484
    result = is_rainbow_k_connected(g14, coloring, 3)
    assert isinstance(result, RainbowCertificate)
    assert threshold_for_k(2) == 126
    assert threshold_for_k(3) == 180
    assert 120 ** 2 + 120 ** 3 > 2 ** 20          # 120 fails
    assert 126 ** 2 + 126 ** 3 < 2 ** 21          # 126 passes
    thresholds = [threshold_for_k(k) for k in range(2, 7)]
    assert thresholds == sorted(thresholds)
    print(f"\nACCEPTANCE 10 rainbow-3 and thresholds: PASS "
          f"(kappa = {kappa}, winning seed {coloring.seed}, thresholds {thresholds})")


def test_criterion_11_oracle_equivalence():
    rng = random.Random(2024)
    for trial in range(200):
        n = rng.randint(4, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        coloring = EdgeColoring(g, 2, [rng.choice([1, 2]) for _ in edges])
        counts = list(short_rainbow_counts(coloring))
        for k in range(1, max(count for _, count in counts) + 2):
            short = next((FailureWitness(pair, k, count) for pair, count in counts
                          if count < k), None)
            result = is_rainbow_k_connected(g, coloring, k)  # validates each certificate
            if short is None:
                assert isinstance(result, RainbowCertificate), (trial, k)
            else:
                assert result == short, (trial, k)
    checked = 0
    for trial in range(30):
        n = rng.randint(2, 12 if trial < 10 else 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.3, 0.5, 0.8])]
        g = graph_from_edges(n, edges)
        assert vertex_connectivity(g) == brute_vertex_connectivity(g), trial
        checked += 1
    print(f"\nACCEPTANCE 11 oracle equivalence: PASS "
          f"(200 colored graphs, {checked} connectivity cross-checks)")
