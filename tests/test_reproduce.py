"""The structural rc2 route of the reproduce pipeline on relabelled groups."""

import random

from ncrainbow.graphs import detect_complete_multipartite
from ncrainbow.groups import dihedral, direct_product, group_from_cayley_table
from ncrainbow.ncgraph import noncommuting_graph
from ncrainbow.reproduce import EXPECTED_FLAGGED, certify_by_structure, standard_suite


def relabelled(group, seed):
    """The same group with its elements renamed by a seeded permutation."""
    n = group.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[group.table[x][y]]
    return group_from_cayley_table(table, name=f"{group.name}@{seed}")


def test_flagged_groups_certify_under_relabelling():
    flagged = [g for g in standard_suite() if g.name in EXPECTED_FLAGGED]
    assert len(flagged) == len(EXPECTED_FLAGGED) == 22
    for group in flagged:
        for seed in range(3):
            cert = certify_by_structure(noncommuting_graph(relabelled(group, seed)))
            assert cert is not None, (group.name, seed)
            assert (cert.rc2, cert.lower_bound) == (2, 2), (group.name, seed)


def test_groups_outside_both_models_get_no_certificate():
    a4 = next(g for g in standard_suite() if g.name == "a4")
    graph = noncommuting_graph(a4).graph
    assert detect_complete_multipartite(graph) == [2, 2, 2, 2, 3]  # not m parts of l plus l*n
    assert certify_by_structure(noncommuting_graph(a4)) is None
    d6xd6 = noncommuting_graph(direct_product(dihedral(3), dihedral(3)))
    assert detect_complete_multipartite(d6xd6.graph) is None
    assert d6xd6.graph.vertex_count != 30  # so not the J(6,2) fiber graph either
    assert certify_by_structure(d6xd6) is None
