"""The twin-class pair profile and floor witness against the brute-force
oracle, on groups whose elements are relabelled at random.

Relabelling moves the identity (so `group_from_cayley_table` swaps it
back to index 0) and reorders the vertices, so the twin classes are no
longer runs of consecutive vertices.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncrainbow.groups import (central_product, cyclic, dicyclic, dihedral, direct_product,
                              group_from_cayley_table, metacyclic)
from ncrainbow.ncgraph import common_neighbor_floor_check, pair_profile
from util import brute_pair_profile, brute_pairs, relabel_table

BASES = ([dihedral(n) for n in range(3, 21)] + [dicyclic(m) for m in range(2, 11)]
         + [dihedral(50), direct_product(dihedral(5), cyclic(6)), metacyclic(60, 49),
            central_product(dihedral(4), dihedral(4), 2, 2)])


@st.composite
def relabelled_groups(draw):
    base = draw(st.sampled_from(BASES))
    table, names = relabel_table(base, draw(st.permutations(range(base.order))))
    return group_from_cayley_table(table, names, name=base.name)


def test_bases_cover_many_and_large_twin_classes():
    classes = {g.name: len(g._twin_classes) for g in BASES[-4:]}
    assert classes == {"D100": 26, "D10xZ6": 6, "M(60,49)": 6, "(D8)o(D8)": 15}


@settings(max_examples=150, deadline=None)
@given(relabelled_groups())
def test_twin_profile_and_floor_witness_match_the_oracle(group):
    assert pair_profile(group) == brute_pair_profile(group)
    center = group.center_mask
    vertices = [e for e in range(group.order) if not center >> e & 1]
    pairs = [(x, y) for i, x in enumerate(vertices) for y in vertices[i + 1:]]
    taus = [t for t, _ in brute_pairs(group)]
    least = min(taus)
    x, y = pairs[taus.index(least)]
    min_tau, witness = common_neighbor_floor_check(group)
    assert min_tau == least
    assert witness == (group.names[x], group.names[y])
