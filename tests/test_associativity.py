"""Light's associativity test against the exhaustive O(n^3) oracle.

Each base group is relabelled by a random permutation that may move its
identity off index 0. Intercalate swaps (exchanging the entries of a 2x2
Latin subsquare off the identity's row and column) keep a table Latin
with that identity, so only associativity can fail. Every mutated table
must be accepted exactly when the oracle finds no failing triple, and a
rejection must name a triple that really fails in the table as given.
"""

import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncrainbow.groups import (AssociativityViolation, cyclic, dicyclic, dihedral,
                              direct_product, group_from_cayley_table)
from util import brute_associativity_violation

BASES = [dihedral(3), dihedral(4), dihedral(5), dihedral(6), dicyclic(2), dicyclic(3),
         cyclic(7), cyclic(8), direct_product(cyclic(2), cyclic(4))]


def intercalates(table, e):
    """(a, b, c, d) with rows a < b, columns c < d off the identity e, and a Latin 2x2 subsquare."""
    off = [x for x in range(len(table)) if x != e]
    return [(a, b, c, d)
            for a in off for b in off if a < b
            for c in off for d in off if c < d
            if table[a][c] == table[b][d] and table[a][d] == table[b][c]]


@st.composite
def mutated_tables(draw):
    base = draw(st.sampled_from(BASES))
    n = base.order
    perm = draw(st.permutations(range(n)))  # the identity moves to perm[0]
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[base.table[x][y]]
    for pick in draw(st.lists(st.integers(min_value=0), max_size=3)):
        squares = intercalates(table, perm[0])
        if not squares:
            break
        a, b, c, d = squares[pick % len(squares)]
        table[a][c], table[a][d] = table[a][d], table[a][c]
        table[b][c], table[b][d] = table[b][d], table[b][c]
    return table


@settings(max_examples=300, deadline=None)
@given(mutated_tables())
def test_light_test_agrees_with_exhaustive_oracle(table):
    witness = brute_associativity_violation(table)
    if witness is None:
        assert group_from_cayley_table(table).order == len(table)
        return
    with pytest.raises(AssociativityViolation) as err:
        group_from_cayley_table(table)
    x, y, z = map(int, re.search(r"\((\d+)\*(\d+)\)\*(\d+) =", str(err.value)).groups())
    assert table[table[x][y]][z] != table[x][table[y][z]]
