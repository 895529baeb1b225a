"""groups._validate_table raises the same error class and message, naming
the same first failing row, column or triple, as the sorted-row reference
in util.py, on group tables damaged in seven ways."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncrainbow.groups import (GroupError, _validate_table, cyclic, dicyclic, dihedral,
                              direct_product, metacyclic)
from util import reference_validate_table

BASES = [dihedral(3), dihedral(4), dihedral(5), dicyclic(2), dicyclic(3), metacyclic(8, 3),
         cyclic(1), cyclic(2), cyclic(7), direct_product(cyclic(2), cyclic(4))]


def overwrite(table, a, b, c, d):
    table[a][b] = c


def swap_entries(table, a, b, c, d):
    """Row a stays a permutation; columns b and c do not."""
    table[a][b], table[a][c] = table[a][c], table[a][b]


def resize(table, a, b, c, d):
    """Drop row a's last entry, or repeat its entry b at the end."""
    if c % 2:
        table[a].append(table[a][b])
    else:
        del table[a][-1:]


def swap_rows(table, a, b, c, d):
    table[a], table[b] = table[b], table[a]


def swap_columns(table, a, b, c, d):
    for row in table:
        row[a], row[b] = row[b], row[a]


def move_identity(table, a, b, c, d):
    """Rename elements 0 and a: a valid group with its identity at a."""
    n = len(table)
    perm = list(range(n))
    perm[0], perm[a] = a, 0
    table[:] = [[perm[table[perm[x]][perm[y]]] for y in range(n)] for x in range(n)]


def intercalate(table, a, b, c, d):
    """Exchange the entries of the first 2x2 Latin subsquare at or after
    rows a < b and columns c < d; Latin and the identity survive."""
    n = len(table)
    squares = [(p, q, r, s) for p in range(1, n) for q in range(p + 1, n)
               for r in range(1, n) for s in range(r + 1, n)
               if table[p][r] == table[q][s] and table[p][s] == table[q][r]]
    if squares:
        p, q, r, s = squares[(a * n + c) % len(squares)]
        table[p][r], table[p][s] = table[p][s], table[p][r]
        table[q][r], table[q][s] = table[q][s], table[q][r]


MUTATIONS = [overwrite, swap_entries, swap_rows, swap_columns, move_identity, intercalate]


def outcome(validate, table):
    try:
        validate(table, "T")
    except GroupError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def damaged_tables(draw):
    base = draw(st.sampled_from(BASES))
    n = base.order
    table = [list(row) for row in base.table]
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        a, b, c, d = (draw(st.integers(0, n - 1)) for _ in range(4))
        mutate(table, a, b, c, d)
    if draw(st.booleans()):  # last, since the others need rows of n
        resize(table, *(draw(st.integers(0, n - 1)) for _ in range(2)), draw(st.integers(0, 1)), 0)
    return table


@settings(max_examples=400, deadline=None)
@given(damaged_tables())
def test_validator_errors_match_the_reference(table):
    assert outcome(_validate_table, table) == outcome(reference_validate_table, table)


def test_each_damage_reaches_its_error():
    base = [list(row) for row in dihedral(4).table]
    messages = []
    for mutate, args in [(overwrite, (3, 5, 0, 0)), (swap_entries, (3, 2, 6, 0)),
                         (resize, (4, 0, 0, 0)), (resize, (6, 2, 1, 0)), (swap_rows, (2, 5, 0, 0)),
                         (swap_columns, (2, 5, 0, 0)), (move_identity, (3, 0, 0, 0)),
                         (intercalate, (1, 0, 1, 0))]:
        table = [row[:] for row in base]
        mutate(table, *args)
        got = outcome(_validate_table, table)
        assert got == outcome(reference_validate_table, table)
        messages.append(got and got[1])
    assert messages == [
        "T: row 3 is not a permutation of 0..7",
        "T: column 2 is not a permutation of 0..7",
        "T: row 4 is not a permutation of 0..7",
        "T: row 6 is not a permutation of 0..7",
        "T: index 0 is not a two-sided identity",
        "T: index 0 is not a two-sided identity",
        "T: index 0 is not a two-sided identity",
        messages[-1],
    ]
    assert messages[-1].startswith("T: (")  # an associativity triple
