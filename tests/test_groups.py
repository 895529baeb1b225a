import random

import pytest

from ncrainbow import groups
from ncrainbow.groups import (AssociativityViolation, Group, InvalidTwist, NoIdentity,
                              NotAutomorphism, NotCentral, NotHomomorphism,
                              NotLatinSquare, OrderMismatch, _two_generator_table,
                              central_product, cyclic, dicyclic, dihedral, direct_product,
                              group_from_cayley_table, load_cayley_table, metacyclic,
                              semidirect_product, write_cayley_table)
from ncrainbow.reproduce import standard_suite
from util import (brute_center, brute_centralizers, group_isomorphism, mask_members,
                  reference_relabel, relabel_table)

S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1],
    [4, 5, 1, 0, 3, 2],
    [5, 4, 3, 2, 1, 0],
]


def test_trivial_group():
    g = group_from_cayley_table([[0]])
    assert g.order == 1
    assert g.is_abelian


def test_s3_from_table():
    g = group_from_cayley_table(S3_TABLE)
    assert g.order == 6
    assert g.center_mask.bit_count() == 1
    assert mask_members(g.center_mask) == brute_center(S3_TABLE)


def test_associativity_violation_reported():
    # A non-associative loop of order 5: Latin with identity and inverses,
    # but (1*1)*2 = 2 while 1*(1*2) = 4.
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 1, 0],
        [3, 4, 0, 2, 1],
        [4, 2, 1, 0, 3],
    ]
    with pytest.raises(AssociativityViolation):
        group_from_cayley_table(loop)


def test_identity_relocated_to_zero():
    # Swap labels 0 and 2 in S3 so the identity sits at index 2.
    perm = [2, 1, 0, 3, 4, 5]
    shuffled = [[perm[S3_TABLE[perm[a]][perm[b]]] for b in range(6)] for a in range(6)]
    names = [f"n{perm[i]}" for i in range(6)]
    g = group_from_cayley_table(shuffled, names)
    assert g.table[0] == tuple(range(6))
    assert g.names[0] == "n0"
    assert g.center_mask.bit_count() == 1


@pytest.mark.parametrize("group", [dihedral(3), dicyclic(2), dihedral(5),
                                   direct_product(dihedral(4), cyclic(2))],
                         ids=lambda g: g.name)
def test_in_place_relabel_matches_the_itemgetter_reference(group):
    """With the identity at every index in turn, the imported table and
    names equal the copying relabel's, and the caller's rows are untouched
    although the rows the import owns are swapped in place."""
    rng = random.Random(group.order)
    for i in range(group.order):
        perm = rng.sample(range(group.order), group.order)
        j = perm.index(i)
        perm[0], perm[j] = i, perm[0]  # the identity, element 0, goes to index i
        table, names = relabel_table(group, perm)
        rows, before = list(table), [list(row) for row in table]
        imported = group_from_cayley_table(table, names, group.name)
        assert table == before and all(a is b for a, b in zip(table, rows))
        assert (imported.table, imported.names) == reference_relabel(before, names, i)
        assert imported.table[0] == tuple(range(group.order))


def test_identity_found_anywhere():
    # Z2 written with the identity at index 1 is still accepted.
    g = group_from_cayley_table([[1, 0], [0, 1]])
    assert g.table == ((0, 1), (1, 0))


def test_no_identity():
    with pytest.raises(NoIdentity):
        group_from_cayley_table([[1, 0], [0, 0]])


# Z3 written with its identity at index 2.
Z3_AT_2 = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]


@pytest.mark.parametrize("bad", [1, -1, -2, -3, 3, 7])
def test_errors_name_the_callers_rows_and_never_wrap(bad):
    """A bad row is named in the caller's labels, not the relabelled ones.
    itemgetter reads a negative index from the end, so a relabel before
    validation would have turned -1 into a real element."""
    for i in range(2):
        table = [row[:] for row in Z3_AT_2]
        table[i][1] = bad
        with pytest.raises(NotLatinSquare, match=rf"^T: row {i} is not a permutation of 0\.\.2$"):
            group_from_cayley_table(table, name="T")


def test_an_imported_table_is_validated_once_in_its_own_labels(monkeypatch):
    seen = []
    real = groups._validate_table

    def spy(table, name, identity=0):
        seen.append(([list(row) for row in table], identity))
        real(table, name, identity)

    monkeypatch.setattr(groups, "_validate_table", spy)
    g = group_from_cayley_table(Z3_AT_2)
    assert seen == [(Z3_AT_2, 2)]
    assert g.table == cyclic(3).table


def test_cyclic_groups():
    assert cyclic(1).order == 1
    z3 = cyclic(3)
    assert z3.is_abelian and z3.center_mask.bit_count() == 3
    assert cyclic(4).element_order(1) == 4


@pytest.mark.parametrize("n,center_size", [(3, 1), (4, 2), (5, 1), (6, 2),
                                           (7, 1), (8, 2), (9, 1), (10, 2)])
def test_dihedral_center(n, center_size):
    g = dihedral(n)
    assert g.order == 2 * n
    assert g.center_mask.bit_count() == center_size
    assert mask_members(g.center_mask) == brute_center([list(r) for r in g.table])


def test_dicyclic():
    q8 = dicyclic(2)
    assert q8.order == 8
    assert mask_members(q8.center_mask) == [0, 2]
    q12 = dicyclic(3)
    assert q12.order == 12
    # b^2 = a^m: element b is at index 2m.
    for m, g in ((2, q8), (3, q12)):
        b = 2 * m
        assert g.mul(b, b) == m


def test_metacyclic():
    sd16 = metacyclic(8, 3)
    assert sd16.order == 16 and sd16.center_mask.bit_count() == 2
    m42 = metacyclic(8, 5)
    assert m42.center_mask.bit_count() == 4
    with pytest.raises(InvalidTwist):
        metacyclic(5, 2)


@pytest.mark.parametrize("m", range(3, 9))
def test_metacyclic_twist_minus_one_is_dihedral(m):
    assert group_isomorphism(metacyclic(m, m - 1), dihedral(m)) is not None


@pytest.mark.parametrize("n", range(1, 41))
def test_two_generator_table_matches_the_entry_formula(n):
    """The table built from rotated slices equals the product rule applied
    entry by entry, for every involution twist and flip powers 0 and n/2."""
    for t in (t for t in range(n) if t * t % n == 1 % n):
        for f in (0, n // 2) if n % 2 == 0 else (0,):
            expected = [[(i + j) % n for j in range(n)] + [n + (i + j) % n for j in range(n)]
                        for i in range(n)]
            expected += [[n + (i + t * j) % n for j in range(n)]
                         + [(i + t * j + f) % n for j in range(n)] for i in range(n)]
            assert _two_generator_table(n, twist=t, flip_power=f)[0] == expected


def test_direct_product():
    d6z3 = direct_product(dihedral(3), cyclic(3))
    assert d6z3.order == 18 and d6z3.center_mask.bit_count() == 3
    assert direct_product(dicyclic(2), cyclic(3)).order == 24
    g = dihedral(4)
    with_trivial = direct_product(g, cyclic(1))
    assert with_trivial.table == g.table


@pytest.mark.parametrize("a,b", [(dihedral(3), cyclic(2)), (dicyclic(2), cyclic(3)),
                                 (dihedral(4), dihedral(3))])
def test_center_of_product_multiplies(a, b):
    prod = direct_product(a, b)
    assert prod.center_mask.bit_count() == (a.center_mask.bit_count()
                                            * b.center_mask.bit_count())


def test_semidirect_trivial_action_is_direct():
    z3, z2 = cyclic(3), cyclic(2)
    ident = list(range(3))
    sd = semidirect_product(z3, z2, [ident, ident])
    assert sd.table == direct_product(z3, z2).table


@pytest.mark.parametrize("g,h", [(dihedral(3), cyclic(4)), (dicyclic(2), dihedral(4)),
                                 (cyclic(5), dicyclic(3))])
def test_direct_product_table_is_componentwise(g, h):
    # Index (x, y) -> x*|H| + y multiplies componentwise, and the identity
    # action makes the semidirect product the same table.
    nh = h.order
    expected = tuple(
        tuple(g.table[x1][x2] * nh + h.table[y1][y2] for x2 in range(g.order) for y2 in range(nh))
        for x1 in range(g.order) for y1 in range(nh))
    prod = direct_product(g, h)
    assert prod.table == expected
    ident = list(range(g.order))
    assert semidirect_product(g, h, [ident] * nh).table == expected


def test_semidirect_inversion_is_dihedral():
    z3, z2 = cyclic(3), cyclic(2)
    sd = semidirect_product(z3, z2, [[0, 1, 2], [0, 2, 1]])
    assert group_isomorphism(sd, dihedral(3)) is not None


def test_semidirect_rejects_bad_action():
    z3, z4 = cyclic(3), cyclic(4)
    ident = list(range(3))
    inv = [0, 2, 1]
    with pytest.raises(NotHomomorphism):
        # inversion at h=1 but identity at h=2 breaks action(1*1) = action(1)^2
        semidirect_product(z3, z4, [ident, inv, inv, ident])
    with pytest.raises(NotAutomorphism):
        semidirect_product(z3, cyclic(2), [ident, [1, 0, 2]])


@pytest.mark.parametrize("action,message", [
    ([[0, 1, 2], [0, 2, 1.0]], "action[1] contains 1.0, not an int"),
    ([[0, 1, 2], [0, 2, "1"]], "action[1] contains '1', not an int"),
    ([[0, 1, 2], [0, 2, [1]]], "action[1] contains [1], not an int"),
    ([[0, 1, 2], [0, 2, True]], "action[1] contains True, not an int"),
    ([[False, 1, 2], [0, 2, 1]], "action[0] contains False, not an int"),
    ([[0, 1, 2], 5], "action[1] must be a list of ints, not int"),
    (5, "action must be a list of 2 permutations, not int"),
    ({0: [0, 1, 2], 1: [0, 2, 1]}, "action must be a list of 2 permutations, not dict"),
], ids=repr)
def test_semidirect_refuses_an_action_that_is_not_lists_of_ints(action, message):
    """A bool is no int: [0, 2, True] once passed as the inversion of Z3."""
    with pytest.raises(ValueError) as info:
        semidirect_product(cyclic(3), cyclic(2), action)
    assert str(info.value) == message


def test_central_products():
    d8 = dihedral(4)
    q8 = dicyclic(2)
    g1 = central_product(d8, d8, 2, 2)
    assert g1.order == 32 and g1.center_mask.bit_count() == 2
    g2 = central_product(d8, q8, 2, 2)
    assert g2.order == 32 and g2.center_mask.bit_count() == 2
    with pytest.raises(NotCentral):
        central_product(d8, d8, 1, 2)
    with pytest.raises(OrderMismatch):
        central_product(cyclic(4), cyclic(2), 1, 1)


@pytest.mark.parametrize("bad", [-1, 8])
def test_central_product_rejects_out_of_range(bad):
    # Out-of-range indices are not central; they never reach a mask shift.
    d8 = dihedral(4)
    with pytest.raises(NotCentral):
        central_product(d8, d8, bad, 2)
    with pytest.raises(NotCentral):
        central_product(d8, d8, 2, bad)


@pytest.mark.parametrize("group", [g for g in standard_suite() if g.order == 16],
                         ids=lambda g: g.name)
def test_order16_center_matches_brute(group):
    brute = brute_center([list(r) for r in group.table])
    assert group.center_mask.bit_count() == len(brute)
    assert mask_members(group.center_mask) == brute


def test_centralizers():
    d6 = dihedral(3)
    assert mask_members(d6.centralizer_mask(1)) == [0, 1, 2]     # <r>
    assert mask_members(d6.centralizer_mask(3)) == [0, 3]        # {e, s}
    assert d6.centralizer_mask(0).bit_count() == d6.order


@pytest.mark.parametrize("group, center_size", [
    (semidirect_product(cyclic(7), cyclic(3),
                        [[pow(2, y, 7) * x % 7 for x in range(7)] for y in range(3)]), 1),
    (dihedral(75), 1), (dihedral(50), 2), (direct_product(dihedral(5), cyclic(6)), 6),
    (metacyclic(100, 51), 50), (cyclic(12), 12), (direct_product(cyclic(2), cyclic(4)), 8),
], ids=lambda g: getattr(g, "name", None))
def test_centralizers_match_the_brute_oracle_at_every_center_size(group, center_size,
                                                                   monkeypatch):
    """Relabelled at random, so no coset of Z is a run of indices, every
    centralizer equals {x : x*g == g*x}, and the center and is_abelian agree
    with them. The center comes from a generating set, so an abelian group
    computes no centralizer per element, and the centralizers take one
    row-against-column comparison per coset xZ of a non-central x."""
    rng = random.Random(group.order)
    table, names = relabel_table(group, rng.sample(range(group.order), group.order))
    g = group_from_cayley_table(table, names, group.name)
    n, brute = g.order, brute_centralizers(g.table)
    center = brute_center(g.table)
    assert len(center) == center_size  # the case's premise, from the oracle alone
    assert g.is_abelian == (center_size == n)
    assert "_centralizer_masks" not in g.__dict__
    assert mask_members(g.center_mask) == center
    compared = []
    commuting = Group._commuting
    monkeypatch.setattr(Group, "_commuting",
                        lambda self, x: compared.append(x) or commuting(self, x))
    assert [set(mask_members(g.centralizer_mask(x))) for x in range(n)] == brute
    assert len(compared) == n // center_size - 1


@pytest.mark.parametrize("bad", [-1, 6])
def test_centralizer_mask_rejects_out_of_range(bad):
    with pytest.raises(IndexError):
        dihedral(3).centralizer_mask(bad)


@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (6, 0), (0, 6)])
def test_mul_rejects_out_of_range(a, b):
    """A negative element must not wrap to the last row: mul(-1, 0) on D6 would be 5."""
    d6 = dihedral(3)
    with pytest.raises(IndexError, match="out of range for order 6"):
        d6.mul(a, b)
    assert [d6.mul(5, x) for x in range(6)] == list(d6.table[5])


@pytest.mark.parametrize("bad", [-1, -6, 6])
def test_inverse_rejects_out_of_range(bad):
    """A negative element must not wrap to the last row: inverse(-1) on D6 would be 5."""
    d6 = dihedral(3)
    with pytest.raises(IndexError, match="out of range for order 6"):
        d6.inverse(bad)
    assert all(d6.mul(x, d6.inverse(x)) == 0 for x in range(6))


@pytest.mark.parametrize("bad", [-1, -6, 6])
def test_element_order_rejects_out_of_range(bad):
    """A negative element must not wrap to the last row: element_order(-1) on D6
    would be 2."""
    d6 = dihedral(3)
    with pytest.raises(IndexError, match="out of range for order 6"):
        d6.element_order(bad)
    assert [d6.element_order(x) for x in range(6)] == [1, 3, 3, 2, 2, 2]


@pytest.mark.parametrize("group", [dihedral(3), dihedral(4), dicyclic(2),
                                   metacyclic(8, 3), direct_product(dihedral(3), cyclic(3))])
def test_centralizer_contains_center_and_divides(group):
    center = group.center_mask
    for g in range(group.order):
        c = group.centralizer_mask(g)
        assert group.order % c.bit_count() == 0
        assert center & ~c == 0
        assert c >> g & 1
        members = set(mask_members(c))
        assert members == {x for x in range(group.order)
                           if group.mul(x, g) == group.mul(g, x)}
        for a in members:  # subgroup closure
            for b in members:
                assert group.mul(a, b) in members


def test_cayley_file_round_trip(tmp_path):
    g = dicyclic(3)
    path = tmp_path / "q12.cay"
    write_cayley_table(g, path)
    back = load_cayley_table(path)
    assert back.table == g.table
    assert back.names == g.names


def test_loader_rejects_malformed(tmp_path):
    p = tmp_path / "bad.cay"
    p.write_text("graph 2 1\n0 1\n")
    with pytest.raises(ValueError):
        load_cayley_table(p)
    p.write_text("cayley 2\n0 1\n")
    with pytest.raises(ValueError):
        load_cayley_table(p)
    p.write_text("cayley 2\n0 0\n1 1\n")
    with pytest.raises((NotLatinSquare, NoIdentity)):
        load_cayley_table(p)
