import json
from fractions import Fraction
from math import comb

import pytest

from ncrainbow import bounds
from ncrainbow.bounds import (DyadicBound, coarse_bound, coarse_bound_holds,
                              failure_bound, mid_bound, scan_exception_report,
                              threshold_for_k, write_bound_reports)
from ncrainbow.groups import cyclic, dicyclic, dihedral, direct_product, metacyclic
from ncrainbow.ncgraph import AbelianGroup, noncommuting_graph, pair_profile
from util import brute_pair_profile, brute_pairs

SUITE = [dihedral(n) for n in range(3, 9)] + [dicyclic(m) for m in (2, 3, 4)] + [
    metacyclic(8, 3), metacyclic(8, 5), direct_product(dihedral(3), cyclic(3))]


def ordered_pair_accumulation(group):
    """Reference value computed exactly as two ordered-pair sweeps, halved:
    the non-commuting pairs contribute (1/2)^t, the commuting ones
    (1/2)^t + t(1/2)^t, with t = |G| - |C(x) ∪ C(y)| from element sets."""
    n = group.order
    elements = list(range(n))
    centralizer = {
        g: {x for x in elements if group.mul(x, g) == group.mul(g, x)}
        for g in elements
    }
    central = {g for g in elements if len(centralizer[g]) == n}
    k = Fraction(0)
    s = Fraction(0)
    for x in elements:
        if x in central:
            continue
        for y in elements:
            if y in central or y == x:
                continue
            t = n - len(centralizer[x] | centralizer[y])
            if group.mul(x, y) != group.mul(y, x):
                k += Fraction(1, 2) ** t
            else:
                s += Fraction(1, 2) ** t + t * Fraction(1, 2) ** t
    return (s + k) / 2


def test_pinned_values():
    assert failure_bound(dihedral(3), 2) == Fraction(19, 8)
    assert failure_bound(dihedral(4), 2) == Fraction(63, 16)
    assert failure_bound(dihedral(3), 3) == Fraction(55, 8)


@pytest.mark.parametrize("group", SUITE, ids=lambda g: g.name)
def test_matches_ordered_pair_oracle(group):
    assert failure_bound(group, 2) == ordered_pair_accumulation(group)


def per_pair_sum(group, k):
    """One Fraction per pair: P(fewer than k-1 bichromatic 2-paths among
    tau) for an adjacent pair, fewer than k for a non-adjacent one."""
    total = Fraction(0)
    for t, adjacent in brute_pairs(group):
        need = k - 1 if adjacent else k
        total += sum(Fraction(comb(t, i), 2 ** t) for i in range(need))
    return total


@pytest.mark.parametrize("group", SUITE, ids=lambda g: g.name)
def test_pair_profile_matches_brute(group):
    assert pair_profile(noncommuting_graph(group)) == brute_pair_profile(group)


@pytest.mark.parametrize("group", SUITE, ids=lambda g: g.name)
@pytest.mark.parametrize("k", [3, 4, 5])
def test_matches_per_pair_oracle(group, k):
    assert failure_bound(group, k) == per_pair_sum(group, k)


@pytest.mark.parametrize("group", SUITE[:6], ids=lambda g: g.name)
def test_nondecreasing_in_k(group):
    values = [failure_bound(group, k) for k in range(2, 6)]
    assert values == sorted(values)


@pytest.mark.parametrize("group", SUITE, ids=lambda g: g.name)
def test_denominator_is_power_of_two(group):
    den = failure_bound(group, 2).denominator
    assert den & (den - 1) == 0


def test_failure_bound_guards():
    with pytest.raises(AbelianGroup):
        failure_bound(cyclic(6), 2)
    with pytest.raises(ValueError):
        failure_bound(dihedral(3), 1)


def test_failure_bound_work_does_not_grow_with_k(monkeypatch):
    calls = 0

    def counted_comb(n, r):
        nonlocal calls
        calls += 1
        assert calls <= 10_000, "failure_bound sums terms past the common neighbour count"
        return comb(n, r)

    monkeypatch.setattr(bounds, "comb", counted_comb)
    # each pair's binomial tail is all of 2^t, so the bound is the pair count C(17, 2)
    assert failure_bound(dihedral(9), 10 ** 12) == 136


def test_coarse_bound():
    assert coarse_bound_holds(114)
    assert not coarse_bound_holds(108)
    assert coarse_bound_holds(6000)
    assert coarse_bound(114).prefactor == Fraction(114 ** 3, 4)


def test_mid_bound_values():
    b = mid_bound(114, 1)
    assert b.prefactor == Fraction(113 * 12878, 4)
    assert mid_bound(6, 6).prefactor == 0
    with pytest.raises(ValueError):
        mid_bound(10, 4)   # 4 does not divide 10


def test_mid_below_coarse():
    for n in range(4, 301):
        for z in range(2, n):
            if n % z == 0:
                assert mid_bound(n, z).leq(coarse_bound(n))


def test_dyadic_exactness():
    # 6 | n: the rational value and the sixth-power comparison agree.
    for n in (108, 114, 120):
        b = coarse_bound(n)
        assert b.less_than_one() == (b.prefactor / 2 ** (n // 6) < 1)
    assert DyadicBound(Fraction(0), 10).less_than_one()


def test_thresholds():
    assert threshold_for_k(2) == 126
    assert threshold_for_k(3) == 180
    values = [threshold_for_k(k) for k in range(2, 7)]
    assert values == sorted(values)
    # the hand checks bracketing the k=2 threshold
    assert 120 ** 2 + 120 ** 3 > 2 ** 20
    assert 126 ** 2 + 126 ** 3 < 2 ** 21


def test_scan_reports():
    groups = [dihedral(3), dihedral(9), cyclic(4)]
    reports = scan_exception_report(groups)
    assert [r.group_name for r in reports] == ["D6", "D18", "Z4"]
    assert reports[0].flagged and not reports[1].flagged
    assert reports[1].passes
    assert reports[2].error == "AbelianGroup"
    assert not reports[2].flagged and not reports[2].passes


def test_report_serialization(tmp_path):
    reports = scan_exception_report([dihedral(3)])
    path = tmp_path / "reports.json"
    write_bound_reports(reports, path)
    doc = json.loads(path.read_text())
    assert doc[0] == {"id": "D6", "order": 6, "center_size": 1,
                      "p_num": "19", "p_den": "8", "flagged": True}
