import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from ncrainbow import bounds
from ncrainbow.bounds import (DyadicBound, coarse_bound, coarse_bound_holds,
                              failure_bound, lemma_bound, lemma_threshold, mid_bound,
                              threshold_for_k)
from ncrainbow.graphs import SearchBudgetExceeded
from ncrainbow.groups import cyclic, dicyclic, dihedral, direct_product, metacyclic
from ncrainbow.ncgraph import AbelianGroup, NonCommutingGraph, noncommuting_graph, pair_profile
from ncrainbow.rainbow import certify_rc2, search_two_coloring
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
    assert pair_profile(group) == brute_pair_profile(group)


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


def test_a_bound_builds_no_graph(monkeypatch):
    """failure_bound reads the group's centralizers, so it makes no
    NonCommutingGraph; a build, bound, search and certify, in the order a
    certify run makes them, makes one graph."""
    built = []
    check = NonCommutingGraph.__post_init__

    def counted(ncg):
        built.append(ncg.group.name)
        check(ncg)

    monkeypatch.setattr(NonCommutingGraph, "__post_init__", counted)
    for group in SUITE:
        for k in (2, 3):
            failure_bound(group, k)
    assert built == []
    ncg = noncommuting_graph(dihedral(20))
    assert failure_bound(ncg.group, 2) < 1
    certify_rc2(ncg.graph, search_two_coloring(ncg.graph, 2, 10 ** 4, seed=1))
    assert built == ["D40"]


def test_coarse_bound():
    assert coarse_bound_holds(114)
    assert not coarse_bound_holds(108)
    assert coarse_bound_holds(6000)
    assert coarse_bound(114).prefactor == Fraction(114 ** 3, 4)


def test_coarse_bound_holds_in_bounded_memory():
    """A large n is decided without building q^6 * 2^n, an int n bits long:
    n = 10^8 first, so a build of that int fails the peak check before
    n = 10^12 could ask for 125 GB."""
    for n in (10 ** 8, 10 ** 12):
        tracemalloc.start()
        try:
            assert coarse_bound_holds(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (n, peak)
    assert coarse_bound_holds(114) and not coarse_bound_holds(108)


def test_mid_bound_values():
    b = mid_bound(114, 1)
    assert b.prefactor == Fraction(113 * 12878, 4)
    assert mid_bound(6, 6).prefactor == 0
    with pytest.raises(ValueError):
        mid_bound(10, 4)   # 4 does not divide 10


def test_mid_below_coarse():
    for n in range(4, 301):
        for z in range(1, n):
            if n % z == 0:
                mid, coarse = mid_bound(n, z), coarse_bound(n)
                assert mid.sixth_log2 == coarse.sixth_log2, (n, z)
                assert mid.prefactor <= coarse.prefactor, (n, z)
    # for all n and 1 <= z <= n: the prefactors times 4 differ by
    # n^3 - (n-z)(n^2-2z-zn-2) = zn(2n-z) + 2(z+1)(n-z) > 0, a cubic identity
    # that agreeing on a 4 x 4 grid proves
    for n in range(1, 5):
        for z in range(1, 5):
            gap = n ** 3 - (n - z) * (n * n - 2 * z - z * n - 2)
            assert gap == z * n * (2 * n - z) + 2 * (z + 1) * (n - z), (n, z)


def test_coarse_induction_step():
    """(n+1)^18 < 2 n^18 exactly from n = 26 on, and (1 + 1/n)^18 falls with n,
    so n^18 < 2^(n+12) at 114 carries to every larger n."""
    assert [n for n in range(1, 2001) if (n + 1) ** 18 < 2 * n ** 18] == list(range(26, 2001))
    assert all(Fraction(n + 2, n + 1) < Fraction(n + 1, n) for n in range(1, 2001))
    assert 115 ** 18 < 2 * 114 ** 18


def test_coarse_bound_holds_from_114_through_20000():
    for n in range(114, 20001):
        assert coarse_bound_holds(n), n


def test_covers_matches_the_fraction_oracle():
    """v <= P * 2^(-n/6) iff v^6 * 2^n <= P^6: at 6 | n the bound itself is
    covered and a value 2^-40 above it is not; a zero cap covers nothing."""
    for n, z in ((6, 1), (12, 2), (114, 1), (114, 2)):
        b = mid_bound(n, z)
        edge = b.prefactor / 2 ** (n // 6)
        assert b.covers(edge) and not b.covers(edge + Fraction(1, 2 ** 40)), (n, z)
    b = mid_bound(40, 2)  # about 141.6
    verdicts = []
    for num in range(1100, 1170):
        value = Fraction(num, 8)
        verdicts.append(b.covers(value))
        assert verdicts[-1] == (value ** 6 * 2 ** 40 <= b.prefactor ** 6), num
    assert True in verdicts and False in verdicts
    assert not mid_bound(6, 6).covers(Fraction(1, 2 ** 10))


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


def test_threshold_refuses_k_over_the_limit_before_the_scan(monkeypatch):
    """With the scan's own bound unusable, a scan that starts raises
    TypeError at once, so SearchBudgetExceeded shows the refusal comes first."""
    monkeypatch.setattr(bounds, "THRESHOLD_SCAN_LIMIT", None)
    with pytest.raises(SearchBudgetExceeded):
        threshold_for_k(bounds.THRESHOLD_MAX_K + 1)
    with pytest.raises(TypeError):  # the largest allowed k does start its scan
        threshold_for_k(bounds.THRESHOLD_MAX_K)


LEMMA_THRESHOLDS = {2: 57, 3: 77, 4: 89, 5: 105, 6: 121}


def test_lemma_thresholds():
    for k, threshold in LEMMA_THRESHOLDS.items():
        assert lemma_threshold(k) == threshold
        assert lemma_bound(threshold - 1, k) >= 1, k
    assert lemma_bound(56, 2) == Fraction(comb(55, 2) * 15, 2 ** 14)
    assert lemma_bound(57, 2) == Fraction(comb(56, 2) * 16, 2 ** 15)


def test_lemma_bound_stays_below_one_through_5000():
    for k, threshold in LEMMA_THRESHOLDS.items():
        for n in range(threshold, 5001):
            assert lemma_bound(n, k) < 1, (k, n)


def test_lemma_bound_sums_at_most_t_plus_one_terms():
    """comb(t, i) = 0 for i > t, so any k > t gives the whole row 2^t and
    the bound C(n-1, 2), without a sum of k terms (t = 25 at n = 100)."""
    assert lemma_bound(100, 10 ** 9) == lemma_bound(100, 26) == comb(99, 2) == 4851


def test_lemma_tail_ratio_identity():
    """P(Bin(t+1) <= k-1) / P(Bin(t) <= k-1) = 1 - C(t, k-1) / (2 S_t), with
    S_t = sum_{i<k} C(t, i): Pascal's rule gives S_{t+1} = 2 S_t - C(t, k-1)."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t", positive=True, integer=True)
    for k in range(2, 9):
        s_t = sum(sympy.binomial(t, i) for i in range(k))
        s_next = sum(sympy.binomial(t + 1, i) for i in range(k))
        ratio = (s_next / 2 ** (t + 1)) / (s_t / 2 ** t)
        claimed = 1 - sympy.binomial(t, k - 1) / (2 * s_t)
        num, _ = sympy.fraction(sympy.together(sympy.expand_func(ratio - claimed)))
        assert sympy.expand(sympy.powsimp(num)) == 0, k


def test_lemma_ratio_inequalities():
    """The two factors of lemma_threshold's proof, exactly: the tail ratio is
    below 3/4 from t = 3k, the pair ratio below 4/3 from t = 8."""
    for k in range(2, 13):
        for t in range(3 * k, 3 * k + 400):
            s_t = sum(comb(t, i) for i in range(k))
            ratio = Fraction(sum(comb(t + 1, i) for i in range(k)), 2 * s_t)
            assert ratio == 1 - Fraction(comb(t, k - 1), 2 * s_t), (k, t)
            assert ratio < Fraction(3, 4), (k, t)
    for t in range(8, 2000):
        assert Fraction(comb(4 * t + 3, 2), comb(4 * t - 1, 2)) < Fraction(4, 3), t
    # 4 C(4t-1, 2) - 3 C(4t+3, 2) = (16t^2 - 108t - 10) / 2, positive from t = 7 on
    for t in range(1, 50):
        assert 2 * (4 * comb(4 * t - 1, 2) - 3 * comb(4 * t + 3, 2)) == 16 * t * t - 108 * t - 10
    assert 16 * 7 ** 2 - 108 * 7 - 10 > 0 > 16 * 6 ** 2 - 108 * 6 - 10


def test_lemma_threshold_refuses_k_over_the_limit_before_the_scan(monkeypatch):
    """As for threshold_for_k: with the scan's bound unusable, a scan that
    starts raises TypeError at once."""
    monkeypatch.setattr(bounds, "THRESHOLD_SCAN_LIMIT", None)
    with pytest.raises(SearchBudgetExceeded):
        lemma_threshold(bounds.THRESHOLD_MAX_K + 1)
    with pytest.raises(TypeError):  # the largest allowed k does start its scan
        lemma_threshold(bounds.THRESHOLD_MAX_K)
