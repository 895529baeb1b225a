"""Exact failure probabilities and threshold inequalities.

Everything here is exact: probabilities are `fractions.Fraction`, and
comparisons involving 2^(n/6) are decided by raising both sides to the
sixth power in big integers. No floating point appears anywhere, because
the interesting classifications (value < 1 versus >= 1) sit right at the
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import SearchBudgetExceeded
from .groups import Group
from .ncgraph import pair_profile


def _tail_count(t: int, r: int) -> int:
    """2^t * P(Bin(t, 1/2) < r): C(t, i) summed over i < r, stopping at i = t."""
    return sum(comb(t, i) for i in range(min(r, t + 1)))


def failure_bound(group: Group, k: int = 2) -> Fraction:
    """Union bound on the probability that a uniform random 2-coloring fails
    to make the non-commuting graph rainbow-k-connected.

    Counts, per pair, the probability of fewer than k disjoint rainbow
    paths of length <= 2: an adjacent pair already has the direct edge
    and needs k-1 bichromatic 2-paths among its tau common neighbors, a
    non-adjacent pair needs k of them, so the per-pair terms are binomial
    tails at 1/2. A pair's term depends only on its tau and adjacency, so
    the sum runs over the keys of `pair_profile`, each term times its
    count, read from the group with no graph built. Exact rational output;
    every denominator is a power of 2. AbelianGroup for an abelian group.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    total = Fraction(0)
    for (t, adjacent), count in pair_profile(group).items():
        total += Fraction(count * _tail_count(t, k - adjacent), 1 << t)
    return total


@dataclass(frozen=True)
class DyadicBound:
    """prefactor * 2^(-sixth_log2 / 6), compared exactly via sixth powers."""

    prefactor: Fraction
    sixth_log2: int

    def less_than_one(self) -> bool:
        if self.prefactor <= 0:
            return True
        p, q = self.prefactor.numerator, self.prefactor.denominator
        if self.sixth_log2 >= (p ** 6).bit_length():  # p^6 < 2^L <= q^6 * 2^L, as q >= 1
            return True
        return p ** 6 < q ** 6 << self.sixth_log2

    def covers(self, value: Fraction) -> bool:
        """Whether a value > 0 is at most this bound: P > 0 and v^6 * 2^L <= P^6."""
        p, q = self.prefactor.numerator, self.prefactor.denominator
        v, w = value.numerator, value.denominator
        return p > 0 and (v * q) ** 6 << self.sixth_log2 <= (p * w) ** 6


def coarse_bound(n: int) -> DyadicBound:
    """n^3 / 2^(n/6 + 2), the crude cap on the failure bound at order n."""
    if n < 1:
        raise ValueError("n must be positive")
    return DyadicBound(Fraction(n ** 3, 4), n)


def coarse_bound_holds(n: int) -> bool:
    """Whether n^3 < 2^(n/6+2), decided exactly as n^18 < 2^(n+12)."""
    return coarse_bound(n).less_than_one()


def mid_bound(n: int, z: int) -> DyadicBound:
    """(n-z)(n^2 - 2z - zn - 2)/4 * 2^(-n/6): the sharper intermediate cap
    for a group of order n with center size z (z must divide n)."""
    if not 1 <= z <= n:
        raise ValueError("need 1 <= z <= n")
    if n % z:
        raise ValueError(f"center size {z} does not divide order {n}")
    prefactor = Fraction((n - z) * (n * n - 2 * z - z * n - 2), 4)
    return DyadicBound(prefactor, n)


THRESHOLD_SCAN_LIMIT = 100_000
THRESHOLD_MAX_K = 100  # the scan's cost grows steeply with k


def _check_threshold_k(k: int) -> None:
    """The guard both threshold scans run before any work."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > THRESHOLD_MAX_K:
        raise SearchBudgetExceeded(f"bounds threshold is limited to k <= {THRESHOLD_MAX_K}")


def _stable_run_start(holds, proves_rest) -> int:
    """The least n of the run of holds(n) that reaches the first n where
    proves_rest(n). Raises RuntimeError at n = THRESHOLD_SCAN_LIMIT."""
    run_start: int | None = None
    for n in range(1, THRESHOLD_SCAN_LIMIT):
        run_start = (run_start or n) if holds(n) else None
        if run_start and proves_rest(n):
            return run_start
    raise RuntimeError(f"no stable threshold below {THRESHOLD_SCAN_LIMIT}")


def threshold_for_k(k: int) -> int:
    """Smallest n with sum(n^i for i in 2..k+1) < 2^(n/6) from n onward.

    The inequality is decided exactly via S^6 < 2^n. Once it holds at
    some n where additionally (n+1)^(6(k+1)) < 2 * n^(6(k+1)), it holds
    for every larger n (each term of S grows by at most (1+1/n)^(k+1),
    and that induction condition only improves as n grows), so the shared
    scan `_stable_run_start` stops there. A k above THRESHOLD_MAX_K is
    refused with SearchBudgetExceeded before the scan.
    """
    _check_threshold_k(k)
    power = 6 * (k + 1)
    return _stable_run_start(lambda n: sum(n ** i for i in range(2, k + 2)) ** 6 < 1 << n,
                             lambda n: (n + 1) ** power < 2 * n ** power)


def lemma_bound(n: int, k: int = 2) -> Fraction:
    """B_k(n) = C(n-1, 2) * P(Bin(ceil(n/4), 1/2) <= k-1), a cap on
    failure_bound(G, k) for every non-abelian G of order n.

    Non-central x and y have |C(x)|, |C(y)| <= n/2, and the product
    formula gives |C(x) ∩ C(y)| >= |C(x)||C(y)|/n, so
    |C(x) ∪ C(y)| <= 3n/4 and tau(x, y) >= ceil(n/4). Each of the at most
    C(n-1, 2) pairs then fails with probability at most the tail at
    t = ceil(n/4), which falls as t grows.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k < 2:
        raise ValueError("k must be at least 2")
    t = (n + 3) // 4
    return Fraction(comb(n - 1, 2) * _tail_count(t, k), 1 << t)


def lemma_threshold(k: int) -> int:
    """Smallest n with lemma_bound(m, k) < 1 for every m >= n.

    The scan runs t = ceil(n/4) block by block, n = 4t-3 .. 4t, checking
    every n, and stops after the first block with t >= max(3k, 8) and
    lemma_bound(4t, k) < 1. Past that block the bound stays below 1:
    - within a block t is fixed and C(n-1, 2) rises, so 4t is the block
      maximum;
    - from block t to t+1 the tail S_t / 2^t, S_t = sum_{i<k} C(t, i),
      changes by 1 - C(t, k-1) / (2 S_t), because S_{t+1} = 2 S_t -
      C(t, k-1). For t >= 3k, C(t, i-1) / C(t, i) = i / (t-i+1) < 1/2
      for i < k, so S_t < 2 C(t, k-1) and the ratio is below 3/4;
    - C(4t+3, 2) / C(4t-1, 2) < 4/3 once 16t^2 - 108t - 10 > 0, so for
      t >= 8.
    So the block maxima fall by a factor below 1 from the stop on. The
    shared scan `_stable_run_start` stops at the end of that block, the
    first n = 4t >= 4 max(3k, 8) with lemma_bound(n, k) < 1; k above
    THRESHOLD_MAX_K is refused with SearchBudgetExceeded before the scan.
    """
    _check_threshold_k(k)
    stop = 4 * max(3 * k, 8)
    return _stable_run_start(lambda n: lemma_bound(n, k) < 1,
                             lambda n: n % 4 == 0 and n >= stop)
