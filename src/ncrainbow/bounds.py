"""Exact failure probabilities and threshold inequalities.

Everything here is exact: probabilities are `fractions.Fraction`, and
comparisons involving 2^(n/6) are decided by raising both sides to the
sixth power in big integers. No floating point appears anywhere, because
the interesting classifications (value < 1 versus >= 1) sit right at the
boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Sequence

from .groups import Group
from .ncgraph import AbelianGroup, noncommuting_graph, pair_profile


def failure_bound(group: Group, k: int = 2) -> Fraction:
    """Union bound on the probability that a uniform random 2-coloring fails
    to make the non-commuting graph rainbow-k-connected.

    Counts, per pair, the probability of fewer than k disjoint rainbow
    paths of length <= 2: an adjacent pair already has the direct edge
    and needs k-1 bichromatic 2-paths among its tau common neighbors, a
    non-adjacent pair needs k of them, so the per-pair terms are binomial
    tails at 1/2. A pair's term depends only on its tau and adjacency, so
    the sum runs over the keys of `pair_profile`, each term times its
    count. Exact rational output; every denominator is a power of 2.
    Raises AbelianGroup for an abelian group, whose graph has no vertices.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    total = Fraction(0)
    for (t, adjacent), count in pair_profile(noncommuting_graph(group)).items():
        misses = k - 2 if adjacent else k - 1
        head = sum(comb(t, i) for i in range(min(misses, t) + 1))  # comb(t, i) = 0 for i > t
        total += Fraction(count * head, 1 << t)
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
        return p ** 6 < q ** 6 << self.sixth_log2

    def leq(self, other: "DyadicBound") -> bool:
        if self.sixth_log2 != other.sixth_log2:
            raise ValueError("comparison requires a common exponent")
        return self.prefactor <= other.prefactor


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


def threshold_for_k(k: int) -> int:
    """Smallest n with sum(n^i for i in 2..k+1) < 2^(n/6) from n onward.

    The inequality is decided exactly via S^6 < 2^n. Once it holds at
    some n where additionally (n+1)^(6(k+1)) < 2 * n^(6(k+1)), it holds
    for every larger n (each term of S grows by at most (1+1/n)^(k+1),
    and that induction condition only improves as n grows), so the scan
    stops there. The scan gives up at n = THRESHOLD_SCAN_LIMIT.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    power = 6 * (k + 1)
    run_start: int | None = None
    for n in range(1, THRESHOLD_SCAN_LIMIT):
        s = sum(n ** i for i in range(2, k + 2))
        if s ** 6 < (1 << n):
            if run_start is None:
                run_start = n
            if (n + 1) ** power < 2 * n ** power:
                return run_start
        else:
            run_start = None
    raise RuntimeError(f"no stable threshold below {THRESHOLD_SCAN_LIMIT}")


@dataclass(frozen=True)
class BoundReport:
    group_name: str
    order: int
    center_size: int
    value: Fraction | None
    error: str | None = None

    @property
    def flagged(self) -> bool:
        return self.value is not None and self.value >= 1

    @property
    def passes(self) -> bool:
        return self.value is not None and self.value < 1

    def to_json_dict(self) -> dict:
        out: dict = {
            "id": self.group_name,
            "order": self.order,
            "center_size": self.center_size,
        }
        if self.error is not None:
            out["error"] = self.error
            return out
        out["p_num"] = str(self.value.numerator)
        out["p_den"] = str(self.value.denominator)
        out["flagged"] = self.flagged
        return out


def scan_exception_report(groups: Sequence[Group], k: int = 2) -> list[BoundReport]:
    """failure_bound for each group, flagging values >= 1; input order kept."""
    reports = []
    for group in groups:
        center_size = group.center_mask.bit_count()
        try:
            value = failure_bound(group, k)
        except AbelianGroup as exc:
            reports.append(BoundReport(group.name, group.order, center_size,
                                       None, error=type(exc).__name__))
            continue
        reports.append(BoundReport(group.name, group.order, center_size, value))
    return reports


def write_bound_reports(reports: Sequence[BoundReport], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps([r.to_json_dict() for r in reports], indent=1) + "\n"
    )
