"""Rainbow-k-connectivity: verification, certificates, and coloring search.

A rainbow path repeats no edge color, so under c colors it has at most c
edges. Verification takes colorings with at most two colors in use, all
that the paper's claims need. Then every rainbow path has length <= 2: it
is either the direct edge or a 2-path through a common neighbor whose two
edge colors differ, and such paths are automatically pairwise internally
disjoint, so verification counts them per vertex pair by a popcount of
one mask and builds only the k paths the certificate keeps. It decides
and builds in one pass per row: one mask computation, over one color's
rows, covers the pairs (x, y > x), and each pair is decided and its
paths built from it, until the first pair short of k. A coloring with
three or more colors in use is refused with ValueError.

The verifier reads the coloring's per-color masks (``col.masks``), and
every certificate it returns is re-checked by check.validate_certificate,
which reads only the color list and shares no code with this module.

The search runs in the calling process and returns the lowest passing
attempt index. Attempt i is drawn as random_two_coloring(g, seed + i)
and decided by the verifier's count. A uniform random 2-coloring passes
with probability at least 1 - the failure bound, so when that bound is
below 1 most searches end within a few attempts; where it is not,
derandomized_two_coloring is the better route. The search returns,
without a certificate, a coloring the count accepts, and its caller
certifies it.

derandomized_two_coloring needs no search and no seed. It colors the
edges in order by the method of conditional expectations over the
expectation failure_bound computes: each edge takes the color whose
bichromatic closures carry the larger Erdős–Selfridge weight
C(t-1, r-1) / 2^t, t a pair's open middles and r its remaining need. The
expectation never rises, so a start below 1 ends at a passing coloring.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .check import validate_certificate
from .colorings import EdgeColoring, random_two_coloring
from .graphs import Graph, SearchBudgetExceeded, connectivity_at_least, iter_bits

# attempts x (edges + vertex pairs); 10^5 attempts on the D14 graph at k = 3 are 1.41 * 10^7
SEARCH_WORK_LIMIT = 10 ** 8


class PreconditionKappa(Exception):
    """Requested k exceeds the vertex connectivity of the graph."""


class ColoringRejected(Exception):
    """A coloring offered for certification failed verification."""


Path_ = tuple[int, ...]


@dataclass(frozen=True)
class RainbowCertificate:
    k: int
    per_pair: dict[tuple[int, int], tuple[Path_, ...]]


@dataclass(frozen=True)
class FailureWitness:
    pair: tuple[int, int]
    k: int
    found: int


@dataclass(frozen=True)
class Rc2Certificate:
    lower_bound: int
    certificate: RainbowCertificate
    rc2: int
    rc: int


def _bichromatic(g: Graph, col: EdgeColoring, x: int) -> list[int]:
    """For each vertex y > x, the mask of the common neighbors w of x and
    y whose edges x-w and w-y differ in color: the middles of the rainbow
    x-y 2-paths. On at most two colors in use (more raise ValueError)
    those are the w in A[x] ^ A[y] for one color's rows A, and one call
    reads the row of x once for its row of pairs."""
    if len(col.masks) > 2:  # masks has a row only for the colors in use
        raise ValueError(f"verification takes at most 2 colors in use, not {len(col.masks)}")
    adj = g.adj
    rows = next(iter(col.masks.values()), adj)  # an edgeless graph has no color
    ax, rx = adj[x], rows[x]
    return [ax & a & (rx ^ r) for a, r in zip(adj[x + 1:], rows[x + 1:])]


def _short_pair(g: Graph, col: EdgeColoring, k: int) -> FailureWitness | None:
    """The first pair (x, y), in index order, with fewer than k rainbow
    paths of length <= 2, or None when every pair has k: on at most two
    colors, the verifier's. Only a row x with a pair short of k middles is
    scanned pair by pair, with the direct edge counted."""
    for x in range(g.vertex_count):
        middles = _bichromatic(g, col, x)
        if min(map(int.bit_count, middles), default=k) < k:
            for y, middle in enumerate(middles, x + 1):
                found = (g.adj[x] >> y & 1) + middle.bit_count()
                if found < k:
                    return FailureWitness((x, y), k, found)
    return None


def is_rainbow_k_connected(g: Graph, col: EdgeColoring, k: int
                           ) -> RainbowCertificate | FailureWitness:
    """Certificate with k disjoint rainbow paths per pair, or the first failure.

    The coloring may use at most two colors, whatever its declared
    color_count; more raise ValueError. Each pair's rainbow paths are then
    the direct edge and the 2-paths through the bichromatic common
    neighbors, and they are pairwise internally disjoint. One
    _bichromatic call per row, the one _short_pair reads, covers the pairs
    (x, y > x): each is decided by its direct edge plus a popcount and
    gets its k paths, the direct edge and then the lowest middles; the
    first pair short of k is returned as the witness.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if col.graph is not g and col.graph.adj != g.adj:
        raise ValueError("coloring belongs to a different graph")
    per_pair: dict[tuple[int, int], tuple[Path_, ...]] = {}
    for x in range(g.vertex_count):
        row = g.adj[x]
        for y, middles in enumerate(_bichromatic(g, col, x), x + 1):
            direct = row >> y & 1
            found = direct + middles.bit_count()
            if found < k:
                return FailureWitness((x, y), k, found)
            paths = [(x, y)] if direct else []
            while len(paths) < k:
                low = middles & -middles
                paths.append((x, low.bit_length() - 1, y))
                middles ^= low
            per_pair[(x, y)] = tuple(paths)
    cert = RainbowCertificate(k, per_pair)
    validate_certificate(g, col, cert)
    return cert


def search_two_coloring(g: Graph, k: int, attempts: int, seed: int) -> EdgeColoring | None:
    """Seeded random search for a rainbow-k-connecting 2-coloring.

    Attempt i draws random_two_coloring(g, seed + i) and is decided by the
    verifier's count (_short_pair); the lowest-index success is returned,
    None after the budget is exhausted. No certificate is built or
    validated here, so certify the coloring with certify_rc2 or
    is_rainbow_k_connected.

    Each attempt costs one draw and one count. On a graph whose failure
    bound is 1 or more, where attempts pass rarely, try
    derandomized_two_coloring first. A budget whose attempts x (edges +
    vertex pairs) exceeds SEARCH_WORK_LIMIT is refused with
    SearchBudgetExceeded before any draw.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if attempts < 0:
        raise ValueError(f"attempts must be at least 0, not {attempts}")
    n = g.vertex_count
    if attempts * (g.edge_count + n * (n - 1) // 2) > SEARCH_WORK_LIMIT:
        raise SearchBudgetExceeded(f"search work is limited to {SEARCH_WORK_LIMIT}"
                                   " attempts x (edges + vertex pairs)")
    if not connectivity_at_least(g, k):
        raise PreconditionKappa(f"k={k} exceeds the vertex connectivity")
    for i in range(attempts):
        col = random_two_coloring(g, seed + i)
        if _short_pair(g, col, k) is None:
            return col
    return None


def derandomized_two_coloring(g: Graph, k: int) -> tuple[EdgeColoring, Fraction]:
    """A 2-coloring by the method of conditional expectations (Erdős and
    Selfridge, JCTA 14, 1973; Raghavan, JCSS 37, 1988), with its start: the
    expected number of pairs short of k rainbow paths under a uniform
    random 2-coloring, which is failure_bound on a non-commuting graph.

    A pair with t open middles (common neighbours whose two legs are not
    both colored) and remaining need r (k - adjacency, less its closed
    bichromatic middles) fails with probability f(t, r) = P(Bin(t, 1/2) < r).
    Edges are colored in g.edges order. An edge closes one middle of each
    pair whose other leg is colored, and closing it bichromatic (good) or
    not moves f by -w or +w, w = C(t-1, r-1) / 2^t; the edge takes the
    color whose good side weighs more, so the expectation never rises and
    ends at the number of pairs short of k. Weights are integers scaled by
    2^(max degree). A pair of weight 0 (r <= 0 or r > t) keeps it and is
    dropped from the rows of live pairs. A start below 1 must end at a
    coloring with no short pair; anything else raises AssertionError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n, adj = g.vertex_count, g.adj
    top = max(map(int.bit_count, adj), default=0)  # no pair has more middles
    base = min(k, top + 1) + 1  # a pair's state is t * base + r; any r > top fails alike
    state = [[(adj[a] & adj[b]).bit_count() * base + min(k - (adj[a] >> b & 1), base - 1)
              for b in range(n)] for a in range(n)]
    weight = [comb(t - 1, r - 1) << top - t if 0 < r <= t else 0
              for t in range(top + 1) for r in range(base)]
    live = [sum(1 << b for b, s in enumerate(row) if b != a and weight[s])
            for a, row in enumerate(state)]
    # Its own tail sum, not bounds._tail_count, so that the test of this start
    # against failure_bound compares two computations, not one formula with itself.
    tails = 0  # the start scaled by 2^top: P(Bin(t, 1/2) < r) summed over the pairs
    for s, count in Counter(state[a][b] for a in range(n) for b in range(a)).items():
        t, r = divmod(s, base)
        tails += count * sum(comb(t, i) for i in range(r)) << top - t
    rows = ([0] * n, [0] * n)  # colored legs: rows[c][v] are v's neighbours by color c + 1
    colors = []
    for u, v in g.edges:
        # the pairs this edge closes, by the color of their other leg
        closing = [[(a, x) for a, b in ((u, v), (v, u)) for x in iter_bits(side[b] & live[a])]
                   for side in rows]
        heavy = [sum(weight[state[a][x]] for a, x in pairs) for pairs in closing]
        c = int(heavy[0] > heavy[1])  # color c + 1 is good where the other leg is not
        for pairs, step in ((closing[c], base), (closing[1 - c], base + 1)):
            for a, x in pairs:
                s = state[a][x] = state[x][a] = state[a][x] - step
                if not weight[s]:
                    live[a] ^= 1 << x
                    live[x] ^= 1 << a
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
        colors.append(c + 1)
    col = EdgeColoring(g, 2, colors)
    start = Fraction(tails, 1 << top)
    if start < 1 and (short := _short_pair(g, col, k)) is not None:
        raise AssertionError(f"conditional expectations from {start} < 1 left pair"
                             f" {short.pair} with {short.found} rainbow paths at k={k}")
    return col, start


def certify_rc2(g: Graph, col: EdgeColoring) -> Rc2Certificate:
    """Exact rainbow-2-connectivity 2: the lower bound 2, as with one color a
    pair's only rainbow path is its direct edge, plus a verified 2-coloring
    certificate. Also settles plain rainbow connectivity via the k=1
    projection of the same certificate."""
    if col.color_count > 2:  # the constructor keeps every color in 1..color_count
        raise ColoringRejected("certification needs a coloring on at most 2 colors")
    result = is_rainbow_k_connected(g, col, 2)
    if isinstance(result, FailureWitness):
        raise ColoringRejected(
            f"pair {result.pair} has only {result.found} disjoint rainbow paths"
        )
    rc = 1 if g.is_complete() else 2
    return Rc2Certificate(lower_bound=2, certificate=result, rc2=2, rc=rc)


def certificate_to_dict(cert: RainbowCertificate, col: EdgeColoring) -> dict:
    pairs = []
    for (x, y), paths in sorted(cert.per_pair.items()):
        pairs.append({
            "pair": [x, y],
            "paths": [list(p) for p in paths],
            "colors_used": [
                [col.color_of(a, b) for a, b in zip(p, p[1:])] for p in paths
            ],
        })
    return {"k": cert.k, "pairs": pairs}


def write_certificate(cert: RainbowCertificate, col: EdgeColoring,
                      path: str | Path) -> None:
    Path(path).write_text(json.dumps(certificate_to_dict(cert, col), indent=1) + "\n")
