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
attempt index, in two phases with one decider each. The head, the first
SEARCH_HEAD attempts, is drawn and decided by the verifier's count: a
uniform random 2-coloring passes with probability at least 1 - the
failure bound, so most searches end there and set up nothing more. A
budget past the head builds one row plan per search, from ``g.adj``,
``g.edges`` and k; splitmix64 output j of seed s is a direct function of
s + (j+1) * gamma (Steele, Lea and Flood, OOPSLA 2014), so the later
deciders draw any edge's color without the ones before it and never
build an EdgeColoring. Each later block of SEARCH_BLOCK attempts first
passes a lane-parallel prefilter (SWAR: L. Lamport, CACM 18(8), 1975),
which drops only failing attempts, and the row kernel decides the ones
it keeps in ascending order. The kernel's winner is redrawn and checked
by the same count: the search returns, without a certificate, a coloring
the verifier's count accepts, and its caller certifies it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .check import validate_certificate
from .colorings import (MASK64, SPLITMIX_GAMMA, SPLITMIX_MUL1, SPLITMIX_MUL2, EdgeColoring,
                        random_two_coloring)
from .graphs import Graph, connectivity_at_least, iter_bits


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


def _bichromatic(g: Graph, col: EdgeColoring, x: int, ys: slice) -> list[int]:
    """For each y in the slice ys of the vertices, the mask of the common
    neighbors w of x and y whose edges x-w and w-y differ in color: the
    middles of the rainbow x-y 2-paths. On at most two colors in use (more
    raise ValueError) those are the w in A[x] ^ A[y] for one color's rows
    A, and one call reads the row of x once for a row of pairs."""
    if len(col.masks) > 2:  # masks has a row only for the colors in use
        raise ValueError(f"verification takes at most 2 colors in use, not {len(col.masks)}")
    adj = g.adj
    rows = next(iter(col.masks.values()), adj)  # an edgeless graph has no color
    ax, rx = adj[x], rows[x]
    return [ax & a & (rx ^ r) for a, r in zip(adj[ys], rows[ys])]


def _short_pair(g: Graph, col: EdgeColoring, k: int) -> FailureWitness | None:
    """The first pair (x, y), in index order, with fewer than k rainbow
    paths of length <= 2, or None when every pair has k: on at most two
    colors, the verifier's. Only a row x with a pair short of k middles is
    scanned pair by pair, with the direct edge counted."""
    for x in range(g.vertex_count):
        middles = _bichromatic(g, col, x, slice(x + 1, None))
        if min(map(int.bit_count, middles), default=k) < k:
            for y, middle in enumerate(middles, x + 1):
                found = (g.adj[x] >> y & 1) + middle.bit_count()
                if found < k:
                    return FailureWitness((x, y), k, found)
    return None


def short_rainbow_paths(g: Graph, col: EdgeColoring, x: int, y: int) -> list[Path_]:
    """The complete set of rainbow x-y paths of length <= 2.

    Direct edge first, then one 2-path per common neighbor whose two edge
    colors differ; all of these are pairwise internally disjoint. x and y
    must be distinct vertices of g, and col a coloring of g with at most
    two colors in use (ValueError).
    """
    n = g.vertex_count
    if not (0 <= x < n and 0 <= y < n and x != y):
        raise ValueError(f"({x},{y}) is not a pair of distinct vertices in 0..{n - 1}")
    if col.graph is not g and col.graph.adj != g.adj:
        raise ValueError("coloring belongs to a different graph")
    paths: list[Path_] = [(x, y)] if g.adjacent(x, y) else []
    paths.extend((x, w, y) for w in iter_bits(_bichromatic(g, col, x, slice(y, y + 1))[0]))
    return paths


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
        for y, middles in enumerate(_bichromatic(g, col, x, slice(x + 1, None)), x + 1):
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


SEARCH_HEAD = 64  # attempts decided by the verifier's count before any plan is built
SEARCH_BLOCK = 1024  # attempts per lane-parallel prefilter pass


def _search_plan(g: Graph, k: int) -> list:
    """Row plan of the search, built once per search and read by the row
    kernel and the prefilter.

    Row u is (u, 1 << u, draws, commons, needs). draws holds each edge
    (u, v > u) as (the splitmix64 offset (j+1) * gamma of its index j, v,
    1 << v); commons[a] and needs[a], for each a < u, are the common
    neighbours of a and u and the rainbow 2-paths they still need,
    k - adj(a, u), so need == k marks a non-adjacent pair. A 2-path a-w-u
    is rainbow when exactly one of its edges is color 1, and all of them
    lie in rows <= u, so pair (a, u) is decided once row u is drawn.
    """
    adj = g.adj
    draws = [[] for _ in adj]
    for j, (u, v) in enumerate(g.edges):
        draws[u].append(((j + 1) * SPLITMIX_GAMMA & MASK64, v, 1 << v))
    return [(u, 1 << u, draws[u],
             [a & au for a in adj[:u]], [k - (a >> u & 1) for a in adj[:u]])
            for u, au in enumerate(adj)]


def _attempt_passes(plan, s: int) -> bool:
    r1 = [0] * len(plan)  # r1[v]: neighbours of v through color-1 edges
    for u, bu, draws, commons, needs in plan:
        ru = r1[u]
        for offset, v, bv in draws:
            z = (s + offset) & MASK64
            z = ((z ^ (z >> 30)) * SPLITMIX_MUL1) & MASK64
            z = (z ^ (z >> 27)) * SPLITMIX_MUL2  # only bits 0 and 31 are read below
            if not (z ^ (z >> 31)) & 1:
                ru |= bv
                r1[v] |= bu
        r1[u] = ru
        for ra, common, need in zip(r1, commons, needs):
            if ((ru ^ ra) & common).bit_count() < need:
                return False
    return True


def _survivors(plan, k: int, s: int, width: int) -> list[int]:
    """Lanes t < width whose attempt s + t passes the prefilter, ascending.

    It covers the plan's non-adjacent pairs (a, u), those with need == k,
    fewest common neighbours w first, as the most likely to fail.

    Attempt t lives in bits 128t.. of one int. An edge is drawn for every
    lane at once: its offset is added to every lane's seed and the
    splitmix64 mix runs lane-wise. Lanes are cut back to 64 bits before
    each multiply, so a product never reaches the next lane, and the
    second multiply uses only the low 32 bits of its constant because
    output bits 0 and 31 are all that is read. The low byte of every lane
    moves to a byte lane, and its bit 0 is the edge's color bit. Each
    pair sums c(a,w) ^ c(u,w) over its common neighbours: bit 7
    of count + 128 - k is set exactly when count >= k, so a lane is
    dropped only for a pair that really has fewer than k rainbow paths.
    A pair whose count could overflow a byte lane (more than 127 + k
    common neighbours, or k > 128) is left out, which only weakens the
    prefilter. Edges are drawn as the pairs first need them, and the pass
    stops once every lane is dropped.
    """
    def spread(value: int) -> int:  # value in every lane
        return int.from_bytes(value.to_bytes(16, "little") * width, "little")

    ramp = bytearray(16 * width)  # t in lane t; width <= 2^16
    ramp[0::16] = bytes(t & 255 for t in range(width))
    ramp[1::16] = bytes(t >> 8 for t in range(width))
    seeds = int.from_bytes(ramp, "little") + spread(s & MASK64)
    del ramp
    low64 = spread(MASK64)
    bytes_one = int.from_bytes(b"\x01" * width, "little")

    def draw(x: int, y: int) -> int:  # color bit of edge {x, y} in every byte lane
        x, y = min(x, y), max(x, y)
        offset = next(offset for offset, v, _ in plan[x][2] if v == y)
        z = (seeds + spread(offset)) & low64
        z = ((z ^ (z >> 30)) & low64) * SPLITMIX_MUL1 & low64
        z = ((z ^ (z >> 27)) & low64) * (SPLITMIX_MUL2 & 0xFFFFFFFF)
        low_bytes = (z ^ (z >> 31)).to_bytes(16 * width, "little")[::16]
        return int.from_bytes(low_bytes, "little") & bytes_one

    pairs = sorted((common.bit_count(), u, a, common) for u, _, _, commons, needs in plan
                   for a, (common, need) in enumerate(zip(commons, needs)) if need == k)
    colors = [{} for _ in plan]  # colors[x][y]: color bits of edge {x, y} once drawn
    bias = (128 - k) * bytes_one
    alive = bytes_one << 7
    for size, u, a, common in pairs:
        if k > 128 or size > 127 + k:  # this count, and every later one, could overflow
            break
        ca, cu = colors[a], colors[u]
        count = bias
        for w in iter_bits(common):
            if w not in ca:
                ca[w] = colors[w][a] = draw(a, w)
            if w not in cu:
                cu[w] = colors[w][u] = draw(u, w)
            count += ca[w] ^ cu[w]
        alive &= count
        if not alive:
            return []
    return [bit >> 3 for bit in iter_bits(alive)]


def search_two_coloring(g: Graph, k: int, attempts: int, seed: int) -> EdgeColoring | None:
    """Seeded random search for a rainbow-k-connecting 2-coloring.

    Attempt i draws random_two_coloring(g, seed + i) and the lowest-index
    success is returned. None after the budget is exhausted. The returned
    coloring is one the verifier's count accepts (_short_pair); no
    certificate is built or validated here, so certify it with certify_rc2
    or is_rainbow_k_connected.

    The search has two phases, each with one decider. The first
    SEARCH_HEAD attempts (the head) are drawn and decided by the count
    itself. Only a budget past the head builds the row plan, once; each
    later block of SEARCH_BLOCK attempts goes through _survivors, and the
    row kernel decides the attempts it keeps in ascending order. The
    kernel's winner is redrawn and checked by the count, and one the
    count rejects means the kernel is wrong: AssertionError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not connectivity_at_least(g, k):
        raise PreconditionKappa(f"k={k} exceeds the vertex connectivity")
    for i in range(min(SEARCH_HEAD, attempts)):
        col = random_two_coloring(g, seed + i)
        if _short_pair(g, col, k) is None:
            return col
    if attempts <= SEARCH_HEAD:
        return None
    plan = _search_plan(g, k)
    for lo in range(SEARCH_HEAD, attempts, SEARCH_BLOCK):
        for t in _survivors(plan, k, seed + lo, min(SEARCH_BLOCK, attempts - lo)):
            if _attempt_passes(plan, seed + lo + t):
                col = random_two_coloring(g, seed + lo + t)
                witness = _short_pair(g, col, k)
                if witness is not None:  # kernel and verifier disagree
                    raise AssertionError(f"search accepted a failing coloring at {witness.pair}")
                return col
    return None


def rc_lower_bound(g: Graph, k: int) -> int:
    """Colors provably required for rainbow-k-connectivity.

    One color admits only single-edge rainbow paths and a simple graph
    has at most one edge per pair, so k >= 2 forces two colors; so does
    k = 1 on a non-complete graph, where some pair needs a path of
    length >= 2. Complete graphs with k = 1 need just one color.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1 and g.is_complete():
        return 1
    return 2


def certify_rc2(g: Graph, col: EdgeColoring) -> Rc2Certificate:
    """Exact rainbow-2-connectivity 2: matching lower bound plus a verified
    2-coloring certificate. Also settles plain rainbow connectivity via the
    k=1 projection of the same certificate."""
    if col.color_count > 2:  # the constructor keeps every color in 1..color_count
        raise ColoringRejected("certification needs a coloring on at most 2 colors")
    result = is_rainbow_k_connected(g, col, 2)
    if isinstance(result, FailureWitness):
        raise ColoringRejected(
            f"pair {result.pair} has only {result.found} disjoint rainbow paths"
        )
    lower = rc_lower_bound(g, 2)
    rc = 1 if g.is_complete() else 2
    return Rc2Certificate(lower_bound=lower, certificate=result, rc2=2, rc=rc)


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
