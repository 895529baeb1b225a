"""Rainbow-k-connectivity: verification, certificates, and coloring search.

A rainbow path repeats no edge color, so under c colors it has at most c
edges. For two colors that means length <= 2, and every rainbow path is
either the direct edge or a 2-path through a common neighbor whose two
edge colors differ; such paths are automatically pairwise internally
disjoint, so verification counts them per vertex pair by a popcount of
one mask and builds only the k paths the certificate keeps. Three or more
colors fall back to enumeration plus backtracking selection, intended
only for small exhaustive studies; one verification call may take at most
PATH_NODE_BUDGET path extensions and selector steps in all, across its
pairs, before it stops with SearchBudgetExceeded.

Certificates returned by the verifier are always re-checked by an
independent validator that shares no code with the path selector. The
selector reads the coloring's per-color masks (``col.masks``); the
validator reads only the color list ``col.edge_colors``, so a fault in
building the masks cannot make both agree on a bad certificate. The
validator makes one linear pass over each pair's paths.

The search runs in the calling process and returns the lowest passing
attempt index. It builds one row plan per search from ``g.adj``,
``g.edges`` and k, and its kernel reads only that plan and the seed: it
draws each attempt's colors from the splitmix64 constants straight into
color-1 masks and never builds an EdgeColoring. After a head of
SEARCH_HEAD attempts it first runs each block of attempts through the
lane-parallel prefilter of ``lanes``, which reads the same row plan and
drops only failing attempts. The winner is redrawn by
random_two_coloring and goes through the verifier and the validator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .colorings import (MASK64, SPLITMIX_GAMMA, SPLITMIX_MUL1, SPLITMIX_MUL2, EdgeColoring,
                        random_two_coloring)
from . import lanes
from .graphs import Graph, SearchBudgetExceeded, connectivity_at_least, iter_bits


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


PATH_NODE_BUDGET = 200_000  # path extensions plus selector steps per verification call


class PathBudget:
    """Work a 3+-color verification may still do. One budget is shared by
    the path enumerations and selections of one call, so the call as a
    whole stops with SearchBudgetExceeded; a path function called on its
    own gets a fresh one."""

    __slots__ = ("left",)

    def __init__(self) -> None:
        self.left = PATH_NODE_BUDGET


def enumerate_rainbow_paths(g: Graph, col: EdgeColoring, x: int, y: int,
                            max_len: int, budget: PathBudget | None = None) -> list[Path_]:
    """All simple x-y paths of <= max_len edges with distinct edge colors.

    Output is lexicographic by vertex sequence (depth-first extension in
    ascending neighbor order). The search keeps one frame per path vertex
    on an explicit stack, so a path may be longer than the interpreter's
    recursion limit. Each frame scans one neighbor list and costs one step
    of the budget; once the budget is spent the search raises
    SearchBudgetExceeded: the paths are then unknown, not absent.
    """
    if x == y:
        raise ValueError("endpoints must differ")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    budget = budget or PathBudget()
    left = budget.left
    out: list[Path_] = []
    path = [x]
    visited = 1 << x
    # frame of path[i]: its neighbors not yet tried, and the colors used
    # on the path up to it as a mask of bits 1 << color
    stack = [(iter_bits(g.adj[x]), 0)]
    while stack:
        v = path[-1]
        neighbors, used = stack[-1]
        for w in neighbors:
            c = 1 << col.color_of(v, w)
            if used & c:
                continue
            if w == y:
                out.append(tuple(path) + (y,))
            elif not visited >> w & 1 and len(path) < max_len:
                break
        else:
            stack.pop()
            visited ^= 1 << path.pop()
            continue
        left -= 1
        if left < 0:
            raise SearchBudgetExceeded(f"rainbow paths {x}-{y}: exceeded {PATH_NODE_BUDGET} steps")
        path.append(w)
        visited |= 1 << w
        stack.append((iter_bits(g.adj[w]), used | c))
    budget.left = left
    return out


def _bichromatic(g: Graph, col: EdgeColoring, x: int, y: int) -> int:
    """Mask of the common neighbors w of x and y whose edges x-w and w-y
    differ in color: the middles of the rainbow x-y 2-paths."""
    middles = 0
    for rows in col.masks.values():  # w with x-w in this color and y-w in another
        middles |= rows[x] & g.adj[y] & ~rows[y]
    return middles


def short_rainbow_paths(g: Graph, col: EdgeColoring, x: int, y: int) -> list[Path_]:
    """The complete set of rainbow x-y paths of length <= 2.

    Direct edge first, then one 2-path per common neighbor whose two edge
    colors differ; all of these are pairwise internally disjoint.
    """
    paths: list[Path_] = [(x, y)] if g.adjacent(x, y) else []
    paths.extend((x, w, y) for w in iter_bits(_bichromatic(g, col, x, y)))
    return paths


def select_disjoint_paths(paths: Sequence[Path_], k: int,
                          budget: PathBudget | None = None) -> list[Path_] | None:
    """Pick k pairwise internally-disjoint paths, or None if impossible.

    Backtracks over the paths in list order, each taken before it is
    skipped, with an explicit stack instead of recursion. Each take or
    backtrack costs one step of the budget.
    """
    if k == 0:
        return []
    if len(paths) < k:
        return None
    budget = budget or PathBudget()
    left = budget.left
    users: dict[int, int] = {}  # vertex -> mask of the paths with it inside
    for i, path in enumerate(paths):
        for v in path[1:-1]:
            users[v] = users.get(v, 0) | 1 << i
    chosen: list[int] = []
    skipped: list[int] = []  # skipped[d]: candidates left if chosen[d] is skipped
    avail = (1 << len(paths)) - 1
    while len(chosen) < k:
        left -= 1
        if left < 0:
            raise SearchBudgetExceeded(f"path selection: exceeded {PATH_NODE_BUDGET} steps")
        if avail.bit_count() < k - len(chosen):
            if not chosen:
                budget.left = left
                return None
            chosen.pop()
            avail = skipped.pop()
            continue
        low = avail & -avail
        chosen.append(low.bit_length() - 1)
        avail ^= low
        skipped.append(avail)
        for v in paths[chosen[-1]][1:-1]:
            avail &= ~users[v]
    budget.left = left
    return [paths[i] for i in chosen]


def max_disjoint_paths(paths: Sequence[Path_], budget: PathBudget | None = None) -> int:
    """Largest number of pairwise internally-disjoint paths in the list,
    by bisection: k disjoint paths contain j disjoint ones for every j < k.
    All the selections share one budget."""
    budget = budget or PathBudget()
    lo, hi = 0, len(paths)  # lo is always achievable
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if select_disjoint_paths(paths, mid, budget) is not None:
            lo = mid
        else:
            hi = mid - 1
    return lo


def is_rainbow_k_connected(g: Graph, col: EdgeColoring, k: int
                           ) -> RainbowCertificate | FailureWitness:
    """Certificate with k disjoint rainbow paths per pair, or the first failure.

    With at most two colors each pair's rainbow paths are the direct edge
    and the 2-paths through the bichromatic common neighbors, so the pair
    is counted by a popcount and the certificate keeps the direct edge and
    then the lowest middles, k paths in all. With more colors every pair
    is enumerated and selected under one PathBudget for the whole call.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if col.graph is not g and col.graph.adj != g.adj:
        raise ValueError("coloring belongs to a different graph")
    n = g.vertex_count
    budget = PathBudget()
    per_pair: dict[tuple[int, int], tuple[Path_, ...]] = {}
    for x in range(n):
        for y in range(x + 1, n):
            if col.color_count <= 2:
                adjacent = g.adj[x] >> y & 1
                middles = _bichromatic(g, col, x, y)
                found = adjacent + middles.bit_count()
                if found < k:  # short paths are pairwise internally disjoint
                    return FailureWitness((x, y), k, found)
                paths = [(x, y)] if adjacent else []
                while len(paths) < k:
                    low = middles & -middles
                    paths.append((x, low.bit_length() - 1, y))
                    middles ^= low
            else:
                paths = enumerate_rainbow_paths(g, col, x, y, col.color_count, budget)
                chosen = select_disjoint_paths(paths, k, budget)
                if chosen is None:
                    return FailureWitness((x, y), k, max_disjoint_paths(paths, budget))
                paths = chosen
            per_pair[(x, y)] = tuple(paths)
    cert = RainbowCertificate(k, per_pair)
    validate_certificate(g, col, cert)
    return cert


def validate_certificate(g: Graph, col: EdgeColoring, cert: RainbowCertificate) -> None:
    """Independent re-check of a certificate; raises ValueError on any defect.

    Deliberately shares no code with the selector: path validity, rainbow
    condition, pairwise internal disjointness, and pair coverage are all
    rederived from the adjacency rows and the color list
    ``col.edge_colors`` alone, never from ``col.masks``. Each pair takes
    one pass over its paths: the interiors go into one set, and they are
    pairwise disjoint exactly when its size is the sum of their lengths.
    """
    adj = g.adj
    n = g.vertex_count
    colors_at: list[dict[int, int]] = [{} for _ in range(col.graph.vertex_count)]  # a -> b -> color
    for (a, b), c in col.assignment().items():
        colors_at[a][b] = colors_at[b][a] = c
    if len(cert.per_pair) != n * (n - 1) // 2:
        raise ValueError("certificate does not cover every vertex pair")
    vertices = range(n)
    for pair, paths in cert.per_pair.items():
        # with the count above: exactly the pairs x < y; `in range` compares
        # a key of any type without raising
        if not (type(pair) is tuple and len(pair) == 2 and pair[0] in vertices
                and pair[1] in vertices and pair[0] < pair[1]):
            raise ValueError("certificate does not cover every vertex pair")
        x, y = pair
        if len(paths) < cert.k:
            raise ValueError(f"pair ({x},{y}) lists {len(paths)} < {cert.k} paths")
        if len(set(paths)) != len(paths):
            raise ValueError(f"pair ({x},{y}) lists a path twice")
        inside: set[int] = set()
        inside_count = 0
        for p in paths:
            if p[0] != x or p[-1] != y:
                raise ValueError(f"path {p} does not join ({x},{y})")
            if len(set(p)) != len(p):
                raise ValueError(f"path {p} repeats a vertex")
            colors = set()
            for a, b in zip(p, p[1:]):
                if not adj[a] >> b & 1:
                    raise ValueError(f"path {p} uses non-edge ({a},{b})")
                colors.add(colors_at[a][b])
            if len(colors) != len(p) - 1:
                raise ValueError(f"path {p} repeats a color")
            inside.update(p[1:-1])
            inside_count += len(p) - 2
        if len(inside) != inside_count:
            raise ValueError(f"paths for ({x},{y}) share internal vertices")


SEARCH_HEAD = 64  # attempts decided one by one before any lanes are set up
SEARCH_BLOCK = 1024  # attempts per lane-parallel prefilter pass


def _search_plan(g: Graph, k: int) -> list:
    """Row plan of the search, built once per search: the kernel and the
    prefilter of ``lanes`` both read it.

    Row u is (u, 1 << u, draws, commons, needs). draws holds each edge
    (u, v > u) as (the splitmix64 offset (j+1) * gamma of its index j, v,
    1 << v); commons[a] and needs[a], for each a < u, are the common
    neighbours of a and u and the rainbow 2-paths they still need,
    k - adj(a, u). A 2-path a-w-u is rainbow when exactly one of its
    edges is color 1, and all of them lie in rows <= u, so pair (a, u) is
    decided once row u is drawn.
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


def _first_passing(g: Graph, k: int, attempts: int, seed: int) -> int | None:
    """Lowest attempt index in [0, attempts) whose coloring passes, or None.

    Attempt i decides random_two_coloring(g, seed + i) without building
    it, from the row plan of g and k. The first SEARCH_HEAD attempts are
    decided one by one; the rest go in blocks of SEARCH_BLOCK attempts.
    The prefilter of ``lanes`` drops failing attempts from each block, and
    the row kernel decides the ones it keeps in ascending order.
    """
    plan = _search_plan(g, k)
    for i in range(min(SEARCH_HEAD, attempts)):
        if _attempt_passes(plan, seed + i):
            return i
    for lo in range(SEARCH_HEAD, attempts, SEARCH_BLOCK):
        for t in lanes.survivors(plan, k, seed + lo, min(SEARCH_BLOCK, attempts - lo)):
            if _attempt_passes(plan, seed + lo + t):
                return lo + t
    return None


def search_two_coloring(g: Graph, k: int, attempts: int, seed: int) -> EdgeColoring | None:
    """Seeded random search for a rainbow-k-connecting 2-coloring.

    Attempt i draws random_two_coloring(g, seed + i) and the lowest-index
    success is returned. None after the budget is exhausted.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not connectivity_at_least(g, k):
        raise PreconditionKappa(f"k={k} exceeds the vertex connectivity")
    if attempts < 1:
        return None
    winner = _first_passing(g, k, attempts, seed)
    if winner is None:
        return None
    col = random_two_coloring(g, seed + winner)
    result = is_rainbow_k_connected(g, col, k)
    if isinstance(result, FailureWitness):  # kernel and verifier disagree
        raise AssertionError(f"search accepted a failing coloring at {result.pair}")
    return col


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
