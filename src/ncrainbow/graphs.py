"""Simple undirected graphs with bitset adjacency.

Vertices are 0..n-1; ``adj[v]`` is an int whose set bits are the
neighbors of v. Everything here targets graphs of at most a few hundred
vertices, where bitset intersection makes common-neighbor counting,
isomorphism refinement, and flow computations cheap. Graphs are
immutable once built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Iterator, Sequence

from . import textfile


class SearchBudgetExceeded(Exception):
    """A work budget ran out, or a request would exceed one before any work
    starts (isomorphism search nodes, the k of ``bounds threshold``); the
    answer is unknown, not refuted."""


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    labels: tuple[str, ...]
    adj: tuple[int, ...]

    def _vertex(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:  # a negative v would wrap
            raise IndexError(f"vertex {v} out of range for {self.vertex_count} vertices")
        return v

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[self._vertex(u)] >> self._vertex(v) & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.adj[self._vertex(v)]))

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.vertex_count):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in iter_bits(rest))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_complete(self) -> bool:
        n = self.vertex_count
        return self.edge_count == n * (n - 1) // 2


def graph_from_edges(
    n: int,
    edges: Sequence[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Graph:
    if n < 0:
        raise ValueError("negative vertex count")
    if labels is None:
        labels = [f"v{i}" for i in range(n)]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} vertices")
    if len(set(labels)) != n:
        raise ValueError("labels are not distinct")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(labels), tuple(adj))


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(f"v{i}" for i in range(n)),
                 tuple(full ^ (1 << v) for v in range(n)))


def edgeless_graph(n: int) -> Graph:
    return Graph(n, tuple(f"v{i}" for i in range(n)), (0,) * n)


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; vertex labels are p<part>_<index>, 1-based."""
    if not part_sizes:
        raise ValueError("need at least one part")
    if any(s < 1 for s in part_sizes):
        raise ValueError("part sizes must be positive")
    n = sum(part_sizes)
    full = (1 << n) - 1
    labels = []
    adj = []
    for p, s in enumerate(part_sizes, start=1):
        labels.extend(f"p{p}_{j}" for j in range(1, s + 1))
        # the part starts at vertex len(adj); its vertices see every vertex outside it
        adj.extend([full ^ (((1 << s) - 1) << len(adj))] * s)
    return Graph(n, tuple(labels), tuple(adj))


def lexicographic_product(base: Graph, fiber: Graph) -> Graph:
    """(b1,f1) ~ (b2,f2) iff b1 ~ b2, or b1 = b2 and f1 ~ f2. Base-major order."""
    nb, nf = base.vertex_count, fiber.vertex_count
    fiber_full = (1 << nf) - 1
    adj = []
    labels = []
    for b in range(nb):
        expanded = 0
        for b2 in iter_bits(base.adj[b]):
            expanded |= fiber_full << (b2 * nf)
        for f in range(nf):
            adj.append(expanded | (fiber.adj[f] << (b * nf)))
            labels.append(f"({base.labels[b]},{fiber.labels[f]})")
    return Graph(nb * nf, tuple(labels), tuple(adj))


def johnson(n: int, k: int) -> Graph:
    """k-subsets of {1..n} in colexicographic order, adjacent when meeting in k-1 points."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    subsets = sorted(combinations(range(1, n + 1), k), key=lambda c: c[::-1])
    sets = [frozenset(c) for c in subsets]
    labels = ["{" + ",".join(str(x) for x in c) + "}" for c in subsets]
    m = len(sets)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if len(sets[i] & sets[j]) == k - 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(m, tuple(labels), tuple(adj))


def detect_complete_multipartite(g: Graph) -> list[int] | None:
    """Part sizes (ascending) if g is complete multipartite, else None.

    g is complete multipartite exactly when "equal or non-adjacent" is an
    equivalence relation; its classes are the parts, and the part of v is
    v with its non-neighbors, the same set for every vertex of the part.
    """
    full = (1 << g.vertex_count) - 1
    unseen = full
    sizes = []
    while unseen:
        v = (unseen & -unseen).bit_length() - 1
        part = full & ~g.adj[v]
        if any(full & ~g.adj[w] != part for w in iter_bits(part)):
            return None
        sizes.append(part.bit_count())
        unseen &= ~part
    return sorted(sizes)


# --- isomorphism -----------------------------------------------------------

REFINE_ROUNDS = 4


def _refine_classes(g1: Graph, g2: Graph) -> tuple[list[int], list[int]] | None:
    """Joint iterated neighbor-class refinement, at most REFINE_ROUNDS rounds;
    None when class histograms split."""
    n = g1.vertex_count
    colors = [g1.degree(v) for v in range(n)] + [g2.degree(v) for v in range(n)]
    adj = list(g1.adj) + [m << n for m in g2.adj]
    for _ in range(REFINE_ROUNDS):
        if Counter(colors[:n]) != Counter(colors[n:]):
            return None
        table: dict[tuple, int] = {}
        nxt = []
        for v in range(2 * n):
            sig = (colors[v], tuple(sorted(colors[w] for w in iter_bits(adj[v]))))
            nxt.append(table.setdefault(sig, len(table)))
        if len(table) == len(set(colors)):  # no class split, so the histograms still match
            return nxt[:n], nxt[n:]
        colors = nxt
    if Counter(colors[:n]) != Counter(colors[n:]):
        return None
    return colors[:n], colors[n:]


ISO_NODE_BUDGET = 2_000_000  # search nodes per are_isomorphic call


def are_isomorphic(g1: Graph, g2: Graph) -> list[int] | None:
    """Explicit vertex bijection g1 -> g2, or None when refuted.

    Backtracking over a connectivity-first vertex order with class
    refinement for candidate pruning, on an explicit stack, so the depth
    is bounded by memory and not by the interpreter's recursion limit.
    Raises SearchBudgetExceeded after ISO_NODE_BUDGET search nodes,
    distinguishing "unknown" from "refuted".
    """
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None
    if n == 0:
        return []
    refined = _refine_classes(g1, g2)
    if refined is None:
        return None
    c1, c2 = refined

    class_sizes = Counter(c1)
    # Order: most neighbours already placed first, then rarest class, then
    # lowest index. by_attach[a] holds the unplaced vertices with a placed
    # neighbours; a count only grows, so placing a vertex moves each of its
    # unplaced neighbours one bucket up.
    by_size: dict[int, int] = {}
    for v in range(n):
        size = class_sizes[c1[v]]
        by_size[size] = by_size.get(size, 0) | 1 << v
    size_masks = [by_size[size] for size in sorted(by_size)]
    attach = [0] * n
    by_attach = [(1 << n) - 1]
    order: list[int] = []
    placed_mask = 0
    while by_attach:
        top = by_attach[-1]
        rarest = next(top & mask for mask in size_masks if top & mask)
        v = (rarest & -rarest).bit_length() - 1
        order.append(v)
        placed_mask |= 1 << v
        by_attach[-1] ^= 1 << v
        for w in iter_bits(g1.adj[v] & ~placed_mask):
            by_attach[attach[w]] ^= 1 << w
            attach[w] += 1
            if attach[w] == len(by_attach):
                by_attach.append(0)
            by_attach[attach[w]] |= 1 << w
        while by_attach and not by_attach[-1]:
            by_attach.pop()

    class_masks: dict[int, int] = {}
    for u in range(n):
        class_masks[c2[u]] = class_masks.get(c2[u], 0) | 1 << u

    # One frame per mapped depth d: the candidates of order[d] not yet
    # tried (its class less the images mapped above it, fixed when the
    # frame is made), and the images its mapped neighbors force on its image.
    mapping = [-1] * n
    mapped1 = mapped2 = 0
    budget = ISO_NODE_BUDGET
    stack = [(iter_bits(class_masks.get(c1[order[0]], 0)), 0)]
    while stack:
        depth = len(stack) - 1
        v = order[depth]
        candidates, required = stack[-1]
        for u in candidates:
            budget -= 1
            if budget < 0:
                raise SearchBudgetExceeded(f"exceeded {ISO_NODE_BUDGET} nodes")
            if g2.adj[u] & mapped2 == required:
                break
        else:
            stack.pop()
            if stack:  # backtrack: free the image of the vertex one level up
                w = order[depth - 1]
                mapped1 ^= 1 << w
                mapped2 ^= 1 << mapping[w]
                mapping[w] = -1
            continue
        mapping[v] = u
        mapped1 |= 1 << v
        mapped2 |= 1 << u
        if depth + 1 == n:
            return mapping
        v = order[depth + 1]
        required = 0
        for w in iter_bits(g1.adj[v] & mapped1):
            required |= 1 << mapping[w]
        stack.append((iter_bits(class_masks.get(c1[v], 0) & ~mapped2), required))
    return None


# --- vertex connectivity ---------------------------------------------------

def _max_vertex_disjoint(g: Graph, s: int, t: int, limit: int) -> int:
    """Internally vertex-disjoint s-t paths for non-adjacent s, t, capped at limit.

    Unit-capacity max-flow on the split digraph (v_in -> v_out per inner
    vertex, u_out -> v_in per edge direction). Internally disjoint paths
    carry at most one unit per arc, so the flow is stored per vertex: the
    ``used`` mask of inner vertices on a path and ``pred[v]``, the vertex
    whose out-node feeds v_in. Common neighbors of s and t seed the flow
    as paths of length 2; each further path is one depth-first search of
    the residual split graph, expanding an out-node v by
    ``adj[v] & ~seen_in``, so a flow costs O(limit * n) Python steps and
    builds no per-edge structure.
    """
    adj = g.adj
    t_bit = 1 << t
    pred = [s] * g.vertex_count  # s feeds every seeded path
    used = 0
    flow = 0
    for c in iter_bits(adj[s] & adj[t]):
        if flow >= limit:
            return flow
        used |= 1 << c
        flow += 1
    while flow < limit:
        # via_in[w]: out-node that reached w_in (w itself for the backward
        # split arc w_out -> w_in); via_out[x]: in-node that reached x_out
        # (x itself for the split arc x_in -> x_out).
        via_in: dict[int, int] = {}
        via_out: dict[int, int] = {}
        seen_in = 1 << s
        seen_out = 1 << s
        stack = [s]
        while stack:
            x = stack.pop()
            fresh = adj[x] & ~seen_in
            if used >> x & 1 and not seen_in >> x & 1:
                fresh |= 1 << x
            if fresh & t_bit:
                via_in[t] = x
                break
            seen_in |= fresh
            for w in iter_bits(fresh):
                via_in[w] = x
                # A free w_in leads on to w_out; a used one only back
                # along its flow arc, to pred[w]_out.
                y = pred[w] if used >> w & 1 else w
                if not seen_out >> y & 1:
                    seen_out |= 1 << y
                    via_out[y] = w
                    stack.append(y)
        else:
            break  # no augmenting path: the flow is maximum
        # Walk the path back from t_in, flipping the split arcs it crosses
        # and recording the new in-arc of every in-node it enters forward.
        v = t
        while True:
            x = via_in[v]
            if x == v:
                used &= ~(1 << v)
            elif v != t:
                pred[v] = x
            if x == s:
                break
            v = via_out[x]
            if v == x:
                used |= 1 << x
        flow += 1
    return flow


def vertex_connectivity(g: Graph, at_most: int | None = None) -> int:
    """Minimum number of vertex deletions disconnecting g; n-1 for complete graphs.

    Menger's theorem: kappa is the minimum over non-adjacent pairs of the
    maximum number of internally disjoint paths. Flows run only from
    sources u < best, the smallest count so far (S. Even, SIAM J.
    Comput. 4, 1975): a minimum separator misses one of 0..kappa, and the
    first vertex it misses is separated from some later non-neighbor.
    Since best >= kappa, that source is reached unless best == kappa
    already. That is O(kappa * n) flows of O(kappa * n) steps each. With
    ``at_most`` the computation is capped, returning min(kappa, at_most);
    a negative ``at_most`` raises ValueError. No case is special: source 0
    has no flow to a vertex outside its component, so a disconnected graph
    gives 0, and a complete graph has no non-adjacent pair to lower n-1.
    """
    if at_most is not None and at_most < 0:
        raise ValueError(f"at_most must be non-negative, not {at_most}")
    n = g.vertex_count
    if n <= 1:
        return 0
    best = n - 1 if at_most is None else min(at_most, n - 1)
    for u in range(n):
        if u >= best:
            break
        rest = ~g.adj[u] & ~((1 << (u + 1)) - 1) & ((1 << n) - 1)
        for v in iter_bits(rest):
            best = min(best, _max_vertex_disjoint(g, u, v, best))
            if best == 0:
                return 0
    return best


def connectivity_at_least(g: Graph, k: int) -> bool:
    return vertex_connectivity(g, at_most=k) >= k


# --- file format ------------------------------------------------------------

def read_graph_file(path: str | Path) -> Graph:
    """Read the `graph` text format."""

    def build(counts, labels, edges):
        n, m = counts
        for u, v in edges:
            if not u < v:
                raise ValueError(f"edge ({u},{v}) must satisfy u < v")
        if len(edges) != m:
            raise ValueError(f"header promises {m} edges, found {len(edges)}")
        return graph_from_edges(n, edges, labels)

    return textfile.read(path, "graph <n> <m>", "labels", 2, build)


def write_graph_file(g: Graph, path: str | Path) -> None:
    textfile.write(path, ["graph", g.vertex_count, g.edge_count], "labels", g.labels, g.edges)
