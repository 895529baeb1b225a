"""Edge 2-colorings: explicit constructions and seeded random ones.

The multipartite construction works on K_{m[l],ln} (m parts of size l
plus one part of size l*n) and is transcribed as a fixed list of edge
families per case; there is no repair logic, so any defect surfaces as a
verification failure rather than being silently patched. Vertex (j, i)
is the j-th vertex of part i, both 1-based, with part m+1 the big part.

Random colorings use a splitmix64 stream (documented in the README) so
identical seeds give identical colorings on any platform.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import textfile
from .graphs import Graph, complete_multipartite, edgeless_graph, johnson, lexicographic_product


class InvalidSpec(Exception):
    """Partition parameters violate a constraint; the message names it."""


class EdgeColoring:
    """Total assignment of colors 1..color_count to the edges of a graph.

    Immutable once built. ``edge_colors`` is aligned with ``graph.edges``;
    ``masks[c][v]`` is the set of neighbors of v through color-c edges, for
    the colors c that occur, built in the same pass that range-checks them.
    """

    def __init__(self, graph: Graph, color_count: int, edge_colors: Sequence[int],
                 seed: int | None = None):
        if type(color_count) is not int or color_count < 1:
            raise ValueError(f"need at least one color, counted by an int, not {color_count!r}")
        if len(edge_colors) != graph.edge_count:
            raise ValueError(
                f"{len(edge_colors)} colors for {graph.edge_count} edges"
            )
        if not set(map(type, edge_colors)) <= {int}:  # a bool is no int
            c = next(c for c in edge_colors if type(c) is not int)
            raise ValueError(f"color {c!r} is not an int")
        masks: dict[int, list[int]] = defaultdict(lambda: [0] * graph.vertex_count)
        for (u, v), c in zip(graph.edges, edge_colors):
            if not 1 <= c <= color_count:
                raise ValueError(f"color {c} outside 1..{color_count}")
            row = masks[c]
            row[u] |= 1 << v
            row[v] |= 1 << u
        self.graph = graph
        self.color_count = color_count
        self.edge_colors = tuple(edge_colors)
        self.seed = seed
        self.masks = {c: tuple(m) for c, m in masks.items()}

    @classmethod
    def from_function(cls, graph: Graph, color_count: int,
                      fn: Callable[[int, int], int]) -> "EdgeColoring":
        return cls(graph, color_count, [fn(u, v) for u, v in graph.edges])

    def color_of(self, u: int, v: int) -> int:
        if 0 <= u < self.graph.vertex_count and v >= 0:  # a negative u would wrap
            for c, rows in self.masks.items():
                if rows[u] >> v & 1:
                    return c
        raise ValueError(f"({u},{v}) is not an edge")

    def assignment(self) -> dict[tuple[int, int], int]:
        return dict(zip(self.graph.edges, self.edge_colors))


@dataclass(frozen=True)
class PartitionSpec:
    """Parameters of K_{m[l],ln}: m parts of size l and one part of size l*n."""

    l: int
    m: int
    n: int

    def __post_init__(self):
        for field in ("l", "m", "n"):
            if getattr(self, field) < 1:
                raise InvalidSpec(f"{field} must be a positive integer")
        if self.m < self.n + 1:
            raise InvalidSpec(f"m >= n+1 violated: m={self.m}, n={self.n}")
        if self.l * self.m * self.n == 2:
            raise InvalidSpec(f"l*m*n = 2 is excluded (l={self.l}, m={self.m}, n={self.n})")

    def part_sizes(self) -> list[int]:
        return [self.l] * self.m + [self.l * self.n]

    def graph(self) -> Graph:
        return complete_multipartite(self.part_sizes())

    def vertex(self, j: int, i: int) -> int:
        """Graph vertex of (j, i), 1-based; part m+1 is the big part."""
        if i < 1 or i > self.m + 1:
            raise InvalidSpec(f"part {i} out of range 1..{self.m + 1}")
        size = self.l if i <= self.m else self.l * self.n
        if j < 1 or j > size:
            raise InvalidSpec(f"index {j} out of range for part {i} of size {size}")
        if i <= self.m:
            return (i - 1) * self.l + (j - 1)
        return self.m * self.l + (j - 1)


def _case11_even_families(l: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    for j in range(1, l // 2 + 1):
        o, e = 2 * j - 1, 2 * j
        yield (o, 1), (o, 2)
        yield (o, 1), (e, 2)
        yield (o, 1), (o, 3)
        yield (e, 1), (o, 2)
        yield (e, 1), (e, 2)
        yield (e, 1), (e, 3)
        yield (o, 2), (o, 3)
        yield (o, 2), (e, 3)


def _case11_odd_extras(l: int) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    yield (l, 2), (l, 3)
    for j in range(1, (l - 1) // 2 + 1):
        o, e = 2 * j - 1, 2 * j
        yield (l, 1), (o, 2)
        yield (l, 1), (e, 3)
        yield (l, 2), (o, 1)
        yield (l, 2), (e, 1)
        yield (l, 2), (o, 3)
        yield (l, 2), (e, 3)
        yield (l, 3), (e, 2)


def distinguished_edges(spec: PartitionSpec) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The color-1 edge families of the construction, in (j, i) coordinates."""
    l, m, n = spec.l, spec.m, spec.n
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    if n == 1:
        if m == 2:
            edges.extend(_case11_even_families(l))
            if l % 2 == 1:
                edges.extend(_case11_odd_extras(l))
        elif m == 3:
            for j in range(1, l + 1):
                edges.append(((j, 1), (j, 2)))
                edges.append(((j, 2), (j, 4)))
                edges.append(((j, 3), (j, 4)))
        else:
            for j in range(1, l + 1):
                for i in range(1, m + 1):
                    edges.append(((j, i), (j, i + 1)))
                edges.append(((j, m + 1), (j, 1)))
    else:
        for j in range(1, l + 1):
            for i in range(1, m):
                edges.append(((j, i), (j, i + 1)))
            edges.append(((j, 1), (j, m)))
            for ip in range(1, n + 1):
                edges.append(((j, ip), ((j - 1) * n + ip, m + 1)))
    return edges


def multipartite_two_coloring(spec: PartitionSpec) -> tuple[Graph, EdgeColoring]:
    """K_{m[l],ln} with its rainbow-2-connecting 2-coloring.

    Color 1 goes on the distinguished families, color 2 everywhere else.
    The family list is checked for existence and distinctness, not for
    correctness: the verifier is the arbiter.
    """
    g = spec.graph()
    special = [0] * g.vertex_count  # special[u]: the color-1 neighbors of u
    for (j1, i1), (j2, i2) in distinguished_edges(spec):
        u, v = spec.vertex(j1, i1), spec.vertex(j2, i2)
        if not g.adjacent(u, v):
            raise InvalidSpec(
                f"family references non-edge ({j1},{i1})-({j2},{i2}) for {spec}"
            )
        if special[u] >> v & 1:
            raise InvalidSpec(
                f"family lists edge ({j1},{i1})-({j2},{i2}) twice for {spec}"
            )
        special[u] |= 1 << v
        special[v] |= 1 << u
    return g, EdgeColoring.from_function(g, 2, lambda u, v: 1 if special[u] >> v & 1 else 2)


def j62_graph_and_coloring() -> tuple[Graph, EdgeColoring]:
    """The 2-fiber expansion of the Johnson graph J(6,2), with its 2-coloring.

    Vertices are a_pq and b_pq over 2-subsets {p,q} of {1..6}; two
    vertices are adjacent when their subsets meet in one point (the
    shared point i, the leftover points j and k). Color 1 goes on
    same-letter edges with i > max(j,k) and cross-letter edges with
    i < min(j,k); everything else is color 2.
    """
    base = johnson(6, 2)
    product = lexicographic_product(base, edgeless_graph(2))
    pairs = sorted(combinations(range(1, 7), 2), key=lambda c: c[::-1])
    labels = []
    for p, q in pairs:
        labels.append(f"a{p}{q}")
        labels.append(f"b{p}{q}")
    g = Graph(product.vertex_count, tuple(labels), product.adj)

    sets = [set(c) for c in pairs]

    def color(u: int, v: int) -> int:
        tu, fu = divmod(u, 2)
        tv, fv = divmod(v, 2)
        common = sets[tu] & sets[tv]
        i = next(iter(common))
        j = next(iter(sets[tu] - common))
        k = next(iter(sets[tv] - common))
        if fu == fv:
            return 1 if i > max(j, k) else 2
        return 1 if i < min(j, k) else 2

    return g, EdgeColoring.from_function(g, 2, color)


MASK64 = (1 << 64) - 1
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
SPLITMIX_MUL2 = 0x94D049BB133111EB


def splitmix64(seed: int) -> Iterator[int]:
    """The splitmix64 stream; output j is mix((seed + (j+1)*SPLITMIX_GAMMA) mod 2^64)."""
    state = seed & MASK64
    while True:
        state = (state + SPLITMIX_GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * SPLITMIX_MUL1) & MASK64
        z = ((z ^ (z >> 27)) * SPLITMIX_MUL2) & MASK64
        yield z ^ (z >> 31)


def random_two_coloring(g: Graph, seed: int) -> EdgeColoring:
    """Independent fair color choice per edge, in canonical edge order."""
    stream = splitmix64(seed)
    colors = [1 + (next(stream) & 1) for _ in range(g.edge_count)]
    return EdgeColoring(g, 2, colors, seed=seed)


def transfer_coloring(col: EdgeColoring, mapping: Sequence[int], target: Graph) -> EdgeColoring:
    """Pull a coloring back along a vertex bijection target -> col.graph."""
    if sorted(mapping) != list(range(col.graph.vertex_count)):
        raise ValueError("mapping is not a bijection onto the source vertices")
    if len(mapping) != target.vertex_count:
        raise ValueError(f"mapping has {len(mapping)} entries for {target.vertex_count}"
                         " target vertices")

    def color(u: int, v: int) -> int:
        a, b = mapping[u], mapping[v]
        if not col.graph.adjacent(a, b):
            raise ValueError(f"mapping does not preserve edge ({u},{v})")
        return col.color_of(a, b)

    return EdgeColoring.from_function(target, col.color_count, color)


def read_coloring_file(path: str | Path, graph: Graph) -> EdgeColoring:
    """Read the `coloring` text format; must cover every edge of graph exactly once."""

    def build(counts, _, rows):
        colors: dict[tuple[int, int], int] = {}
        for u, v, c in rows:
            if not u < v:
                raise ValueError(f"edge ({u},{v}) must satisfy u < v")
            if (u, v) in colors:
                raise ValueError(f"edge ({u},{v}) colored twice")
            colors[(u, v)] = c
        edge_colors = [colors.pop(e, None) for e in graph.edges]
        if None in edge_colors:
            raise ValueError(f"no color for edge {graph.edges[edge_colors.index(None)]}")
        if colors:  # what is left names no graph edge
            raise ValueError(f"colored pair {next(iter(colors))} is not a graph edge")
        return EdgeColoring(graph, counts[0], edge_colors)

    return textfile.read(path, "coloring <c>", None, 3, build)


def write_coloring_file(col: EdgeColoring, path: str | Path) -> None:
    rows = ((u, v, c) for (u, v), c in zip(col.graph.edges, col.edge_colors))
    textfile.write(path, ["coloring", col.color_count], None, (), rows)
