"""Non-commuting graphs of finite groups, with structural self-checks.

The non-commuting graph of a non-abelian group has the non-central
elements as vertices and an edge between x and y exactly when xy != yx.
For z in the center Z, x and xz commute with the same elements, so the
rows are compared once per pair of cosets of Z and copied to each
coset's members. One row check ties the graph to the group: each row,
copied or not, must equal the vertices outside C(x), so tau(x, y) =
|G| - |C(x) ∪ C(y)|. The pairs are taken once per pair of twin classes
(vertices with equal centralizers, so equal rows) and kept on the graph,
for `pair_profile` and the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .graphs import Graph, lexicographic_product, edgeless_graph
from .groups import Group


class AbelianGroup(Exception):
    """The non-commuting graph of an abelian group has no vertices."""


class BoundViolated(Exception):
    """A structural identity that must hold failed; indicates a bug."""


@dataclass(frozen=True)
class NonCommutingGraph:
    graph: Graph
    group: Group
    vertex_to_element: tuple[int, ...]

    @cached_property
    def _twin_classes(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(centralizer, vertex mask, vertices) per twin class, by least vertex."""
        members: dict[int, list[int]] = {}
        for v, e in enumerate(self.vertex_to_element):
            members.setdefault(self.group.centralizer_mask(e), []).append(v)
        return tuple((c, sum(1 << v for v in vs), tuple(vs)) for c, vs in members.items())

    @cached_property
    def _checked_pairs(self) -> tuple[tuple[int, bool, int, tuple[int, int]], ...]:
        """The class pairs of `_class_pairs`, made and checked once per graph."""
        return tuple(_class_pairs(self))


def noncommuting_graph(group: Group) -> NonCommutingGraph:
    """Graph on the non-central elements, joined when they do not commute."""
    if group.is_abelian:
        raise AbelianGroup(f"{group.name} is abelian")
    center_mask = group.center_mask
    vertices = [e for e in range(group.order) if not center_mask >> e & 1]
    center = [z for z in range(group.order) if center_mask >> z & 1]
    table = group.table
    coset: dict[int, int] = {}  # element -> index of its coset xZ, whose rows are equal
    reps: list[int] = []
    for x in vertices:
        if x not in coset:
            coset.update((table[x][z], len(reps)) for z in center)
            reps.append(x)
    masks = [0] * len(reps)
    for v, x in enumerate(vertices):
        masks[coset[x]] |= 1 << v
    adj = [0] * len(reps)
    for i, x in enumerate(reps):
        row = table[x]
        for j in range(i + 1, len(reps)):
            y = reps[j]
            if row[y] != table[y][x]:
                adj[i] |= masks[j]
                adj[j] |= masks[i]
    adj = [adj[coset[x]] for x in vertices]
    labels = tuple(group.names[e] for e in vertices)
    g = Graph(len(vertices), labels, tuple(adj))
    return NonCommutingGraph(g, group, tuple(vertices))


def _class_pairs(ncg: NonCommutingGraph) -> Iterator[tuple[int, bool, int, tuple[int, int]]]:
    """(tau, adjacent, pair count, first pair) per pair of twin classes and
    within each class of two or more, in order of first pair.

    Each adjacency row must equal V less C(x), a union of twin classes, or
    BoundViolated is raised. With vertex_to_element exactly the non-central
    elements, as `noncommuting_graph` makes it, adj[x] & adj[y] is then
    V less (C(x) ∪ C(y)), so tau = |G| - |C(x) ∪ C(y)|, as Z lies in C(x).
    """
    adj = ncg.graph.adj
    classes = ncg._twin_classes
    for _, _, xs in classes:
        x = ncg.vertex_to_element[xs[0]]  # class d meets C(x) iff x lies in C(d)
        expected = sum(vs for cd, vs, _ in classes if not cd >> x & 1)
        for v in xs:
            if adj[v] != expected:
                y = (adj[v] ^ expected).bit_length() - 1
                raise BoundViolated(f"tau mismatch at ({v},{y}): graph edge"
                                    f" {adj[v] >> y & 1}, group {expected >> y & 1}")
    for i, (_, _, xs) in enumerate(classes):
        for _, _, ys in classes[i:]:
            if ys is xs and len(xs) < 2:
                continue  # a class of one has no pair within it
            y, count = ((xs[1], len(xs) * (len(xs) - 1) // 2) if ys is xs
                        else (ys[0], len(xs) * len(ys)))
            t = (adj[xs[0]] & adj[y]).bit_count()
            yield t, (adj[xs[0]] >> y & 1) == 1, count, (xs[0], y)


def pair_profile(ncg: NonCommutingGraph) -> dict[tuple[int, bool], int]:
    """Histogram of (tau, adjacent) over unordered pairs of distinct vertices.

    One term per pair of twin classes, read from the graph's checked
    pairs; a row that disagrees with the group raises BoundViolated.
    Every group-side pair quantity (the failure bound for any k, the
    6*tau >= |G| floor) is a function of this histogram.
    """
    hist: dict[tuple[int, bool], int] = {}
    for t, adjacent, count, _ in ncg._checked_pairs:
        hist[t, adjacent] = hist.get((t, adjacent), 0) + count
    return hist


def common_neighbor_floor_check(ncg: NonCommutingGraph) -> tuple[int, tuple[str, str]]:
    """Verify 6*tau(x,y) >= |G| over all vertex pairs; return the least tau
    with the labels of its witness pair.

    The floor holds for every non-commuting graph, so a violation is
    raised as BoundViolated (it would indicate a bug) rather than reported.
    """
    group = ncg.group
    # The witness is the first pair in index order with the least tau:
    # the least first pair over the class pairs at that tau.
    t, (x, y) = min((t, first) for t, _, _, first in ncg._checked_pairs)
    witness = (ncg.graph.labels[x], ncg.graph.labels[y])
    if 6 * t < group.order:
        raise BoundViolated(f"{group.name}: 6*tau({witness[0]},{witness[1]})"
                            f" = {6 * t} < {group.order}")
    return t, witness


def abelian_extension_check(base: NonCommutingGraph, extended: NonCommutingGraph) -> None:
    """Extending by the cyclic group of order n blows each vertex into an
    edgeless n-fiber: `extended`, the graph of direct_product(G, cyclic(n))
    for G the group of `base`, n = |extended| / |base|, equals the
    lexicographic product of `base` with n isolated vertices, under the
    natural (element, fiber) correspondence. Checked positionally, no search;
    a mismatch raises BoundViolated."""
    n = extended.group.order // base.group.order
    product = lexicographic_product(base.graph, edgeless_graph(n))
    if extended.graph.adj != product.adj:
        raise BoundViolated(f"{extended.group.name}: not a fiber expansion of {base.group.name}")
