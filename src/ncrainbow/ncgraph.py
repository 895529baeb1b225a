"""Non-commuting graphs of finite groups, with structural self-checks.

The non-commuting graph of a non-abelian group has the non-central
elements as vertices and an edge between x and y exactly when xy != yx.
For z in the center Z, x and xz commute with the same elements, so the
rows are compared once per pair of cosets of Z and copied to each
coset's members. A `NonCommutingGraph` checks every row, copied or not,
against its group when it is made. `pair_profile` and the 6*tau >= |G|
floor read the group alone, one term per pair of twin classes.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        """The row check: each row, copied or not, must equal the vertices
        outside C(x), read from the group's twin classes, or BoundViolated is
        raised. With vertex_to_element the non-central elements, as
        `noncommuting_graph` makes it, adj[x] & adj[y] then has tau(x, y) bits."""
        adj, elements = self.graph.adj, self.vertex_to_element
        outside = {c: sum(1 << v for v, y in enumerate(elements) if not c >> y & 1)
                   for c, _ in self.group._twin_classes}
        for v, x in enumerate(elements):
            expected = outside[self.group.centralizer_mask(x)]
            if adj[v] != expected:
                y = (adj[v] ^ expected).bit_length() - 1
                raise BoundViolated(f"tau mismatch at ({v},{y}): graph edge"
                                    f" {adj[v] >> y & 1}, group {expected >> y & 1}")


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


def pair_profile(group: Group) -> dict[tuple[int, bool], int]:
    """Histogram of (tau, adjacent) over unordered pairs of distinct
    non-central elements, the vertex pairs of the non-commuting graph.

    One term per pair of twin classes, read from the group's centralizers.
    Every pair quantity (the failure bound for any k, the 6*tau >= |G|
    floor) is a function of this histogram.
    """
    if group.is_abelian:
        raise AbelianGroup(f"{group.name} is abelian")
    hist: dict[tuple[int, bool], int] = {}
    for t, adjacent, count, _ in group._class_pairs:
        hist[t, adjacent] = hist.get((t, adjacent), 0) + count
    return hist


def common_neighbor_floor_check(group: Group) -> tuple[int, tuple[str, str]]:
    """Verify 6*tau(x,y) >= |G| over all pairs of non-central elements;
    return the least tau with the names of its witness pair.

    The floor holds for every non-abelian group, so a violation is raised
    as BoundViolated (it would indicate a bug) rather than reported.
    """
    if group.is_abelian:
        raise AbelianGroup(f"{group.name} is abelian")
    # The witness is the first pair in index order with the least tau:
    # the least first pair over the class pairs at that tau.
    t, (x, y) = min((t, first) for t, _, _, first in group._class_pairs)
    witness = (group.names[x], group.names[y])
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
