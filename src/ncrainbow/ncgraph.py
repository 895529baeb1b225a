"""Non-commuting graphs of finite groups, with structural self-checks.

The non-commuting graph of a non-abelian group has the non-central
elements as vertices and an edge between x and y exactly when xy != yx.
Common-neighbor counts can be computed two independent ways (adjacency
intersection on the graph side, centralizer unions on the group side);
`pair_profile` is the one place that cross-asserts them, on every pair,
because that identity is the backbone of everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, lexicographic_product, edgeless_graph
from .groups import Group, cyclic, direct_product


class AbelianGroup(Exception):
    """The non-commuting graph of an abelian group has no vertices."""


class BoundViolated(Exception):
    """A structural identity that must hold failed; indicates a bug."""


@dataclass(frozen=True)
class NonCommutingGraph:
    graph: Graph
    group: Group
    vertex_to_element: tuple[int, ...]


def noncommuting_graph(group: Group) -> NonCommutingGraph:
    """Graph on the non-central elements, joined when they do not commute."""
    if group.is_abelian:
        raise AbelianGroup(f"{group.name} is abelian")
    center_mask = group.center_mask
    vertices = [e for e in range(group.order) if not center_mask >> e & 1]
    table = group.table
    adj = [0] * len(vertices)
    for i, x in enumerate(vertices):
        row = table[x]
        for j in range(i + 1, len(vertices)):
            y = vertices[j]
            if row[y] != table[y][x]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    labels = tuple(group.names[e] for e in vertices)
    g = Graph(len(vertices), labels, tuple(adj))
    return NonCommutingGraph(g, group, tuple(vertices))


def pair_profile(ncg: NonCommutingGraph) -> dict[tuple[int, bool], int]:
    """Histogram of (tau, adjacent) over unordered pairs of distinct vertices.

    One pass over the pairs. tau is counted on the graph side and checked
    on every pair against |G| - |C(x) ∪ C(y)| from the group side; a
    mismatch raises BoundViolated. Every group-side pair quantity (the
    failure bound for any k, the 6*tau >= |G| floor) is a function of this
    histogram.
    """
    adj = ncg.graph.adj
    group = ncg.group
    cent = [group.centralizer_mask(e) for e in ncg.vertex_to_element]
    order = group.order
    hist: dict[tuple[int, bool], int] = {}
    for x, (ax, cx) in enumerate(zip(adj, cent)):
        for y in range(x + 1, len(adj)):
            t = (ax & adj[y]).bit_count()
            group_side = order - (cx | cent[y]).bit_count()
            if t != group_side:
                raise BoundViolated(
                    f"tau mismatch at ({x},{y}): graph {t}, group {group_side}")
            key = (t, (ax >> y & 1) == 1)
            hist[key] = hist.get(key, 0) + 1
    return hist


@dataclass(frozen=True)
class CommonNeighborReport:
    group_name: str
    order: int
    min_tau: int
    min_ratio: Fraction
    witness: tuple[str, str]


def common_neighbor_floor_check(group: Group) -> CommonNeighborReport:
    """Verify 6*tau(x,y) >= |G| over all vertex pairs; report the minimum.

    The floor holds for every non-commuting graph, so a violation is
    raised as BoundViolated (it would indicate a bug) rather than reported.
    """
    ncg = noncommuting_graph(group)
    t = min(key[0] for key in pair_profile(ncg))
    # The witness is the first pair in index order with the least tau;
    # pair_profile has just cross-checked every pair's tau.
    adj = ncg.graph.adj
    x, y = next((x, y) for x, ax in enumerate(adj) for y in range(x + 1, len(adj))
                if (ax & adj[y]).bit_count() == t)
    if 6 * t < group.order:
        raise BoundViolated(
            f"{group.name}: 6*tau({ncg.graph.labels[x]},{ncg.graph.labels[y]})"
            f" = {6 * t} < {group.order}"
        )
    return CommonNeighborReport(
        group_name=group.name,
        order=group.order,
        min_tau=t,
        min_ratio=Fraction(t * 6, group.order),
        witness=(ncg.graph.labels[x], ncg.graph.labels[y]),
    )


@dataclass(frozen=True)
class EdgeCountReport:
    group_name: str
    edge_count: int
    centralizer_sum_halved: Fraction
    lower_bound: Fraction


def edge_count_identity_check(group: Group) -> EdgeCountReport:
    """Assert |E| = (1/2) * sum over vertices of (|G| - |C(x)|), and the
    quarter bound |E| >= |G| * (|G| - |Z|) / 4."""
    ncg = noncommuting_graph(group)
    n = group.order
    total = sum(n - group.centralizer_mask(e).bit_count() for e in ncg.vertex_to_element)
    halved = Fraction(total, 2)
    edges = ncg.graph.edge_count
    if halved != edges:
        raise BoundViolated(
            f"{group.name}: edge count {edges} != centralizer sum/2 = {halved}"
        )
    bound = Fraction(n * (n - group.center_mask.bit_count()), 4)
    if edges < bound:
        raise BoundViolated(f"{group.name}: |E| = {edges} below bound {bound}")
    return EdgeCountReport(group.name, edges, halved, bound)


@dataclass(frozen=True)
class FiberExpansionReport:
    group_name: str
    fiber_size: int
    vertex_count: int


def abelian_extension_check(group: Group, n: int) -> FiberExpansionReport:
    """Extending by the cyclic group of order n blows each vertex into an
    edgeless n-fiber: the graph of G x Z_n equals the lexicographic product
    of the graph of G with n isolated vertices, under the natural
    (element, fiber) correspondence. Checked positionally, no search."""
    if n < 1:
        raise ValueError("fiber size must be positive")
    big = noncommuting_graph(direct_product(group, cyclic(n)))
    base = noncommuting_graph(group)
    product = lexicographic_product(base.graph, edgeless_graph(n))
    if big.graph.adj != product.adj:
        raise BoundViolated(
            f"{group.name} x Z{n}: graph differs from the fiber expansion"
        )
    return FiberExpansionReport(group.name, n, product.vertex_count)
