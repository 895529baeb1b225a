"""The validator side: one independent check per quantity the package claims.

Each check reads only a graph's adjacency rows and edges and a coloring's
color list ``col.edge_colors``, never the per-color masks ``col.masks``
that the verifier and the search read, so a fault in the masks cannot make
both sides agree. Certificates hold paths of one or two edges, all that
two colors allow. The module imports nothing from ``rainbow``, ``bounds``
or ``ncgraph``, directly or through another module; a test holds it to that.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .colorings import EdgeColoring
from .graphs import Graph, iter_bits


def validate_certificate(g: Graph, col: EdgeColoring, cert) -> None:
    """Independent re-check of a certificate, a rainbow.RainbowCertificate;
    raises ValueError on any defect, for any number of colors.

    Pair keys and path vertices must be ints in 0..n-1 (a bool is not one),
    and a pair's paths and each path must be tuples. A path has one or two
    edges, checked straight-line. Two distinct such paths for one pair
    share no interior vertex, as the same endpoints and middle make the
    same tuple, so the "lists a path twice" check decides disjointness.
    """
    if col.graph is not g and col.graph.adj != g.adj:
        raise ValueError("coloring belongs to a different graph")
    adj = g.adj
    n = g.vertex_count
    colors_at: list[dict[int, int]] = [{} for _ in range(n)]  # a -> b -> color
    for (a, b), c in col.assignment().items():
        colors_at[a][b] = colors_at[b][a] = c
    if len(cert.per_pair) != n * (n - 1) // 2:
        raise ValueError("certificate does not cover every vertex pair")
    for pair, paths in cert.per_pair.items():
        # with the count above: exactly the pairs x < y
        if not (type(pair) is tuple and len(pair) == 2
                and type(pair[0]) is type(pair[1]) is int and 0 <= pair[0] < pair[1] < n):
            raise ValueError("certificate does not cover every vertex pair")
        x, y = pair
        if type(paths) is not tuple:
            raise ValueError(f"pair ({x},{y}) does not list its paths as a tuple")
        if len(paths) < cert.k:
            raise ValueError(f"pair ({x},{y}) lists {len(paths)} < {cert.k} paths")
        try:
            repeated = len(set(paths)) != len(paths)
        except TypeError:  # an unhashable path or vertex, which the loop below refuses
            repeated = False
        if repeated:
            raise ValueError(f"pair ({x},{y}) lists a path twice")
        for p in paths:
            if type(p) is not tuple:
                raise ValueError(f"path {p} is not a tuple")
            # an endpoint equal to x or y is in range, and with x < y one
            # edge cannot repeat a vertex or a color
            if len(p) == 2:
                a, b = p
                if a != x or b != y:
                    raise ValueError(f"path {p} does not join ({x},{y})")
                if not type(a) is type(b) is int:
                    raise ValueError(f"path {p} has a vertex that is not an int in 0..{n - 1}")
                if not adj[a] >> b & 1:
                    raise ValueError(f"path {p} uses non-edge ({a},{b})")
                continue
            if len(p) == 3:
                a, w, b = p
                if a != x or b != y:
                    raise ValueError(f"path {p} does not join ({x},{y})")
                if not (type(a) is type(w) is type(b) is int and 0 <= w < n):
                    raise ValueError(f"path {p} has a vertex that is not an int in 0..{n - 1}")
                if w == a or w == b:
                    raise ValueError(f"path {p} repeats a vertex")
                if not adj[a] >> w & 1:
                    raise ValueError(f"path {p} uses non-edge ({a},{w})")
                if not adj[w] >> b & 1:
                    raise ValueError(f"path {p} uses non-edge ({w},{b})")
                if colors_at[a][w] == colors_at[w][b]:
                    raise ValueError(f"path {p} repeats a color")
                continue
            if len(p) > 3:
                raise ValueError(f"path {p} has more than two edges")
            raise ValueError(f"path {p} does not join ({x},{y})")  # no vertex or one


def short_rainbow_counts(col: EdgeColoring) -> Iterator[tuple[tuple[int, int], int]]:
    """((x, y), count) for each pair x < y of col's graph, in index order:
    its rainbow paths of at most two edges, on any number of colors. They
    are the direct edge and the common neighbors w whose edges x-w and w-y
    differ in color. Each vertex gets one row of its neighbors per color,
    packed into one int from the color list, so the common neighbors whose
    two edges share a color are the popcount of two packed rows' AND. On
    two colors no longer path is rainbow."""
    g = col.graph
    n = g.vertex_count
    offset: dict[int, int] = {}  # color -> where its row starts in a packed row
    packed = [0] * n
    for (u, v), c in zip(g.edges, col.edge_colors):
        at = offset.setdefault(c, n * len(offset))
        packed[u] |= 1 << (at + v)
        packed[v] |= 1 << (at + u)
    adj = g.adj
    for x, (ax, px) in enumerate(zip(adj, packed)):
        for y in range(x + 1, n):
            yield (x, y), (ax >> y & 1) + (ax & adj[y]).bit_count() - (px & packed[y]).bit_count()


def brute_force_vertex_connectivity(g: Graph) -> int:
    """Reference kappa by enumerating all candidate cut sets."""
    n = g.vertex_count
    if n <= 1:
        return 0
    for size in range(n - 1):
        for cut in combinations(range(n), size):
            keep = [v for v in range(n) if v not in cut]
            if len(keep) < 2:
                continue
            seen = {keep[0]}
            stack = [keep[0]]
            keep_set = set(keep)
            while stack:
                v = stack.pop()
                for w in iter_bits(g.adj[v]):
                    if w in keep_set and w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(keep):
                return size
    return n - 1
