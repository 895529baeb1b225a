"""Brute-force reference implementations used as independent oracles, a
call counter for the certificate validator, a wrapper for a group's
class pairs and the least-tau fault injector built on it. The oracles
that the package itself runs live in ncrainbow.check."""

from collections import Counter
from functools import cached_property
from itertools import permutations
from operator import itemgetter

from ncrainbow import rainbow
from ncrainbow.check import short_rainbow_counts
from ncrainbow.colorings import EdgeColoring
from ncrainbow.graphs import Graph, _refine_classes, iter_bits
from ncrainbow.groups import (AssociativityViolation, Group, NoIdentity, NotLatinSquare,
                              _generating_set)


def counting_validator(monkeypatch) -> list[int]:
    """Wrap rainbow.validate_certificate; the returned list gets the k of
    every certificate validated from then on."""
    calls: list[int] = []
    validate = rainbow.validate_certificate

    def counted(g, col, cert):
        calls.append(cert.k)
        validate(g, col, cert)

    monkeypatch.setattr(rainbow, "validate_certificate", counted)
    return calls


_MAKE_CLASS_PAIRS = Group._class_pairs.func


def wrap_class_pairs(monkeypatch, wrap):
    """Make Group._class_pairs, still made once per group, return
    wrap(group, pairs) for the pairs the package makes. A group keeps the
    pairs it made first, so only a group whose pairs are made later sees it."""
    made = cached_property(lambda group: wrap(group, _MAKE_CLASS_PAIRS(group)))
    made.__set_name__(Group, "_class_pairs")
    monkeypatch.setattr(Group, "_class_pairs", made)


def inject_min_tau(monkeypatch, tau_of_order):
    """Make Group._class_pairs also hold a class pair of the given least tau."""
    wrap_class_pairs(monkeypatch, lambda group, pairs:
                     pairs + ((tau_of_order(group.order), False, 1, (0, 1)),))


def relabel_table(group, perm):
    """group's table and names with element x renamed perm[x], as lists:
    the identity sits at perm[0], and names[perm[x]] is f"e{x}"."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[group.table[x][y]]
    return table, [f"e{perm.index(i)}" for i in range(n)]


def reference_relabel(table, names, identity):
    """The relabel of an imported table as groups._finish made it before it
    swapped in place: labels 0 and identity exchanged by two itemgetter
    passes per row over a fresh copy. The reference for the table and names
    of group_from_cayley_table."""
    perm = list(range(len(table)))
    perm[0], perm[identity] = identity, 0
    swap = itemgetter(*perm)
    rows = [swap(itemgetter(*table[a])(perm)) for a in perm]
    return tuple(map(tuple, rows)), tuple(swap(names))


def brute_centralizers(table):
    """C(g) = {x : x*g == g*x} for each g, as sets, read entry by entry from
    the table; the one brute-force oracle for centralizers."""
    n = len(table)
    return [{x for x in range(n) if table[x][g] == table[g][x]} for g in range(n)]


def brute_center(table):
    """The z whose centralizer is the whole group, in increasing order."""
    n = len(table)
    return [z for z, c in enumerate(brute_centralizers(table)) if len(c) == n]


def mask_members(mask):
    """Indices of the set bits of mask, in increasing order."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def brute_pairs(group):
    """(tau, adjacent) for each unordered pair of distinct non-central
    elements, in index order: tau = |G| - |C(x) ∪ C(y)| from centralizer
    sets, adjacency from the table."""
    n = group.order
    table = group.table
    centralizer = brute_centralizers(table)
    vertices = [g for g in range(n) if len(centralizer[g]) < n]
    for i, x in enumerate(vertices):
        for y in vertices[i + 1:]:
            yield n - len(centralizer[x] | centralizer[y]), table[x][y] != table[y][x]


def brute_pair_profile(group):
    """Histogram of brute_pairs, the reference for ncgraph.pair_profile."""
    return Counter(brute_pairs(group))


def group_isomorphism(g, h):
    """Bijection preserving products, found by backtracking with closure.

    Maps elements in index order; every forced product image is propagated
    immediately, so the search only branches on generators.
    """
    n = g.order
    if h.order != n:
        return None
    ord_g = [g.element_order(x) for x in range(n)]
    ord_h = [h.element_order(x) for x in range(n)]
    if sorted(ord_g) != sorted(ord_h):
        return None
    candidates = [[y for y in range(n) if ord_h[y] == ord_g[x]] for x in range(n)]
    mapping = [-1] * n
    used = [False] * n
    mapping[0] = 0
    used[0] = True

    def close_over(x, trail):
        queue = [x]
        while queue:
            a = queue.pop()
            for b in [i for i in range(n) if mapping[i] != -1]:
                for p, q in ((a, b), (b, a)):
                    prod = g.table[p][q]
                    image = h.table[mapping[p]][mapping[q]]
                    if mapping[prod] == -1:
                        if used[image]:
                            return False
                        mapping[prod] = image
                        used[image] = True
                        trail.append(prod)
                        queue.append(prod)
                    elif mapping[prod] != image:
                        return False
        return True

    def extend():
        x = next((i for i in range(n) if mapping[i] == -1), None)
        if x is None:
            return True
        for y in candidates[x]:
            if used[y]:
                continue
            mapping[x] = y
            used[y] = True
            trail = [x]
            if close_over(x, trail) and extend():
                return True
            for p in trail:
                used[mapping[p]] = False
                mapping[p] = -1
        return False

    return list(mapping) if extend() else None


def brute_associativity_violation(table):
    """First (i, j, k) in index order with (i*j)*k != i*(j*k), or None; O(n^3)."""
    n = len(table)
    for i in range(n):
        row_i = table[i]
        for j in range(n):
            lhs = list(table[row_i[j]])
            rhs = [row_i[x] for x in table[j]]
            if lhs != rhs:
                return i, j, next(k for k in range(n) if lhs[k] != rhs[k])
    return None


def reference_validate_table(table, name):
    """The table validator as it was before its C-level passes: sorted rows
    and columns, and Light's test composed by map. The reference for the
    class and message of every error groups._validate_table raises."""
    n = len(table)
    expected = list(range(n))
    for i, row in enumerate(table):
        if sorted(row) != expected:
            raise NotLatinSquare(f"{name}: row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        col = sorted(table[i][j] for i in range(n))
        if col != expected:
            raise NotLatinSquare(f"{name}: column {j} is not a permutation of 0..{n - 1}")
    if list(table[0]) != expected or any(table[i][0] != i for i in range(n)):
        raise NoIdentity(f"{name}: index 0 is not a two-sided identity")
    for s in _generating_set(table):
        col = [row[s] for row in table]
        for x, row in enumerate(table):
            lhs = list(map(col.__getitem__, row))  # (x*y)*s over y
            rhs = list(map(row.__getitem__, col))  # x*(y*s) over y
            if lhs != rhs:
                y = next(y for y in range(n) if lhs[y] != rhs[y])
                raise AssociativityViolation(
                    f"{name}: ({x}*{y})*{s} = {lhs[y]} but {x}*({y}*{s}) = {rhs[y]}"
                )


def reference_validate_certificate(g: Graph, col: EdgeColoring,
                                   cert: rainbow.RainbowCertificate) -> None:
    """The certificate validator as it was before its straight-line checks
    of one- and two-edge paths: one per-edge loop for every path, which
    refuses a pair key or path vertex that is not an int in 0..n-1 with
    ValueError, and a set of interiors for disjointness. It refuses a path
    of more than two edges first, and keeps its own disjointness check, so
    agreeing with it shows by example that distinct paths of at most two
    edges are disjoint. The reference for the verdict, error class and
    message of rainbow.validate_certificate."""
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
        if len(paths) < cert.k:
            raise ValueError(f"pair ({x},{y}) lists {len(paths)} < {cert.k} paths")
        if len(set(paths)) != len(paths):
            raise ValueError(f"pair ({x},{y}) lists a path twice")
        inside: set[int] = set()
        inside_count = 0
        for p in paths:
            if len(p) > 3:
                raise ValueError(f"path {p} has more than two edges")
            if len(p) < 2 or p[0] != x or p[-1] != y:
                raise ValueError(f"path {p} does not join ({x},{y})")
            if not all(type(v) is int and 0 <= v < n for v in p):
                raise ValueError(f"path {p} has a vertex that is not an int in 0..{n - 1}")
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


def reference_two_color_paths(g: Graph, col: EdgeColoring, k: int) -> dict:
    """For each pair x < y, the direct edge if there is one and then the
    2-paths x-w-y through the lowest common neighbours w whose two edge
    colors differ, read from the color list: the first k, or all when
    there are fewer. The reference for the certificate rainbow's verifier
    builds on at most two colors."""
    colors = col.assignment()
    n = g.vertex_count

    def color(a, b):
        return colors[min(a, b), max(a, b)]

    per_pair = {}
    for x in range(n):
        for y in range(x + 1, n):
            paths = [(x, y)] if g.adjacent(x, y) else []
            paths += [(x, w, y) for w in range(n) if w not in (x, y) and g.adjacent(x, w)
                      and g.adjacent(w, y) and color(x, w) != color(w, y)]
            per_pair[(x, y)] = tuple(paths[:k])
    return per_pair


def brute_simple_paths(g: Graph, x: int, y: int, max_len: int):
    """All simple x-y paths with at most max_len edges, as vertex tuples."""
    out = []

    def walk(path):
        v = path[-1]
        if v == y:
            out.append(tuple(path))
            return
        if len(path) > max_len:
            return
        for w in range(g.vertex_count):
            if g.adjacent(v, w) and w not in path:
                walk(path + [w])

    walk([x])
    return [p for p in out if len(p) >= 2]


def complement(g: Graph) -> Graph:
    """The graph on g's vertices and labels whose edges are g's non-edges."""
    n = g.vertex_count
    full = (1 << n) - 1
    return Graph(n, g.labels, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(n)))


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Permutation-by-permutation isomorphism test; only for tiny graphs."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    for perm in permutations(range(n)):
        if all((g2.adj[perm[u]] >> perm[v] & 1) == (g1.adj[u] >> v & 1)
               for u in range(n) for v in range(n) if u != v):
            return True
    return False


def first_short_pair(col: EdgeColoring, k: int) -> tuple[int, int] | None:
    """First vertex pair x < y, in index order, with fewer than k rainbow
    paths of at most two edges by check.short_rainbow_counts, which reads
    the color list and not the masks; None means the coloring passes."""
    return next((pair for pair, count in short_rainbow_counts(col) if count < k), None)


def recursive_are_isomorphic(g1: Graph, g2: Graph) -> tuple[list[int] | None, int]:
    """graphs.are_isomorphic with the search as a recursive function, one
    level per mapped vertex; the reference for the iterative search's
    mapping and node count. Returns the mapping (or None) and the nodes
    the search visited: the smallest node budget under which the iterative
    search finishes. Needs recursion depth n."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return None, 0
    if n == 0:
        return [], 0
    refined = _refine_classes(g1, g2)
    if refined is None:
        return None, 0
    c1, c2 = refined

    class_sizes: dict[int, int] = {}
    for c in c1:
        class_sizes[c] = class_sizes.get(c, 0) + 1
    order: list[int] = []
    placed_mask = 0
    for _ in range(n):
        best, best_key = -1, None
        for v in range(n):
            if placed_mask >> v & 1:
                continue
            attach = (g1.adj[v] & placed_mask).bit_count()
            key = (-attach, class_sizes[c1[v]], v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        order.append(best)
        placed_mask |= 1 << best

    candidates_by_class: dict[int, list[int]] = {}
    for u in range(n):
        candidates_by_class.setdefault(c2[u], []).append(u)

    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def extend(depth: int, mapped1: int, mapped2: int) -> bool:
        nonlocal nodes
        if depth == n:
            return True
        v = order[depth]
        required = 0
        for w in iter_bits(g1.adj[v] & mapped1):
            required |= 1 << mapping[w]
        for u in candidates_by_class.get(c1[v], ()):
            if used[u]:
                continue
            nodes += 1
            if g2.adj[u] & mapped2 != required:
                continue
            mapping[v] = u
            used[u] = True
            if extend(depth + 1, mapped1 | (1 << v), mapped2 | (1 << u)):
                return True
            mapping[v] = -1
            used[u] = False
        return False

    if extend(0, 0, 0):
        return list(mapping), nodes
    return None, nodes
