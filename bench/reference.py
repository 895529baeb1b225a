"""Reference side of the benchmark: its own group tables, seeds and verdict checks.

Nothing here imports `ncrainbow`. Group tables are built from their
presentations with this file's own arithmetic, failure bounds are
recomputed from those tables by brute force, and colorings are re-checked
with this file's own pair counter and splitmix64 stream. The program under
test is compared against these values outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

MASK64 = (1 << 64) - 1


def splitmix64(seed: int):
    """The splitmix64 stream (Steele, Lea and Flood 2014)."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


class Rng:
    """Seeded choices for input generation; the same seed gives the same inputs."""

    def __init__(self, seed: int):
        self._stream = splitmix64(seed)

    def below(self, n: int) -> int:
        return next(self._stream) % n

    def choice(self, items):
        return items[self.below(len(items))]

    def spread_seed(self) -> int:
        # 40 bits, so that no two jobs share attempt seeds
        # (attempt i of a search uses seed + i).
        return next(self._stream) >> 24

    def permutation(self, n: int) -> list[int]:
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


# --- group specifications ----------------------------------------------------
#
# A spec is a tuple: ("D", n) dihedral of order 2n, ("Q", m) dicyclic of order
# 4m, ("M", m, t) metacyclic <r, s | r^m = s^2 = 1, s r s = r^t> of order 2m,
# ("ZpZq", p, q, u) the split extension Z_p : Z_q where the generator of Z_q
# acts as multiplication by u, and ("x", base, m) the direct product base x Z_m.

def spec_name(spec) -> str:
    kind = spec[0]
    if kind == "D":
        return f"D{2 * spec[1]}"
    if kind == "Q":
        return f"Q{4 * spec[1]}"
    if kind == "M":
        return f"M({spec[1]},{spec[2]})"
    if kind == "ZpZq":
        return f"Z{spec[1]}:Z{spec[2]}"
    return f"{spec_name(spec[1])}xZ{spec[2]}"


def cayley_table(spec) -> list[list[int]]:
    """Multiplication table of the spec, identity at index 0."""
    kind = spec[0]
    if kind in ("D", "Q", "M"):
        # r^i is index i and r^i s is index n + i; s r^j = r^(twist j) s, s^2 = r^flip.
        if kind == "D":
            n, twist, flip = spec[1], spec[1] - 1, 0
        elif kind == "Q":
            n, twist, flip = 2 * spec[1], 2 * spec[1] - 1, spec[1]
        else:
            n, twist, flip = spec[1], spec[2], 0
        rot = [[(i + j) % n for j in range(n)] + [n + (i + j) % n for j in range(n)]
               for i in range(n)]
        ref = [[n + (i + twist * j) % n for j in range(n)]
               + [(i + twist * j + flip) % n for j in range(n)] for i in range(n)]
        return rot + ref
    if kind == "ZpZq":
        # (a, b) is index a q + b, and (a, b)(c, d) = (a + u^b c, b + d).
        p, q, u = spec[1], spec[2], spec[3]
        return [[(a + pow(u, b, p) * c) % p * q + (b + d) % q
                 for c in range(p) for d in range(q)]
                for a in range(p) for b in range(q)]
    base, m = cayley_table(spec[1]), spec[2]
    # (g, k) is index g m + k.
    return [[x * m + (k + l) % m for x in row for l in range(m)]
            for row in base for k in range(m)]


def relabel(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The same group with element i renamed perm[i]."""
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def cay_text(table: list[list[int]]) -> str:
    """The `cayley` text format read by `ncrainbow bounds --group`."""
    lines = [f"cayley {len(table)}"]
    lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


# --- brute-force references --------------------------------------------------

class Profile:
    """Invariants of a group table, computed from the commuting relation alone."""

    def __init__(self, table: list[list[int]]):
        n = len(table)
        nc = []
        for x in range(n):
            row = table[x]
            mask = 0
            for y in range(n):
                if row[y] != table[y][x]:
                    mask |= 1 << y
            nc.append(mask)
        self.order = n
        self.center_size = sum(1 for m in nc if m == 0)
        self.vertices = n - self.center_size
        self.edges = sum(m.bit_count() for m in nc) // 2
        self._noncommuting = nc

    def failure_bound(self, k: int = 2) -> Fraction:
        """Union bound over non-central pairs that a uniform 2-coloring
        leaves some pair with fewer than k disjoint rainbow paths.

        A pair with t common neighbours has t independent fair 2-paths,
        each bichromatic with probability 1/2; an adjacent pair needs
        k - 1 of them besides its edge, a non-adjacent pair needs k.
        """
        nc = self._noncommuting
        verts = [x for x in range(self.order) if nc[x]]
        hist: dict[tuple[int, bool], int] = {}
        for i, x in enumerate(verts):
            mx = nc[x]
            for y in verts[i + 1:]:
                key = ((mx & nc[y]).bit_count(), bool(mx >> y & 1))
                hist[key] = hist.get(key, 0) + 1
        total = Fraction(0)
        for (t, adjacent), count in hist.items():
            need = k - 1 if adjacent else k
            total += Fraction(count * sum(comb(t, i) for i in range(need)), 1 << t)
        return total



# --- coloring and certificate checks -----------------------------------------

def _edges(adj: list[int]) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, in the package's documented order: by u, then v."""
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def redraw(seed: int, edge_count: int) -> list[int]:
    """The coloring that search attempt `seed` draws: one splitmix64 output
    per edge in edge order, color 1 + its low bit."""
    stream = splitmix64(seed)
    return [1 + (next(stream) & 1) for _ in range(edge_count)]


def pair_counts(adj: list[int], colors: list[int]):
    """Yield (x, y, rainbow paths of length <= 2) for every vertex pair:
    the direct edge plus the common neighbours w with x-w and w-y colored
    differently."""
    n = len(adj)
    by_color = {1: [0] * n, 2: [0] * n}
    for (u, v), c in zip(_edges(adj), colors):
        by_color[c][u] |= 1 << v
        by_color[c][v] |= 1 << u
    one, two = by_color[1], by_color[2]
    for x in range(n):
        for y in range(x + 1, n):
            common = adj[x] & adj[y]
            same = (one[x] & one[y]) | (two[x] & two[y])
            yield x, y, (common.bit_count() - same.bit_count()) + (adj[x] >> y & 1)


def coloring_problems(table, vertices, adj, colors, winning_seed, search_seed, attempts):
    """Re-check a k=2 search result against the group table it came from."""
    n = len(table)
    own_vertices = [x for x in range(n) if any(table[x][y] != table[y][x] for y in range(n))]
    if vertices != own_vertices:
        return ["graph vertices are not the non-central elements"]
    own_adj = [sum(1 << j for j, y in enumerate(vertices) if table[x][y] != table[y][x])
               for x in vertices]
    if adj != own_adj:
        return ["graph edges are not the non-commuting pairs"]
    edge_count = len(_edges(adj))
    if len(colors) != edge_count:
        return [f"{len(colors)} colors for {edge_count} edges"]
    problems = []
    attempt = winning_seed - search_seed
    if not 0 <= attempt < attempts:
        problems.append(f"winning attempt {attempt} outside 0..{attempts - 1}")
    elif colors != redraw(winning_seed, edge_count):
        problems.append("colors differ from the splitmix64 draw of the winning seed")
    else:
        for i in range(attempt):
            if all(c >= 2 for _, _, c in pair_counts(adj, redraw(search_seed + i, edge_count))):
                problems.append(f"earlier attempt {i} already passes")
                break
    short = next(((x, y, c) for x, y, c in pair_counts(adj, colors) if c < 2), None)
    if short:
        problems.append(f"pair ({short[0]},{short[1]}) has {short[2]} rainbow paths")
    return problems


def certificate_problems(adj, colors, paths, k):
    """Every pair lists k internally disjoint rainbow paths of the graph."""
    n = len(adj)
    color = dict(zip(_edges(adj), colors))
    if len(paths) != n * (n - 1) // 2:
        return [f"certificate covers {len(paths)} pairs of {n * (n - 1) // 2}"]
    for (x, y), pair_paths in paths.items():
        inner = 0
        for p in pair_paths:
            if p[0] != x or p[-1] != y or len(set(p)) != len(p):
                return [f"path {p} is not a simple ({x},{y}) path"]
            hops = [(min(a, b), max(a, b)) for a, b in zip(p, p[1:])]
            if any(h not in color for h in hops):
                return [f"path {p} leaves the graph"]
            if len({color[h] for h in hops}) != len(hops):
                return [f"path {p} repeats a color"]
            mask = sum(1 << v for v in p[1:-1])
            if inner & mask:
                return [f"paths of ({x},{y}) share an inner vertex"]
            inner |= mask
        if len(pair_paths) < k:
            return [f"pair ({x},{y}) lists {len(pair_paths)} paths"]
    return []


def edge_on_tight_pair(adj, colors) -> int:
    """Index of an edge whose color flip leaves some pair with fewer than two
    rainbow paths: the first edge of a bichromatic 2-path of a pair that has
    exactly two. Edge 0 when no pair is tight."""
    edges = _edges(adj)
    color = dict(zip(edges, colors))
    for x, y, count in pair_counts(adj, colors):
        if count != 2:
            continue
        for w in range(len(adj)):
            if adj[x] >> w & 1 and adj[y] >> w & 1:
                xw, wy = (min(x, w), max(x, w)), (min(w, y), max(w, y))
                if color[xw] != color[wy]:
                    return edges.index(xw)
    return 0
