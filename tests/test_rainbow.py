import json
import random
from fractions import Fraction
from math import comb

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncrainbow.bounds import failure_bound
from ncrainbow.check import short_rainbow_counts
from ncrainbow.colorings import (EdgeColoring, PartitionSpec, j62_graph_and_coloring,
                                 multipartite_two_coloring, random_two_coloring)
from ncrainbow.graphs import (SearchBudgetExceeded, complete_graph, complete_multipartite,
                              graph_from_edges)
from ncrainbow.groups import dicyclic, dihedral
from ncrainbow.ncgraph import noncommuting_graph
from ncrainbow import rainbow
from ncrainbow.rainbow import (ColoringRejected, FailureWitness, PreconditionKappa,
                               RainbowCertificate, certify_rc2, derandomized_two_coloring,
                               is_rainbow_k_connected, search_two_coloring,
                               validate_certificate, write_certificate)
from ncrainbow.reproduce import standard_suite
from util import (brute_simple_paths, counting_validator, first_short_pair,
                  reference_two_color_paths)


def colored(g, colors):
    return EdgeColoring(g, max(colors) if colors else 1, colors)


def random_colored_graph(rng, max_n=12):
    n = rng.randint(4, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = graph_from_edges(n, edges)
    return g, EdgeColoring(g, 2, [rng.choice([1, 2]) for _ in edges])


def test_enumerate_single_edge():
    g = complete_graph(2)
    col = colored(g, [1])
    assert is_rainbow_k_connected(g, col, 1) == RainbowCertificate(1, {(0, 1): ((0, 1),)})
    assert is_rainbow_k_connected(g, col, 2) == FailureWitness((0, 1), 2, 1)


def test_enumerate_triangle():
    """Pair (0, 1) has its edge and the bichromatic middle 2; pair (1, 2)
    has only its edge, since both edges through 0 have color 1."""
    g = complete_graph(3)
    # edges (0,1), (0,2), (1,2): colors 1, 1, 2
    col = EdgeColoring(g, 2, [1, 1, 2])
    assert is_rainbow_k_connected(g, col, 3) == FailureWitness((0, 1), 3, 2)
    assert is_rainbow_k_connected(g, col, 2) == FailureWitness((1, 2), 2, 1)


def test_enumerate_monochromatic_two_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    col = EdgeColoring(g, 2, [1, 1])
    assert is_rainbow_k_connected(g, col, 1) == FailureWitness((0, 2), 1, 0)


def test_enumerate_matches_brute_force():
    """check.short_rainbow_counts counts every rainbow path of a 2-coloring:
    on two colors no longer path is rainbow."""
    rng = random.Random(5)
    for _ in range(30):
        g, col = random_colored_graph(rng, max_n=8)
        counts = dict(short_rainbow_counts(col))
        x, y = sorted(rng.sample(range(g.vertex_count), 2))
        expected = []
        for p in brute_simple_paths(g, x, y, max_len=g.vertex_count - 1):
            cols = [col.color_of(a, b) for a, b in zip(p, p[1:])]
            if len(set(cols)) == len(cols):
                expected.append(p)
        assert counts[(x, y)] == len(expected)


def test_short_paths_refuse_three_colors_in_use():
    """The count the search decides by, rainbow._short_pair, reads the
    verifier's masks and refuses three colors in use as it does; two of
    nine declared colors are taken."""
    g = complete_graph(3)
    with pytest.raises(ValueError, match="at most 2 colors in use, not 3"):
        rainbow._short_pair(g, EdgeColoring(g, 3, [1, 2, 3]), 2)
    assert rainbow._short_pair(g, EdgeColoring(g, 9, [4, 9, 4]), 2) == FailureWitness((0, 2), 2, 1)


def test_short_paths_are_disjoint_and_complete():
    """On K5, where every pair has three rainbow paths of at most two edges,
    the verifier's certificate at k = 3 lists exactly those paths for each
    pair, each once, and no two share an internal vertex."""
    g, col = multipartite_two_coloring(PartitionSpec(1, 4, 1))
    assert {count for _, count in short_rainbow_counts(col)} == {3}
    cert = is_rainbow_k_connected(g, col, 3)
    assert sorted(cert.per_pair) == [(x, y) for x in range(5) for y in range(x + 1, 5)]
    for (x, y), paths in cert.per_pair.items():
        rainbow = [p for p in brute_simple_paths(g, x, y, max_len=2)
                   if len({col.color_of(a, b) for a, b in zip(p, p[1:])}) == len(p) - 1]
        assert len(paths) == len(set(paths)) and set(paths) == set(rainbow)
        interiors = [v for p in paths for v in p[1:-1]]
        assert len(interiors) == len(set(interiors))
    assert is_rainbow_k_connected(g, col, 4) == FailureWitness((0, 1), 4, 3)


def test_k4_coloring_certificate():
    g, col = multipartite_two_coloring(PartitionSpec(1, 3, 1))
    result = is_rainbow_k_connected(g, col, 2)
    assert isinstance(result, RainbowCertificate)
    assert set(result.per_pair) == {(x, y) for x in range(4) for y in range(x + 1, 4)}


def test_all_k3_two_colorings_fail():
    g = complete_graph(3)
    for bits in range(8):
        col = EdgeColoring(g, 2, [1 + (bits >> i & 1) for i in range(3)])
        result = is_rainbow_k_connected(g, col, 2)
        assert isinstance(result, FailureWitness)


def test_three_colors_in_use_are_refused():
    """Verification takes at most two colors in use, whatever color_count
    declares; K3 on three colors, rainbow-2-connected, is refused."""
    g = complete_graph(3)
    with pytest.raises(ValueError, match="at most 2 colors in use, not 3"):
        is_rainbow_k_connected(g, EdgeColoring(g, 3, [1, 2, 3]), 2)
    assert isinstance(is_rainbow_k_connected(g, EdgeColoring(g, 9, [4, 9, 4]), 1),
                      RainbowCertificate)


def test_single_color_complete_graph_k1():
    g = complete_graph(5)
    col = EdgeColoring(g, 1, [1] * g.edge_count)
    assert isinstance(is_rainbow_k_connected(g, col, 1), RainbowCertificate)


def test_fast_count_matches_backtracking():
    rng = random.Random(13)
    for _ in range(60):
        g, col = random_colored_graph(rng)
        every_path = reference_two_color_paths(g, col, g.vertex_count)
        for pair, count in short_rainbow_counts(col):
            assert len(every_path[pair]) == count
        witness = first_short_pair(col, 2)
        checked = is_rainbow_k_connected(g, col, 2)
        assert (witness is None) == isinstance(checked, RainbowCertificate)
        if witness is not None:
            assert witness == checked.pair


def test_certificate_validates_and_rejects_tampering():
    g, col = multipartite_two_coloring(PartitionSpec(1, 4, 1))
    cert = is_rainbow_k_connected(g, col, 2)
    validate_certificate(g, col, cert)
    broken = dict(cert.per_pair)
    first = min(broken)
    broken[first] = (broken[first][0],) * 2
    with pytest.raises(ValueError):
        validate_certificate(g, col, RainbowCertificate(2, broken))


@pytest.mark.parametrize("other", ["smaller-graph", "other-edges"])
def test_coloring_of_another_graph_is_refused(other):
    g = complete_graph(5)
    # color 1 on the 5-cycle 0-1-2-3-4, color 2 on the pentagram
    col = EdgeColoring.from_function(g, 2, lambda u, v: 1 if v - u in (1, 4) else 2)
    cert = is_rainbow_k_connected(g, col, 2)
    assert isinstance(cert, RainbowCertificate)
    if other == "smaller-graph":
        h = complete_graph(4)
    else:
        h = graph_from_edges(5, g.edges[1:])  # no edge (0, 1)
    foreign = EdgeColoring(h, 3, [1 + i % 3 for i in range(h.edge_count)])
    with pytest.raises(ValueError, match="different graph"):
        validate_certificate(g, foreign, cert)
    with pytest.raises(ValueError, match="different graph"):
        is_rainbow_k_connected(g, foreign, 2)


def certificate_base(name):
    if name == "multipartite":
        g, col = multipartite_two_coloring(PartitionSpec(2, 3, 1))  # K_{2,2,2,2}
    else:
        g, col = j62_graph_and_coloring()
    cert = is_rainbow_k_connected(g, col, 2)
    validate_certificate(g, col, cert)
    return g, col, dict(cert.per_pair)


# each defect the validator must reject, with the message it must give
DEFECTS = {
    "missing pair": "cover every vertex pair",
    "extra pair": "cover every vertex pair",
    "out-of-range pair": "cover every vertex pair",
    "pair as (y, x)": "cover every vertex pair",
    "pair of non-vertices": "cover every vertex pair",
    "pair of bools": "cover every vertex pair",
    "key not a pair": "cover every vertex pair",
    "fewer than k paths": "lists 1 < 2 paths",
    "path listed twice": "lists a path twice",
    "wrong endpoints": "does not join",
    "empty path": "does not join",
    "repeated vertex": "repeats a vertex",
    "non-edge": "uses non-edge",
    "repeated color": "repeats a color",
    "bool vertex": "has a vertex that is not an int in 0",
    "float vertex": "has a vertex that is not an int in 0",
    "float endpoint": "has a vertex that is not an int in 0",
}


def put_defect(defect, g, col, pairs):
    """Put one defect into a valid k = 2 certificate's pairs, in place."""
    first = pairs[(0, 1)]
    if defect == "missing pair":
        del pairs[(0, 1)]
    elif defect == "extra pair":
        pairs[(0, g.vertex_count)] = first
    elif defect == "out-of-range pair":
        pairs[(-1, 1)] = pairs.pop((0, 1))
    elif defect == "pair as (y, x)":
        pairs[(1, 0)] = pairs.pop((0, 1))
    elif defect == "pair of non-vertices":
        pairs[("a", 0.5)] = pairs.pop((0, 1))
    elif defect == "pair of bools":  # equal to (0, 1), but not ints
        pairs[(False, True)] = pairs.pop((0, 1))
    elif defect == "key not a pair":
        pairs[5] = pairs.pop((0, 1))
    elif defect == "fewer than k paths":
        pairs[(0, 1)] = first[:1]
    elif defect == "path listed twice":
        pairs[(0, 1)] = (first[0], first[0])
    elif defect == "wrong endpoints":
        pairs[(0, 1)] = (first[0], pairs[(0, 2)][0])
    elif defect == "empty path":
        pairs[(0, 1)] = ((),) + first[1:]
    elif defect == "repeated vertex":
        pairs[(0, 1)] = ((0, 0, 1),) + first[1:]
    elif defect == "non-edge":
        x, y = next(pair for pair in sorted(pairs) if not g.adjacent(*pair))
        pairs[(x, y)] = ((x, y),) + pairs[(x, y)][1:]
    elif defect == "repeated color":
        colors = col.assignment()
        (x, y), w = next(((x, y), w) for x, y in sorted(pairs) for w in range(g.vertex_count)
                         if w not in (x, y) and g.adjacent(x, w) and g.adjacent(w, y)
                         and colors[min(x, w), max(x, w)] == colors[min(w, y), max(w, y)])
        pairs[(x, y)] = ((x, w, y),) + pairs[(x, y)][1:]
    elif defect in ("bool vertex", "float vertex"):  # True would be read as vertex 1
        i, (x, w, y) = next((i, p) for i, p in enumerate(first) if len(p) == 3)
        bad = True if defect == "bool vertex" else float(w)
        pairs[(0, 1)] = first[:i] + ((x, bad, y),) + first[i + 1:]
    elif defect == "float endpoint":  # equal to the vertex, but not an int
        x, y = next(pair for pair in sorted(pairs) if pair in pairs[pair])
        pairs[(x, y)] = ((float(x), y),) + pairs[(x, y)][1:]


@pytest.mark.parametrize("base", ["multipartite", "J(6,2)"])
@pytest.mark.parametrize("defect", list(DEFECTS))
def test_validator_rejects_each_defect(base, defect):
    g, col, pairs = certificate_base(base)
    put_defect(defect, g, col, pairs)
    with pytest.raises(ValueError, match=DEFECTS[defect]):
        validate_certificate(g, col, RainbowCertificate(2, pairs))


@pytest.mark.parametrize("base", ["multipartite", "J(6,2)"])
def test_validator_rejects_paths_sharing_an_interior_vertex(base):
    """Two paths of at most two edges for one pair share an interior vertex
    only when they are the same path, so a pair's 2-edge path listed again
    is refused as listed twice, and a path x-w-v-y beside its x-w-y as
    having more than two edges. The certificate is checked against a
    coloring with a color per edge, under which every path is rainbow."""
    g, _, pairs = certificate_base(base)
    distinct = EdgeColoring(g, g.edge_count, range(1, g.edge_count + 1))
    validate_certificate(g, distinct, RainbowCertificate(2, pairs))
    for (x, y), paths in sorted(pairs.items()):
        through = [p for p in paths if len(p) == 3]
        longer = [(x, w, v, y) for _, w, _ in through for v in range(g.vertex_count)
                  if v not in (x, y, w) and g.adjacent(w, v) and g.adjacent(v, y)]
        if longer:
            break
    else:
        raise AssertionError("no path to add")
    for added, message in ((longer[0], "has more than two edges"),
                           (through[0], "lists a path twice")):
        with pytest.raises(ValueError, match=message):
            validate_certificate(g, distinct,
                                 RainbowCertificate(2, {**pairs, (x, y): paths + (added,)}))


def test_search_deterministic_and_lowest_index():
    g = complete_multipartite([1, 1, 1, 2])
    a = search_two_coloring(g, 2, 200, seed=9)
    b = search_two_coloring(g, 2, 200, seed=9)
    assert a is not None and a.edge_colors == b.edge_colors
    for i in range(a.seed - 9):
        early = random_two_coloring(g, 9 + i)
        assert first_short_pair(early, 2) is not None


def test_search_immediate_and_exhausted():
    k2 = complete_graph(2)
    found = search_two_coloring(k2, 1, 1, seed=0)
    assert found is not None
    k3 = complete_graph(3)
    for budget in (1, 2, 64, 300):
        assert search_two_coloring(k3, 2, budget, seed=0) is None


def test_search_refuses_a_negative_budget():
    with pytest.raises(ValueError, match="attempts must be at least 0, not -5"):
        search_two_coloring(complete_graph(2), 1, -5, seed=0)
    assert search_two_coloring(complete_graph(2), 1, 0, seed=0) is None


def test_search_refuses_work_over_the_limit_before_any_draw(monkeypatch):
    """attempts x (edges + vertex pairs) above SEARCH_WORK_LIMIT is refused
    before the first draw; at the limit the search runs. K3 costs 3 + 3 per
    attempt and no 2-coloring of it passes at k = 2."""
    drawn = []
    draw = rainbow.random_two_coloring

    def spy(g, seed):
        drawn.append(seed)
        return draw(g, seed)

    monkeypatch.setattr(rainbow, "random_two_coloring", spy)
    monkeypatch.setattr(rainbow, "SEARCH_WORK_LIMIT", 60)
    with pytest.raises(SearchBudgetExceeded):
        search_two_coloring(complete_graph(3), 2, 11, seed=0)
    assert drawn == []
    assert search_two_coloring(complete_graph(3), 2, 10, seed=0) is None
    assert drawn == list(range(10))


def test_search_precondition():
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionKappa):
        search_two_coloring(path3, 2, 10, seed=0)


def test_certify_rc2():
    g, col = multipartite_two_coloring(PartitionSpec(1, 3, 2))
    bundle = certify_rc2(g, col)
    assert bundle.rc2 == 2 and bundle.rc == 2 and bundle.lower_bound == 2

    gj, colj = j62_graph_and_coloring()
    assert certify_rc2(gj, colj).rc2 == 2

    # rc is 1 on K5, where one color joins each pair by its edge, and 2 on
    # K_{1,1,1,2}, whose part of size 2 is a pair with no edge
    for g, rc in ((complete_graph(5), 1), (complete_multipartite([1, 1, 1, 2]), 2)):
        bundle = certify_rc2(g, search_two_coloring(g, 2, 100, seed=0))
        assert (bundle.rc, bundle.lower_bound) == (rc, 2)

    k4 = complete_graph(4)
    with pytest.raises(ColoringRejected):
        certify_rc2(k4, EdgeColoring(k4, 2, [1] * 6))


def test_certify_rc2_gives_rc_one_on_complete_graphs():
    """On a complete graph one color already joins every pair by its edge,
    so rc = 1 while rc2 = 2: K4 with edge-order bits 13, and K7 with its
    seed-1 search winner at attempt 2."""
    k4 = complete_graph(4)
    k7 = complete_graph(7)
    winner = search_two_coloring(k7, 2, 100, seed=1)
    assert winner.seed == 3
    for g, col in ((k4, EdgeColoring(k4, 2, [1 + (13 >> i & 1) for i in range(6)])),
                   (k7, winner)):
        bundle = certify_rc2(g, col)
        assert (bundle.rc, bundle.rc2, bundle.lower_bound) == (1, 2, 2)


def test_certify_rc2_rejects_three_color_colorings():
    # Rainbow 3-connected with three colors, but rc2 certification is about
    # two colors; a 3-color coloring that uses only two is refused as well.
    g, col = multipartite_two_coloring(PartitionSpec(1, 3, 2))
    three = EdgeColoring(g, 3, [3 if i == 0 else c for i, c in enumerate(col.edge_colors)])
    for coloring in (three, EdgeColoring(g, 3, col.edge_colors)):
        with pytest.raises(ColoringRejected, match="at most 2 colors"):
            certify_rc2(g, coloring)


def test_certificate_json_round_trip(tmp_path):
    g, col = multipartite_two_coloring(PartitionSpec(1, 3, 1))
    cert = is_rainbow_k_connected(g, col, 2)
    path = tmp_path / "cert.json"
    write_certificate(cert, col, path)
    doc = json.loads(path.read_text())
    assert doc["k"] == 2
    assert {"pair", "paths", "colors_used"} <= set(doc["pairs"][0])
    assert len(doc["pairs"]) == len(cert.per_pair)
    for entry in doc["pairs"]:
        for path_vertices, path_colors in zip(entry["paths"], entry["colors_used"]):
            assert len(path_colors) == len(path_vertices) - 1
            assert len(set(path_colors)) == len(path_colors)


@pytest.mark.parametrize("bad, message", [
    (lambda paths: list(paths), r"pair \(0,1\) does not list its paths as a tuple"),
    (lambda paths: 7, r"pair \(0,1\) does not list its paths as a tuple"),
    (lambda paths: None, r"pair \(0,1\) does not list its paths as a tuple"),
    (lambda paths: (list(paths[0]),) + paths[1:], r"path \[0, 1\] is not a tuple"),
    (lambda paths: paths[:1] + (7,), r"path 7 is not a tuple"),
    (lambda paths: paths[:1] + (None,), r"path None is not a tuple"),
    (lambda paths: paths[:1] + ((0, [4], 1),),
     r"path \(0, \[4\], 1\) has a vertex that is not an int"),
])
def test_validator_refuses_paths_that_are_not_tuples(bad, message):
    """A pair's paths, each path and each vertex have one type each: a
    JSON reader's lists, or any other value, are refused with ValueError."""
    g, col = multipartite_two_coloring(PartitionSpec(1, 3, 1))
    cert = is_rainbow_k_connected(g, col, 2)
    pairs = dict(cert.per_pair)
    assert pairs[(0, 1)][0] == (0, 1)
    pairs[(0, 1)] = bad(pairs[(0, 1)])
    with pytest.raises(ValueError, match=message):
        validate_certificate(g, col, RainbowCertificate(2, pairs))


def test_validator_reads_edge_colors_not_masks():
    g, good = multipartite_two_coloring(PartitionSpec(1, 4, 1))
    bad = EdgeColoring(g, 2, [1] * g.edge_count)
    bad.masks = good.masks  # the verifier now finds paths the colors do not allow
    with pytest.raises(ValueError, match="repeats a color"):
        is_rainbow_k_connected(g, bad, 2)


def test_search_winner_in_the_head():
    g = complete_multipartite([2, 2, 2])
    col = search_two_coloring(g, 2, 800, seed=1799)
    assert col.seed - 1799 == 44
    assert isinstance(is_rainbow_k_connected(g, col, 2), RainbowCertificate)


def test_search_winner_past_the_head():
    g = noncommuting_graph(dihedral(9)).graph
    col = search_two_coloring(g, 3, 5000, seed=0)
    assert col.seed == 420


def test_search_builds_no_certificate_and_certify_validates_once(monkeypatch):
    """The search decides its winner by the verifier's count alone; the one
    certificate of a search-then-certify run is the one certify_rc2 builds."""
    g = noncommuting_graph(dihedral(10)).graph
    calls = counting_validator(monkeypatch)
    col = search_two_coloring(g, 2, 1000, 11)
    first = search_two_coloring(g, 2, 1000, 14)
    assert calls == []
    assert col.seed == 13  # two rejected attempts, the same winner as before
    assert first.seed == 14 and first.edge_colors == random_two_coloring(g, 14).edge_colors
    certify_rc2(g, col)
    assert calls == [2]


def test_greedy_starts_at_the_failure_bound_on_the_suite():
    for group in standard_suite():
        _, start = derandomized_two_coloring(noncommuting_graph(group).graph, 2)
        assert start == failure_bound(group, 2), group.name


def test_greedy_certifies_every_dihedral_and_dicyclic_cell_below_one():
    """Orders 12-60 at k = 3-6: a start below 1 never rises, so it ends at a
    coloring the verifier passes."""
    groups = [dihedral(n) for n in range(6, 31)] + [dicyclic(m) for m in range(3, 16)]
    cells = 0
    for group in groups:
        g = noncommuting_graph(group).graph
        for k in range(3, 7):
            bound = failure_bound(group, k)
            if bound < 1:
                col, start = derandomized_two_coloring(g, k)
                assert start == bound
                assert col.seed is None
                assert isinstance(is_rainbow_k_connected(g, col, k), RainbowCertificate), \
                    (group.name, k)
                cells += 1
    assert cells == 66


def prefix_expectations(g, colors, k):
    """For p = 0..m, the expected number of pairs short of k rainbow paths
    when the first p edges have the given colors and the rest are uniform,
    from the adjacency rows alone."""
    n = g.vertex_count
    index = {}
    for u in range(n):
        for v in range(u + 1, n):
            if g.adj[u] >> v & 1:
                index[u, v] = index[v, u] = len(index) // 2
    out = []
    for p in range(len(colors) + 1):
        total = Fraction(0)
        for a in range(n):
            for b in range(a + 1, n):
                need, free = k - (g.adj[a] >> b & 1), 0
                for w in range(n):
                    if g.adj[a] >> w & g.adj[b] >> w & 1:
                        legs = index[a, w], index[w, b]
                        if max(legs) >= p:
                            free += 1
                        elif colors[legs[0]] != colors[legs[1]]:
                            need -= 1
                total += Fraction(sum(comb(free, i) for i in range(need)), 2 ** free)
        out.append(total)
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.sampled_from([0.5, 0.8, 1.0]), st.integers(1, 5),
       st.integers(0, 2 ** 32))
def test_greedy_never_raises_the_conditional_expectation(n, p, k, seed):
    rng = random.Random(seed)
    g = graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < p])
    col, start = derandomized_two_coloring(g, k)
    assert set(col.edge_colors) <= {1, 2}
    expectations = prefix_expectations(g, col.edge_colors, k)
    assert expectations[0] == start
    assert all(later <= earlier for earlier, later in zip(expectations, expectations[1:]))
    assert expectations[-1] == sum(count < k for _, count in short_rainbow_counts(col))
    if start < 1:
        assert isinstance(is_rainbow_k_connected(g, col, k), RainbowCertificate)


def test_greedy_guard_catches_a_short_pair_below_one(monkeypatch):
    """Conditional expectations from a start below 1 cannot leave a short
    pair, so one reported there is an internal failure."""
    g60 = noncommuting_graph(dihedral(30)).graph
    col, start = derandomized_two_coloring(g60, 6)
    assert start < 1 and rainbow._short_pair(g60, col, 6) is None
    monkeypatch.setattr(rainbow, "_short_pair", lambda g, col, k: FailureWitness((0, 1), k, 0))
    with pytest.raises(AssertionError, match="left pair"):
        derandomized_two_coloring(g60, 6)
    # from a start above 1 a short pair is an outcome, not a failure: with the
    # same fault D18 at k = 4, which starts at 17.6, returns its coloring
    g18 = noncommuting_graph(dihedral(9)).graph
    col, start = derandomized_two_coloring(g18, 4)
    assert start > 1 and col.graph is g18


def test_greedy_refuses_k_below_one():
    with pytest.raises(ValueError, match="k must be positive"):
        derandomized_two_coloring(complete_graph(3), 0)
