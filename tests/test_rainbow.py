import json
import random

import pytest

from ncrainbow.colorings import (EdgeColoring, PartitionSpec, j62_graph_and_coloring,
                                 multipartite_two_coloring, random_two_coloring)
from ncrainbow.graphs import (SearchBudgetExceeded, complete_graph, complete_multipartite,
                              graph_from_edges)
from ncrainbow.groups import dihedral
from ncrainbow.ncgraph import noncommuting_graph
from ncrainbow import rainbow
from ncrainbow.rainbow import (ColoringRejected, FailureWitness, PathBudget,
                               PreconditionKappa, RainbowCertificate, certify_rc2,
                               enumerate_rainbow_paths, is_rainbow_k_connected,
                               max_disjoint_paths, rc_lower_bound, search_two_coloring,
                               select_disjoint_paths, short_rainbow_paths,
                               validate_certificate, write_certificate)
from util import brute_simple_paths, recursive_rainbow_paths, two_color_failure_pair


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
    assert enumerate_rainbow_paths(g, col, 0, 1, 2) == [(0, 1)]


def test_enumerate_triangle():
    g = complete_graph(3)
    # edges (0,1), (0,2), (1,2): colors 1, 1, 2
    col = EdgeColoring(g, 2, [1, 1, 2])
    assert enumerate_rainbow_paths(g, col, 0, 1, 2) == [(0, 1), (0, 2, 1)]


def test_enumerate_monochromatic_two_path():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    col = EdgeColoring(g, 2, [1, 1])
    assert enumerate_rainbow_paths(g, col, 0, 2, 2) == []


def test_enumerate_is_lexicographic():
    g = complete_graph(4)
    col = EdgeColoring(g, 3, [1, 2, 3, 3, 2, 1])
    paths = enumerate_rainbow_paths(g, col, 0, 3, 3)
    assert paths == sorted(paths)


def test_enumerate_matches_brute_force():
    rng = random.Random(5)
    for _ in range(30):
        g, col = random_colored_graph(rng, max_n=8)
        x, y = rng.sample(range(g.vertex_count), 2)
        expected = []
        for p in brute_simple_paths(g, x, y, max_len=2):
            cols = [col.color_of(a, b) for a, b in zip(p, p[1:])]
            if len(set(cols)) == len(cols):
                expected.append(p)
        assert sorted(enumerate_rainbow_paths(g, col, x, y, 2)) == sorted(expected)


@pytest.mark.parametrize("colors", [3, 4])
def test_enumerate_matches_recursive_reference(colors):
    """Same paths in the same order as the recursive search, for every
    pair and every length cap up to the color count."""
    rng = random.Random(40 + colors)
    total = 0
    for _ in range(40):
        n = rng.randint(3, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.3, 0.6, 0.9])]
        g = graph_from_edges(n, edges)
        col = EdgeColoring(g, colors, [rng.randint(1, colors) for _ in edges])
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                for max_len in range(1, colors + 1):
                    paths = enumerate_rainbow_paths(g, col, x, y, max_len)
                    assert paths == recursive_rainbow_paths(g, col, x, y, max_len)
                    total += len(paths)
    assert total > 1000


def test_enumerate_path_longer_than_the_recursion_limit():
    n = 1100
    g = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    col = EdgeColoring(g, n - 1, list(range(1, n)))
    assert enumerate_rainbow_paths(g, col, 0, n - 1, n - 1) == [tuple(range(n))]
    assert enumerate_rainbow_paths(g, col, 0, n - 1, n - 2) == []


def k8_four_colors():
    g = complete_graph(8)
    rng = random.Random(8)
    return g, EdgeColoring(g, 4, [rng.randint(1, 4) for _ in g.edges])


def test_path_enumeration_budget_raises(monkeypatch):
    g, col = k8_four_colors()
    assert isinstance(is_rainbow_k_connected(g, col, 2), RainbowCertificate)
    monkeypatch.setattr(rainbow, "PATH_NODE_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_rainbow_paths(g, col, 0, 1, 4)
    with pytest.raises(SearchBudgetExceeded):
        is_rainbow_k_connected(g, col, 2)
    assert enumerate_rainbow_paths(g, col, 0, 1, 1) == [(0, 1)]  # no frame beyond x's


def steps_taken(call):
    """Budget steps one call takes with a fresh PathBudget, and its result."""
    budget = PathBudget()
    result = call(budget)
    return rainbow.PATH_NODE_BUDGET - budget.left, result


def test_path_budget_covers_the_whole_verification(monkeypatch):
    g, col = k8_four_colors()
    steps = [steps_taken(lambda b: enumerate_rainbow_paths(g, col, x, y, 4, b))[0]
             for x, y in g.edges]
    assert max(steps) < sum(steps)
    monkeypatch.setattr(rainbow, "PATH_NODE_BUDGET", max(steps))
    for x, y in g.edges:  # every pair fits the budget on its own
        enumerate_rainbow_paths(g, col, x, y, 4)
    with pytest.raises(SearchBudgetExceeded):
        is_rainbow_k_connected(g, col, 2)


def test_selector_steps_count_against_the_budget(monkeypatch):
    paths = [(0, 2, 1)] + [(0, 2, v, 1) for v in range(3, 13)]  # all pass through 2
    assert select_disjoint_paths(paths, 2) is None
    g, col = k8_four_colors()
    total = 0
    for x, y in g.edges:
        enumerated, pair_paths = steps_taken(
            lambda b: enumerate_rainbow_paths(g, col, x, y, 4, b))
        selected, _ = steps_taken(lambda b: select_disjoint_paths(pair_paths, 2, b))
        assert selected > 0
        total += enumerated + selected
    monkeypatch.setattr(rainbow, "PATH_NODE_BUDGET", 5)
    with pytest.raises(SearchBudgetExceeded):
        select_disjoint_paths(paths, 2)
    monkeypatch.setattr(rainbow, "PATH_NODE_BUDGET", total)
    assert isinstance(is_rainbow_k_connected(g, col, 2), RainbowCertificate)
    monkeypatch.setattr(rainbow, "PATH_NODE_BUDGET", total - 1)
    with pytest.raises(SearchBudgetExceeded):
        is_rainbow_k_connected(g, col, 2)


def test_short_paths_are_disjoint_and_complete():
    g, col = multipartite_two_coloring(PartitionSpec(1, 4, 1))
    for x in range(5):
        for y in range(x + 1, 5):
            paths = short_rainbow_paths(g, col, x, y)
            assert len(paths) == max_disjoint_paths(
                enumerate_rainbow_paths(g, col, x, y, 2))


def test_select_disjoint():
    paths = [(0, 1), (0, 2, 1), (0, 3, 1), (0, 2, 4, 1)]
    assert select_disjoint_paths(paths, 3) == [(0, 1), (0, 2, 1), (0, 3, 1)]
    assert select_disjoint_paths(paths, 4) is None
    assert max_disjoint_paths(paths) == 3


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
    rainbow = is_rainbow_k_connected(g, EdgeColoring(g, 3, [1, 2, 3]), 2)
    assert isinstance(rainbow, RainbowCertificate)


def test_single_color_complete_graph_k1():
    g = complete_graph(5)
    col = EdgeColoring(g, 1, [1] * g.edge_count)
    assert isinstance(is_rainbow_k_connected(g, col, 1), RainbowCertificate)


def test_fast_count_matches_backtracking():
    rng = random.Random(13)
    for _ in range(60):
        g, col = random_colored_graph(rng)
        for x in range(g.vertex_count):
            for y in range(x + 1, g.vertex_count):
                fast = len(short_rainbow_paths(g, col, x, y))
                slow = max_disjoint_paths(enumerate_rainbow_paths(g, col, x, y, 2))
                assert fast == slow
        witness = two_color_failure_pair(g, col, 2)
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
    "key not a pair": "cover every vertex pair",
    "fewer than k paths": "lists 1 < 2 paths",
    "path listed twice": "lists a path twice",
    "wrong endpoints": "does not join",
    "repeated vertex": "repeats a vertex",
    "non-edge": "uses non-edge",
    "repeated color": "repeats a color",
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
    elif defect == "key not a pair":
        pairs[5] = pairs.pop((0, 1))
    elif defect == "fewer than k paths":
        pairs[(0, 1)] = first[:1]
    elif defect == "path listed twice":
        pairs[(0, 1)] = (first[0], first[0])
    elif defect == "wrong endpoints":
        pairs[(0, 1)] = (first[0], pairs[(0, 2)][0])
    elif defect == "repeated vertex":
        pairs[(0, 1)] = ((0, 2, 0, 1),) + first[1:]
    elif defect == "non-edge":
        x, y = next(pair for pair in sorted(pairs) if not g.adjacent(*pair))
        pairs[(x, y)] = ((x, y),) + pairs[(x, y)][1:]
    elif defect == "repeated color":
        colors = col.assignment()
        (x, y), w = next(((x, y), w) for x, y in sorted(pairs) for w in range(g.vertex_count)
                         if w not in (x, y) and g.adjacent(x, w) and g.adjacent(w, y)
                         and colors[min(x, w), max(x, w)] == colors[min(w, y), max(w, y)])
        pairs[(x, y)] = ((x, w, y),) + pairs[(x, y)][1:]


@pytest.mark.parametrize("base", ["multipartite", "J(6,2)"])
@pytest.mark.parametrize("defect", list(DEFECTS))
def test_validator_rejects_each_defect(base, defect):
    g, col, pairs = certificate_base(base)
    put_defect(defect, g, col, pairs)
    with pytest.raises(ValueError, match=DEFECTS[defect]):
        validate_certificate(g, col, RainbowCertificate(2, pairs))


@pytest.mark.parametrize("base", ["multipartite", "J(6,2)"])
def test_validator_rejects_paths_sharing_an_interior_vertex(base):
    """Under two colors two valid paths never share an interior vertex, so
    the certificate is checked against a coloring with a color per edge,
    under which every path is rainbow."""
    g, _, pairs = certificate_base(base)
    distinct = EdgeColoring(g, g.edge_count, range(1, g.edge_count + 1))
    validate_certificate(g, distinct, RainbowCertificate(2, pairs))
    for (x, y), paths in sorted(pairs.items()):
        through = [p[1] for p in paths if len(p) == 3]
        longer = [(x, w, v, y) for w in through for v in range(g.vertex_count)
                  if v not in (x, y, w) and g.adjacent(w, v) and g.adjacent(v, y)]
        if longer:
            pairs[(x, y)] = paths + (longer[0],)
            break
    else:
        raise AssertionError("no path to add")
    with pytest.raises(ValueError, match="share internal vertices"):
        validate_certificate(g, distinct, RainbowCertificate(2, pairs))


def test_search_deterministic_and_lowest_index():
    g = complete_multipartite([1, 1, 1, 2])
    a = search_two_coloring(g, 2, 200, seed=9)
    b = search_two_coloring(g, 2, 200, seed=9)
    assert a is not None and a.edge_colors == b.edge_colors
    for i in range(a.seed - 9):
        early = random_two_coloring(g, 9 + i)
        assert two_color_failure_pair(g, early, 2) is not None


def test_search_immediate_and_exhausted():
    k2 = complete_graph(2)
    found = search_two_coloring(k2, 1, 1, seed=0)
    assert found is not None
    k3 = complete_graph(3)
    assert search_two_coloring(k3, 2, 300, seed=0) is None


def test_search_precondition():
    path3 = graph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionKappa):
        search_two_coloring(path3, 2, 10, seed=0)


def test_rc_lower_bound():
    assert rc_lower_bound(complete_graph(5), 1) == 1
    assert rc_lower_bound(complete_graph(5), 2) == 2
    assert rc_lower_bound(complete_multipartite([1, 1, 1, 2]), 1) == 2


def test_certify_rc2():
    g, col = multipartite_two_coloring(PartitionSpec(1, 3, 2))
    bundle = certify_rc2(g, col)
    assert bundle.rc2 == 2 and bundle.rc == 2 and bundle.lower_bound == 2

    gj, colj = j62_graph_and_coloring()
    assert certify_rc2(gj, colj).rc2 == 2

    k4 = complete_graph(4)
    with pytest.raises(ColoringRejected):
        certify_rc2(k4, EdgeColoring(k4, 2, [1] * 6))


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


def test_validator_reads_edge_colors_not_masks():
    g, good = multipartite_two_coloring(PartitionSpec(1, 4, 1))
    bad = EdgeColoring(g, 2, [1] * g.edge_count)
    bad.masks = good.masks  # the selector now finds paths the colors do not allow
    with pytest.raises(ValueError, match="repeats a color"):
        is_rainbow_k_connected(g, bad, 2)


def test_three_color_failure_is_first_pair_with_max_found():
    rng = random.Random(8)
    failures = 0
    for _ in range(40):
        n = rng.randint(3, 7)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        g = graph_from_edges(n, edges)
        col = EdgeColoring(g, 3, [rng.randint(1, 3) for _ in edges])
        colors = col.assignment()
        k = rng.randint(1, 3)
        found = {}
        for x in range(n):
            for y in range(x + 1, n):
                paths = [p for p in brute_simple_paths(g, x, y, max_len=3)
                         if len({colors[min(a, b), max(a, b)] for a, b in zip(p, p[1:])})
                         == len(p) - 1]
                found[(x, y)] = max_disjoint_paths(paths)
        failing = [pair for pair, count in found.items() if count < k]
        result = is_rainbow_k_connected(g, col, k)
        if not failing:
            assert isinstance(result, RainbowCertificate)
            continue
        failures += 1
        x, y = failing[0]
        assert result == FailureWitness((x, y), k, found[(x, y)])
        assert result.found == max_disjoint_paths(enumerate_rainbow_paths(g, col, x, y, 3))
    assert failures >= 10


def test_search_winner_in_the_head():
    g = complete_multipartite([2, 2, 2])
    col = search_two_coloring(g, 2, 800, seed=1799)
    assert col.seed - 1799 == 44 < rainbow.SEARCH_HEAD
    assert isinstance(is_rainbow_k_connected(g, col, 2), RainbowCertificate)


def test_search_winner_past_the_head():
    g = noncommuting_graph(dihedral(9)).graph
    col = search_two_coloring(g, 3, 5000, seed=0)
    assert col.seed == 420 > rainbow.SEARCH_HEAD  # decided in a prefiltered block
