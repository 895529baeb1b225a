import random
import re

import pytest

from ncrainbow import colorings
from ncrainbow.colorings import (EdgeColoring, InvalidSpec, PartitionSpec,
                                 distinguished_edges, j62_graph_and_coloring,
                                 multipartite_two_coloring, random_two_coloring,
                                 read_coloring_file, transfer_coloring,
                                 write_coloring_file)
from ncrainbow.graphs import complete_graph, edgeless_graph, graph_from_edges


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        PartitionSpec(1, 2, 1)   # l*m*n = 2
    with pytest.raises(InvalidSpec):
        PartitionSpec(1, 2, 2)   # m < n+1
    with pytest.raises(InvalidSpec):
        PartitionSpec(0, 3, 1)
    spec = PartitionSpec(2, 3, 1)
    assert spec.part_sizes() == [2, 2, 2, 2]


def test_vertex_indexing():
    spec = PartitionSpec(2, 3, 2)
    assert spec.vertex(1, 1) == 0
    assert spec.vertex(2, 3) == 5
    assert spec.vertex(1, 4) == 6   # big part starts after the m small parts
    assert spec.vertex(4, 4) == 9
    with pytest.raises(InvalidSpec):
        spec.vertex(3, 1)


def test_case_m3_exact_edges():
    g, col = multipartite_two_coloring(PartitionSpec(1, 3, 1))
    assert g.vertex_count == 4 and g.is_complete()
    color_one = {e for e, c in col.assignment().items() if c == 1}
    assert color_one == {(0, 1), (1, 3), (2, 3)}


def test_case_m4_is_hamiltonian_cycle():
    g, col = multipartite_two_coloring(PartitionSpec(1, 4, 1))
    assert g.vertex_count == 5 and g.is_complete()
    color_one = {e for e, c in col.assignment().items() if c == 1}
    assert color_one == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}


@pytest.mark.parametrize("l", range(2, 9))
def test_two_part_families_consistent(l):
    # Construction validates that the families are pairwise distinct
    # edges of the graph; a transcription slip raises InvalidSpec.
    spec = PartitionSpec(l, 2, 1)
    g, col = multipartite_two_coloring(spec)
    r = l // 2
    expected = 8 * r if l % 2 == 0 else 8 * r + 7 * r + 1
    assert sum(1 for c in col.edge_colors if c == 1) == expected
    assert len(distinguished_edges(spec)) == expected


def test_colorings_are_total_and_two_colored():
    for spec in (PartitionSpec(2, 2, 1), PartitionSpec(2, 3, 1),
                 PartitionSpec(1, 5, 1), PartitionSpec(2, 4, 2)):
        g, col = multipartite_two_coloring(spec)
        assert len(col.edge_colors) == g.edge_count
        assert set(col.edge_colors) == {1, 2}


def test_j62_shape_and_rules():
    g, col = j62_graph_and_coloring()
    assert g.vertex_count == 30 and g.edge_count == 240
    assert all(g.degree(v) == 16 for v in range(30))
    assert set(col.edge_colors) == {1, 2}
    lab = {name: i for i, name in enumerate(g.labels)}
    # shared point above both leftovers -> color 1 on a same-letter edge
    assert col.color_of(lab["a13"], lab["a23"]) == 1
    # shared point below both leftovers -> color 1 on a cross-letter edge
    assert col.color_of(lab["a12"], lab["b13"]) == 1
    assert col.color_of(lab["a12"], lab["a13"]) == 2   # shared point 1 is lowest
    assert col.color_of(lab["a13"], lab["b23"]) == 2   # shared point 3 is highest


def test_j62_letter_swap_symmetry():
    g, col = j62_graph_and_coloring()
    lab = {name: i for i, name in enumerate(g.labels)}
    for (u, v), c in col.assignment().items():
        lu, lv = g.labels[u], g.labels[v]
        if lu[0] == lv[0]:  # same letter: the mirrored edge has the same color
            other = "b" if lu[0] == "a" else "a"
            mirrored = col.color_of(lab[other + lu[1:]], lab[other + lv[1:]])
            assert mirrored == c


def test_random_coloring_determinism():
    g = complete_graph(6)
    a = random_two_coloring(g, 123456789)
    b = random_two_coloring(g, 123456789)
    assert a.edge_colors == b.edge_colors
    c = random_two_coloring(g, 123456790)
    assert a.edge_colors != c.edge_colors
    assert random_two_coloring(edgeless_graph(4), 1).edge_colors == ()


def test_random_coloring_is_balanced():
    g = complete_graph(4)
    ones = total = 0
    for seed in range(10_000):
        col = random_two_coloring(g, seed)
        ones += sum(1 for c in col.edge_colors if c == 1)
        total += g.edge_count
    assert abs(ones / total - 0.5) < 0.02


def test_coloring_file_round_trip(tmp_path):
    g, col = multipartite_two_coloring(PartitionSpec(2, 3, 1))
    path = tmp_path / "c.col"
    write_coloring_file(col, path)
    back = read_coloring_file(path, g)
    assert back.edge_colors == col.edge_colors
    assert back.color_count == col.color_count


def test_coloring_file_must_cover_graph(tmp_path):
    g = complete_graph(3)
    path = tmp_path / "bad.col"
    path.write_text("coloring 2\n0 1 1\n0 2 2\n")
    with pytest.raises(ValueError):
        read_coloring_file(path, g)
    path.write_text("coloring 2\n0 1 1\n0 2 2\n1 2 1\n0 1 2\n")
    with pytest.raises(ValueError):
        read_coloring_file(path, g)


def test_transfer_along_permutation():
    g = complete_graph(4)
    col = EdgeColoring.from_function(g, 2, lambda u, v: 1 if u == 0 else 2)
    mapping = [3, 2, 1, 0]
    moved = transfer_coloring(col, mapping, g)
    assert moved.color_of(3, 2) == col.color_of(0, 1)
    assert moved.color_of(0, 1) == col.color_of(3, 2)
    with pytest.raises(ValueError):
        transfer_coloring(col, [0, 0, 1, 2], g)


@pytest.mark.parametrize("target_size", [3, 7])
def test_transfer_refuses_a_target_of_another_size(target_size):
    """A permutation of the source's 5 vertices is no bijection onto K3 or
    K7: the smaller target would get a coloring, the larger an IndexError."""
    col = EdgeColoring.from_function(complete_graph(5), 2, lambda u, v: 1 + (u + v) % 2)
    with pytest.raises(ValueError, match=f"5 entries for {target_size} target vertices"):
        transfer_coloring(col, [4, 3, 2, 1, 0], complete_graph(target_size))


def test_color_range_is_checked_before_indexing():
    g = complete_graph(3)
    for bad in (0, -1, 3):
        with pytest.raises(ValueError, match=f"color {bad} outside 1..2"):
            EdgeColoring(g, 2, [1, bad, 2])
    with pytest.raises(ValueError, match="at least one color"):
        EdgeColoring(g, 0, [1, 1, 1])


def test_coloring_file_names_a_non_edge_pair(tmp_path):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    path = tmp_path / "extra.col"
    for line, pair in (("0 2 1", "(0, 2)"), ("-1 0 1", "(-1, 0)"), ("0 99 1", "(0, 99)")):
        path.write_text(f"coloring 2\n0 1 1\n1 2 2\n2 3 1\n{line}\n")
        message = re.escape(f"colored pair {pair} is not a graph edge")
        with pytest.raises(ValueError, match=message):
            read_coloring_file(path, g)


def test_color_of_is_symmetric_and_refuses_non_edges():
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 3)])
    col = EdgeColoring(g, 3, [3, 1, 2])
    for (u, v), c in col.assignment().items():
        assert col.color_of(u, v) == col.color_of(v, u) == c
    for u, v in ((0, 3), (3, 0), (1, 2), (2, 3), (-1, 0), (0, -1), (0, 9), (9, 0)):
        with pytest.raises(ValueError, match="is not an edge"):
            col.color_of(u, v)


def test_masks_match_assignment():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = graph_from_edges(n, edges)
        count = rng.randint(1, 3)
        col = EdgeColoring(g, count, [rng.randint(1, count) for _ in edges])
        assigned = col.assignment()
        assert set(col.masks) == set(col.edge_colors)  # a row only for colors that occur
        absent = (0,) * n
        for c in range(1, count + 1):
            rows = col.masks.get(c, absent)
            for u in range(n):
                for v in range(n):
                    key = (min(u, v), max(u, v))
                    assert (rows[u] >> v & 1) == (assigned.get(key) == c)


def test_a_family_edge_listed_twice_is_refused(monkeypatch):
    """The repeat is the first family edge reversed, so it is found from the
    color-1 masks whichever end is listed first."""
    real = colorings.distinguished_edges
    monkeypatch.setattr(colorings, "distinguished_edges",
                        lambda spec: [*real(spec), real(spec)[0][::-1]])
    spec = PartitionSpec(2, 3, 1)
    (j1, i1), (j2, i2) = real(spec)[0]
    with pytest.raises(InvalidSpec, match=re.escape(
            f"family lists edge ({j2},{i2})-({j1},{i1}) twice for {spec}")):
        multipartite_two_coloring(spec)


def test_a_family_pair_inside_one_part_is_refused(monkeypatch):
    monkeypatch.setattr(colorings, "distinguished_edges", lambda spec: [((1, 1), (2, 1))])
    spec = PartitionSpec(2, 3, 1)
    with pytest.raises(InvalidSpec, match=re.escape(
            f"family references non-edge (1,1)-(2,1) for {spec}")):
        multipartite_two_coloring(spec)
