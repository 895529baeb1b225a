"""The `.cay`, `.graph` and `.col` files: round trips, refused mutations, and
memory that does not follow the color count a header declares."""

import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from ncrainbow.cli import main
from ncrainbow.colorings import EdgeColoring, read_coloring_file, write_coloring_file
from ncrainbow.graphs import complete_graph, graph_from_edges, read_graph_file, write_graph_file
from ncrainbow.groups import (NotLatinSquare, cyclic, dicyclic, dihedral, direct_product,
                              group_from_cayley_table, load_cayley_table, metacyclic,
                              write_cayley_table)

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

GROUPS = ([cyclic(n) for n in (1, 2, 5)] + [dihedral(n) for n in (3, 4, 5)]
          + [dicyclic(2), dicyclic(3), metacyclic(8, 3), direct_product(dihedral(3), cyclic(2))])

TOKENS = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=5)


@st.composite
def groups(draw):
    g = draw(st.sampled_from(GROUPS))
    names = draw(st.none() | st.lists(TOKENS, min_size=g.order, max_size=g.order, unique=True))
    return group_from_cayley_table(g.table, names, g.name)


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(0, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                       max_size=len(pairs)))) if keep]
    labels = draw(st.none() | st.lists(TOKENS, min_size=n, max_size=n, unique=True))
    return graph_from_edges(n, edges, labels)


@st.composite
def colorings(draw):
    g = draw(graphs(max_vertices=6))
    count = draw(st.integers(1, 5))
    colors = draw(st.lists(st.integers(1, count), min_size=g.edge_count,
                           max_size=g.edge_count))
    return EdgeColoring(g, count, colors)


@SETTINGS
@given(groups())
def test_cayley_round_trip(group):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.cay"
        write_cayley_table(group, path)
        back = load_cayley_table(path)
    assert (back.table, back.names) == (group.table, group.names)


@SETTINGS
@given(st.sampled_from(GROUPS),
       st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["", "  ", "\t"])), max_size=8))
def test_cayley_without_names_line(group, blanks):
    """The layout with no names line, with blank lines inserted anywhere,
    loads to the table with default names."""
    lines = [f"cayley {group.order}"] + [" ".join(map(str, row)) for row in group.table]
    for pos, blank in blanks:
        lines.insert(pos % (len(lines) + 1), blank)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.cay"
        path.write_text("\n".join(lines) + "\n")
        back = load_cayley_table(path)
    assert back.table == group.table
    assert back.names == tuple(f"x{i}" for i in range(group.order))


@SETTINGS
@given(graphs())
def test_graph_round_trip(graph):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graph"
        write_graph_file(graph, path)
        back = read_graph_file(path)
    assert (back.adj, back.labels) == (graph.adj, graph.labels)


@SETTINGS
@given(colorings())
def test_coloring_round_trip(col):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.col"
        write_coloring_file(col, path)
        back = read_coloring_file(path, col.graph)
    assert (back.color_count, back.edge_colors) == (col.color_count, col.edge_colors)


@pytest.mark.parametrize("bad", [True, False, 1.0, "1", None], ids=repr)
def test_entries_and_colors_that_are_not_ints_are_refused(tmp_path, bad):
    """A bool passes isinstance(x, int) but is written as True or False,
    which no reader takes back; a table entry, a color or a color count
    that is not an int is refused, and the int version round-trips."""
    with pytest.raises(ValueError, match=re.escape(f"row 1 contains {bad!r}, not an int in 0..1")):
        group_from_cayley_table([[0, 1], [bad, 0]])
    g = complete_graph(3)
    with pytest.raises(ValueError, match=re.escape(f"color {bad!r} is not an int")):
        EdgeColoring(g, 2, [bad, 2, 2])
    with pytest.raises(ValueError, match="at least one color"):
        EdgeColoring(g, bad, [1, 1, 1])
    group = group_from_cayley_table([[0, 1], [1, 0]])
    write_cayley_table(group, tmp_path / "z2.cay")
    assert load_cayley_table(tmp_path / "z2.cay").table == group.table
    col = EdgeColoring(g, 2, [1, 2, 2])
    write_coloring_file(col, tmp_path / "k3.col")
    back = read_coloring_file(tmp_path / "k3.col", g)
    assert (back.color_count, back.edge_colors) == (2, (1, 2, 2))


def test_writer_refuses_names_that_do_not_survive_splitting(tmp_path):
    for bad in ("a b", "", "a\tb"):
        group = group_from_cayley_table(cyclic(2).table, ["e", bad])
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            write_cayley_table(group, tmp_path / "g.cay")
        graph = graph_from_edges(2, [(0, 1)], ["v", bad])
        with pytest.raises(ValueError, match="empty or contains whitespace"):
            write_graph_file(graph, tmp_path / "g.graph")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_refused_naming(path, argv):
    code, out, err = _cli(argv)
    assert code != 0 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["message"].startswith(f"{path}: ")


@pytest.mark.parametrize("suffix, text", [
    (".cay", "cayleyX 2\n0 1\n1 0\n"),
    (".cay", "cayley 2\nnamesX a b\n0 1\n1 0\n"),
    (".cay", "cayley 2 2\n0 1\n1 0\n"),
    (".cay", "cayley two\n0 1\n1 0\n"),
    (".cay", "cayley 2\n0 1\n1 0 1\n"),
    (".graph", "graphs 3 1\n0 1\n"),
    (".graph", "graph 3 1\nlabelsX a b c\n0 1\n"),
    (".graph", "graph 3 1\n0 1 2\n"),
    (".graph", "graph 3 1\n0\n"),
    (".graph", "graph 3 1\n0 x\n"),
    (".graph", "graph 3 1\n0 3\n"),
    (".graph", "graph 3 1\nlabels a b\n0 1\n"),
])
def test_refused_inputs_name_the_file(tmp_path, suffix, text):
    """Prefixed keywords and names lines are refused; so are short, long and
    non-integer lines, each with one error line that starts with the path."""
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    if suffix == ".cay":
        _assert_refused_naming(path, ["bounds", "--group", str(path)])
    else:
        _assert_refused_naming(path, ["iso", "--graph", str(path), "--graph2", str(path)])


@pytest.mark.parametrize("text, fault", [
    ("graph 3 2\n0 1 2\n1 x\n", "line '0 1 2' is not 2 integers"),
    ("graph 3 2\n1 x\n0 1 2\n", "invalid literal for int() with base 10: 'x'"),
], ids=["width-then-token", "token-then-width"])
def test_a_file_with_two_faults_names_the_first_faulty_line(tmp_path, text, fault):
    """A line of the wrong width and a line with a bad token: whichever comes
    first in the file is the one reported."""
    path = tmp_path / "bad.graph"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_graph_file(path)
    assert str(info.value) == f"{path}: {fault}"


def test_undecodable_file_names_the_file(tmp_path):
    path = tmp_path / "bad.cay"
    path.write_bytes(b"cayley 1\n\xff\xfe\n")
    _assert_refused_naming(path, ["bounds", "--group", str(path)])


def test_table_errors_of_same_stem_files_name_their_paths(tmp_path):
    """Two tables named bad.cay in two directories, neither a Latin square:
    each error keeps its class, the stem stays the group name, and the
    message starts with the file's own path, in the loader and the CLI."""
    for sub, rows in (("a", "0 1 2\n1 2 0\n2 0 -1\n"), ("b", "0 1 2\n1 1 0\n2 0 1\n")):
        (tmp_path / sub).mkdir()
        path = tmp_path / sub / "bad.cay"
        path.write_text("cayley 3\n" + rows)
        with pytest.raises(NotLatinSquare, match=rf"^{re.escape(str(path))}: bad: row "):
            load_cayley_table(path)
        _assert_refused_naming(path, ["bounds", "--group", str(path)])
        assert json.loads(_cli(["bounds", "--group", str(path)])[2])["error"] == "NotLatinSquare"


KINDS = {".cay": "names", ".graph": "labels", ".col": None}
MUTATIONS = ["drop", "add", "nonint", "prefix", "swap", "dup"]


def _mutate(lines, kind, mutation, data):
    """Apply one mutation that no file of the format survives. The optional
    names/labels line is never dropped, since a file without it is valid;
    a file with no edge line gets a duplicated line in place of a swap."""
    opt = 1 if len(lines) > 1 and lines[1].split()[0] == KINDS[kind] else None
    plain = [i for i in range(len(lines)) if i != opt]
    edges = [i for i in plain if i > 0 and kind != ".cay"]
    if mutation == "drop":
        del lines[data.draw(st.sampled_from(plain))]
    elif mutation == "add":
        lines[data.draw(st.integers(0, len(lines) - 1))] += " 0"
    elif mutation == "nonint":
        i = data.draw(st.sampled_from(plain))
        toks = lines[i].split()
        toks.insert(data.draw(st.integers(0, len(toks))), data.draw(st.sampled_from(["x", "1.5", "-"])))
        lines[i] = " ".join(toks)
    elif mutation == "prefix":
        i = data.draw(st.sampled_from([0] if opt is None else [0, opt]))
        lines[i] = lines[i].replace(" ", "X ", 1)
    elif mutation == "swap" and edges:
        i = data.draw(st.sampled_from(edges))
        u, v, *rest = lines[i].split()
        lines[i] = " ".join([v, u, *rest])
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines.insert(i, lines[i])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(KINDS)), st.sampled_from(MUTATIONS), groups(), colorings(),
       st.data())
def test_mutated_file_is_refused_with_one_json_line(kind, mutation, group, col, data):
    """Through `bounds --group`, `iso` and `verify`: exit non-zero, no
    manifest, and exactly one JSON line on stderr that starts with the path."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, valid = Path(tmp) / "valid.graph", Path(tmp) / f"valid{kind}"
        path = Path(tmp) / f"mutated{kind}"  # a second name: the valid file stays as written
        write_graph_file(col.graph, graph)
        if kind == ".cay":
            write_cayley_table(group, valid)
            assert load_cayley_table(valid).table == group.table
            argv = ["bounds", "--group", str(path)]
        elif kind == ".graph":
            assert read_graph_file(valid).adj == col.graph.adj
            argv = ["iso", "--graph", str(graph), "--graph2", str(path)]
        else:
            write_coloring_file(col, valid)
            assert read_coloring_file(valid, col.graph).edge_colors == col.edge_colors
            argv = ["verify", "--graph", str(graph), "--coloring", str(path), "--k", "1"]
        lines = valid.read_text().splitlines()
        _mutate(lines, kind, mutation, data)
        path.write_text("\n".join(lines) + "\n")
        _assert_refused_naming(path, argv)


K4_BODY = "0 1 1\n0 2 2\n0 3 2\n1 2 1\n1 3 2\n2 3 1\n"


def test_verify_memory_does_not_follow_the_declared_color_count(tmp_path):
    graph = tmp_path / "k4.graph"
    write_graph_file(complete_graph(4), graph)
    peaks, outcomes = [], []
    tracemalloc.start()
    try:
        for count in (2, 2, 200_000):  # the first run warms caches
            col = tmp_path / f"k4-{count}.col"
            col.write_text(f"coloring {count}\n" + K4_BODY)
            tracemalloc.reset_peak()
            code, out, err = _cli(["verify", "--graph", str(graph), "--coloring", str(col),
                                   "--k", "2"])
            peaks.append(tracemalloc.get_traced_memory()[1])
            assert code == 0, err
            outcomes.append(json.loads(out)["outcome"])
    finally:
        tracemalloc.stop()
    assert outcomes[1] == outcomes[2] == {"k": 2, "rainbow_k_connected": True}
    assert abs(peaks[2] - peaks[1]) < 1 << 20, peaks
