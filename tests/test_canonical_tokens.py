"""textfile.read looks record tokens up among the canonical decimals
"0".."r-1" (r records read) and sends a line with any other token through
int(). Every spelling that int() accepts must read as int() reads it, and
every token that int() refuses must fail with int()'s message."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ncrainbow import textfile
from ncrainbow.colorings import read_coloring_file
from ncrainbow.graphs import complete_graph, read_graph_file
from ncrainbow.groups import dihedral, load_cayley_table

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def spellings(v):
    """Non-canonical spellings of v that int() reads as v."""
    s = str(v)
    out = ["+" + s, "0" + s, "00" + s, s.translate(ARABIC_INDIC), s.translate(FULLWIDTH)]
    if len(s) > 1:
        out.append(s[0] + "_" + s[1:])
    if v == 0:
        out += ["-0", "+0", "-00"]
    return out


def parse(path, header="cayley <n>", names="names", width=None):
    return textfile.read(path, header, names, width, lambda counts, nm, rows: (counts, nm, rows))


def int_rows(text):
    """The records of text as int() reads them, one list per non-blank line."""
    lines = [ln for ln in text.splitlines() if ln and not ln.isspace()][1:]
    return [list(map(int, ln.split())) for ln in lines if not ln.startswith("names")]


@pytest.mark.parametrize("body", [
    "0 1 2\n+1 2 0\n2 0 1\n",        # a sign
    "0 1 2\n1 2 0\n02 00 01\n",      # leading zeros
    "0 1 2\n1 2 -0\n2 0 1\n",        # negative zero
    "0 1 2\n1 2 0\n٢ ٠ 1\n",         # Arabic-Indic digits
    "0 1 2\n1 2 0\n2 0 1\n3 1_0 17\n",  # at or above the row count, and a digit group
    "-1 1 2\n1 2 0\n2 0 1\n",        # a negative value
])
def test_cay_rows_read_as_int_reads_them(tmp_path, body):
    path = tmp_path / "t.cay"
    text = "cayley 3\nnames a b c\n" + body
    path.write_text(text)
    counts, names, rows = parse(path)
    assert (counts, names) == ([3], ["a", "b", "c"])
    assert rows == int_rows(text)
    assert all(type(x) is int for row in rows for x in row)


def test_spelled_files_load_to_the_same_objects(tmp_path):
    """A group, a graph and a coloring written with every non-canonical
    spelling load as their canonical files do."""
    d6 = dihedral(3)
    cay = tmp_path / "d6.cay"
    rows = [" ".join(spellings(x)[(i + j) % 5] for j, x in enumerate(row))
            for i, row in enumerate(d6.table)]
    cay.write_text("cayley 6\n" + "\n".join(rows) + "\n")
    assert load_cayley_table(cay).table == d6.table

    k5 = complete_graph(5)  # 10 edges, so the vertices 0..4 are canonical
    graph = tmp_path / "k5.graph"
    spelled = [f"{spellings(u)[u % 5]} {v}" for u, v in k5.edges]
    graph.write_text("graph 5 10\n" + "\n".join(spelled) + "\n")
    assert read_graph_file(graph).edges == k5.edges

    k3 = complete_graph(3)  # 3 records, so vertex 3 and up would not be canonical
    col = tmp_path / "k3.col"
    col.write_text("coloring 2\n+0 01 ٢\n0 2 1\n1 2 0_2\n")
    back = read_coloring_file(col, k3)
    assert (back.color_count, back.edge_colors) == (2, (2, 1, 2))


def test_tokens_past_the_row_count_fall_back(tmp_path):
    """A graph with fewer edges than vertices names vertices past the row
    count; they are read by int() all the same."""
    graph = tmp_path / "path.graph"
    graph.write_text("graph 12 2\n10 11\n0 11\n")
    assert read_graph_file(graph).edges == ((0, 11), (10, 11))
    counts, _, rows = parse(graph, "graph <n> <m>", "labels", 2)
    assert (counts, rows) == ([12, 2], [[10, 11], [0, 11]])


@pytest.mark.parametrize("suffix,header,width,text,token", [
    (".cay", "cayley <n>", None, "cayley 2\n0 1\n1 x\n", "x"),
    (".cay", "cayley <n>", None, "cayley 2\n0 1\n+1 1.5\n", "1.5"),
    (".graph", "graph <n> <m>", 2, "graph 3 2\n0 1\nx 2\n", "x"),
    (".graph", "graph <n> <m>", 2, "graph 3 2\n0 01\n1.5 2\n", "1.5"),
    (".col", "coloring <c>", 3, "coloring 2\n0 1 1.5\n", "1.5"),
    (".col", "coloring <c>", 3, "coloring 2\n0 1 1\n0 2 x\n", "x"),
])
def test_bad_tokens_keep_the_int_message(tmp_path, suffix, header, width, text, token):
    path = tmp_path / ("t" + suffix)
    path.write_text(text)
    names = {".cay": "names", ".graph": "labels", ".col": None}[suffix]
    with pytest.raises(ValueError) as info:
        parse(path, header, names, width)
    assert str(info.value) == f"{path}: invalid literal for int() with base 10: '{token}'"


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 8)),
                         min_size=1, max_size=6), min_size=1, max_size=8))
def test_any_spelling_reads_as_int(cells):
    """Rows of values, each written canonically or in one of its other
    spellings, read back as the values."""
    def spell(v, k):
        options = [str(v)] + spellings(v)
        return options[k % len(options)]

    text = "cayley 1\n" + "\n".join(" ".join(spell(v, k) for v, k in row) for row in cells)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.cay"
        path.write_text(text + "\n")
        _, _, rows = parse(path)
    assert rows == [[v for v, _ in row] for row in cells] == int_rows(text)
