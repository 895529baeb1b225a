import hashlib
import json
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from ncrainbow import graphs, ncgraph, rainbow, reproduce
from ncrainbow.bounds import DyadicBound, lemma_bound
from ncrainbow.cli import main
from ncrainbow.colorings import EdgeColoring, read_coloring_file, write_coloring_file
from ncrainbow.graphs import complete_graph, read_graph_file, write_graph_file
from ncrainbow.groups import cyclic, dihedral, load_cayley_table, write_cayley_table
from ncrainbow.ncgraph import noncommuting_graph
from util import counting_validator, inject_min_tau


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    manifest = None
    for line in captured.out.strip().splitlines():
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc, dict) and "command" in doc:
            manifest = doc
    return code, manifest, captured


def test_group_build_and_round_trip(tmp_path, capsys):
    out = tmp_path / "d18.cay"
    code, manifest, _ = run(capsys, "group", "build", "--family", "dihedral",
                            "--params", "9", "--out", str(out))
    assert code == 0
    assert manifest["outcome"] == {"name": "D18", "order": 18, "center_size": 1}
    assert load_cayley_table(out).table == dihedral(9).table


def test_full_pipeline(tmp_path, capsys):
    cay = tmp_path / "g.cay"
    graph = tmp_path / "g.graph"
    col = tmp_path / "g.col"
    cert = tmp_path / "g.cert.json"
    assert run(capsys, "group", "build", "--family", "dihedral",
               "--params", "9", "--out", str(cay))[0] == 0
    code, manifest, _ = run(capsys, "ncgraph", "--group", str(cay), "--out", str(graph))
    assert code == 0 and manifest["outcome"]["vertices"] == 17
    code, manifest, _ = run(capsys, "search", "--graph", str(graph), "--k", "2",
                            "--attempts", "10000", "--seed", "1", "--out", str(col))
    assert code == 0 and manifest["outcome"]["found"]
    assert sorted(manifest["parameters"]) == ["attempts", "graph", "k", "seed"]
    code, manifest, _ = run(capsys, "verify", "--graph", str(graph),
                            "--coloring", str(col), "--k", "2", "--cert", str(cert))
    assert code == 0 and manifest["outcome"]["rainbow_k_connected"]
    assert json.loads(cert.read_text())["k"] == 2
    # every written file reads back to identical content
    g = read_graph_file(graph)
    assert read_coloring_file(col, g).edge_colors is not None


def test_color_commands(tmp_path, capsys):
    graph = tmp_path / "m.graph"
    col = tmp_path / "m.col"
    code, manifest, _ = run(capsys, "color", "multipartite", "--l", "1", "--m", "4",
                            "--n", "1", "--out-graph", str(graph),
                            "--out-coloring", str(col))
    assert code == 0 and manifest["outcome"]["vertices"] == 5
    code, _, _ = run(capsys, "verify", "--graph", str(graph),
                     "--coloring", str(col), "--k", "2")
    assert code == 0

    code, manifest, captured = run(capsys, "color", "multipartite", "--l", "1",
                                   "--m", "2", "--n", "1", "--out-graph", str(graph),
                                   "--out-coloring", str(col))
    assert code == 2
    error = json.loads(captured.err.strip())
    assert error["error"] == "InvalidSpec"

    code, manifest, _ = run(capsys, "color", "j62", "--out-graph", str(graph),
                            "--out-coloring", str(col))
    assert code == 0 and manifest["outcome"]["edges"] == 240


def test_verify_failure_exits_one(tmp_path, capsys):
    graph = tmp_path / "k3.graph"
    col = tmp_path / "k3.col"
    graph.write_text("graph 3 3\nlabels v0 v1 v2\n0 1\n0 2\n1 2\n")
    col.write_text("coloring 2\n0 1 1\n0 2 1\n1 2 1\n")
    code, manifest, _ = run(capsys, "verify", "--graph", str(graph),
                            "--coloring", str(col), "--k", "2")
    assert code == 1
    assert manifest["outcome"]["rainbow_k_connected"] is False
    assert manifest["outcome"]["witness_pair"] == [0, 1]


def test_bounds_modes(tmp_path, capsys):
    cay = tmp_path / "d6.cay"
    run(capsys, "group", "build", "--family", "dihedral", "--params", "3",
        "--out", str(cay))
    code, manifest, _ = run(capsys, "bounds", "--group", str(cay), "--k", "2")
    assert code == 0
    assert manifest["outcome"]["p_num"] == "19" and manifest["outcome"]["p_den"] == "8"
    assert manifest["outcome"]["flagged"] is True

    code, manifest, _ = run(capsys, "bounds", "coarse", "--n", "108")
    assert code == 0 and manifest["outcome"]["holds"] is False
    code, manifest, _ = run(capsys, "bounds", "threshold", "--k", "2")
    assert code == 0 and manifest["outcome"]["threshold"] == 126


def test_scan_directory(tmp_path, capsys):
    for name, n in (("a", 3), ("b", 9)):
        run(capsys, "group", "build", "--family", "dihedral", "--params", str(n),
            "--out", str(tmp_path / f"{name}.cay"))
    out = tmp_path / "scan.json"
    code, manifest, _ = run(capsys, "scan", "--groups", str(tmp_path),
                            "--out", str(out))
    assert code == 0
    assert manifest["outcome"]["flagged"] == ["a"]
    doc = json.loads(out.read_text())
    assert [entry["id"] for entry in doc] == ["a", "b"]


SCAN_TEXT = """[
 {
  "id": "d60",
  "order": 60,
  "center_size": 2,
  "p_num": "1011867453927",
  "p_den": "72057594037927936",
  "flagged": false
 },
 {
  "id": "s3",
  "order": 6,
  "center_size": 1,
  "p_num": "19",
  "p_den": "8",
  "flagged": true
 },
 {
  "id": "z4",
  "order": 4,
  "center_size": 4,
  "error": "AbelianGroup"
 }
]
"""


def test_scan_file_is_pinned(tmp_path, capsys):
    """A clean, a flagged and an abelian group, written byte for byte."""
    groups = tmp_path / "groups"
    groups.mkdir()
    s3 = resources.files("ncrainbow").joinpath("data", "s3.cay")
    (groups / "s3.cay").write_bytes(s3.read_bytes())
    write_cayley_table(dihedral(30), groups / "d60.cay")
    write_cayley_table(cyclic(4), groups / "z4.cay")
    out = tmp_path / "scan.json"
    code, manifest, _ = run(capsys, "scan", "--groups", str(groups), "--out", str(out))
    assert code == 0
    assert out.read_text() == SCAN_TEXT
    assert manifest["outcome"] == {"scanned": 3, "flagged": ["s3"]}


def test_iso_command(tmp_path, capsys):
    g1 = tmp_path / "g1.graph"
    g2 = tmp_path / "g2.graph"
    g3 = tmp_path / "g3.graph"
    g1.write_text("graph 3 3\n0 1\n0 2\n1 2\n")
    g2.write_text("graph 3 3\n0 2\n1 2\n0 1\n")
    g3.write_text("graph 3 2\n0 1\n1 2\n")
    code, manifest, _ = run(capsys, "iso", "--graph", str(g1), "--graph2", str(g2))
    assert code == 0 and manifest["outcome"]["isomorphic"]
    code, manifest, _ = run(capsys, "iso", "--graph", str(g1), "--graph2", str(g3))
    assert code == 1 and not manifest["outcome"]["isomorphic"]


def test_usage_error_is_json(capsys):
    code = main(["group", "build", "--family", "nosuch", "--out", "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err.strip())["error"] == "UsageError"


def one_error_line(captured):
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_search_has_no_workers_option(tmp_path, capsys):
    graph = tmp_path / "k3.graph"
    graph.write_text("graph 3 3\n0 1\n0 2\n1 2\n")
    code, manifest, captured = run(capsys, "search", "--graph", str(graph), "--k", "1",
                                   "--attempts", "10", "--seed", "0", "--workers", "2")
    assert code == 2 and manifest is None
    assert one_error_line(captured)["error"] == "UsageError"


def test_search_refuses_a_negative_budget_as_a_usage_error(tmp_path, capsys):
    graph = tmp_path / "k3.graph"
    graph.write_text("graph 3 3\n0 1\n0 2\n1 2\n")
    code, manifest, captured = run(capsys, "search", "--graph", str(graph), "--k", "1",
                                   "--attempts", "-5", "--seed", "0")
    assert code == 2 and manifest is None
    assert one_error_line(captured) == {"error": "ValueError",
                                        "message": "attempts must be at least 0, not -5"}


@pytest.mark.parametrize("family, params", [("dihedral", ",4,"), ("metacyclic", "8,,3"),
                                            ("cyclic", "5,")])
def test_group_build_refuses_an_empty_params_entry(tmp_path, capsys, family, params):
    out = tmp_path / "g.cay"
    code, manifest, captured = run(capsys, "group", "build", "--family", family,
                                   "--params", params, "--out", str(out))
    assert code == 2 and manifest is None and not out.exists()
    assert one_error_line(captured) == {"error": "ValueError",
                                        "message": f"--params {params!r} has an empty entry"}


@pytest.mark.parametrize("command", ["ncgraph", "search"])
def test_an_output_that_is_an_input_is_refused(tmp_path, capsys, command):
    """Refused before anything is written, also when spelled another way."""
    cay = tmp_path / "d8.cay"
    graph = tmp_path / "d8.graph"
    write_cayley_table(dihedral(4), cay)
    write_graph_file(noncommuting_graph(dihedral(4)).graph, graph)
    same = f"{tmp_path}/./{graph.name}"
    argv = {"ncgraph": ["ncgraph", "--group", str(cay), "--out", str(cay)],
            "search": ["search", "--graph", str(graph), "--k", "2", "--attempts", "100",
                       "--seed", "0", "--out", same]}[command]
    before = {path: path.read_bytes() for path in (cay, graph)}
    code, manifest, captured = run(capsys, *argv)
    assert code == 2 and manifest is None
    assert one_error_line(captured)["message"].endswith("is also an input")
    assert {path: path.read_bytes() for path in (cay, graph)} == before


@pytest.mark.parametrize("argv, named_twice", [
    (["color", "multipartite", "--l", "1", "--m", "3", "--n", "2",
      "--out-graph", "s.txt", "--out-coloring", "s.txt"], "s.txt"),
    (["color", "j62", "--out-graph", "s2.txt", "--out-coloring", "./s2.txt"], "./s2.txt"),
])
def test_an_output_named_twice_is_refused(tmp_path, capsys, monkeypatch, argv, named_twice):
    """Two outputs that resolve to one file are refused before either is written."""
    monkeypatch.chdir(tmp_path)
    code, manifest, captured = run(capsys, *argv)
    assert code == 2 and manifest is None
    assert one_error_line(captured) == {"error": "ValueError",
                                        "message": f"output {named_twice} is named twice"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, error", [
    ("--left", "nosuch.cay", {"error": "FileNotFoundError",
                              "message": "[Errno 2] No such file or directory: 'nosuch.cay'"}),
    ("--right", "z3.cay", {"error": "ValueError", "message": "family dihedral takes no --right"}),
    ("--action", "z3.cay", {"error": "ValueError", "message": "family dihedral takes no --action"}),
])
def test_a_scalar_build_with_a_file_flag_writes_nothing(tmp_path, capsys, monkeypatch,
                                                         flag, value, error):
    """Inputs are read before the command runs, and a scalar family refuses
    the product families' file flags, so neither run writes --out."""
    monkeypatch.chdir(tmp_path)
    write_cayley_table(cyclic(3), "z3.cay")
    code, manifest, captured = run(capsys, "group", "build", "--family", "dihedral",
                                   "--params", "3", flag, value, "--out", "o.cay")
    assert code == 2 and manifest is None
    assert one_error_line(captured) == error
    assert [p.name for p in tmp_path.iterdir()] == ["z3.cay"]


@pytest.mark.parametrize("family, argv, flag", [
    ("direct", ["--params", "7"], "params"),
    ("direct", ["--action", "act.json"], "action"),
    ("direct", ["--zg", "1"], "zg"),
    ("direct", ["--zh", "1"], "zh"),
    ("semidirect", ["--action", "act.json", "--params", "7"], "params"),
    ("semidirect", ["--action", "act.json", "--zg", "1"], "zg"),
    ("semidirect", ["--action", "act.json", "--zh", "1"], "zh"),
    ("central", ["--zg", "0", "--zh", "0", "--params", "7"], "params"),
    ("central", ["--zg", "0", "--zh", "0", "--action", "act.json"], "action"),
    ("dihedral", ["--params", "3", "--zg", "1"], "zg"),
    ("dicyclic", ["--params", "3", "--zh", "1"], "zh"),
])
def test_a_build_refuses_a_flag_its_family_does_not_read(tmp_path, capsys, monkeypatch,
                                                         family, argv, flag):
    """Every flag a family never reads is refused before anything is written,
    so a manifest never records a parameter or input the build ignored."""
    monkeypatch.chdir(tmp_path)
    write_cayley_table(dihedral(3), "d6.cay")
    write_cayley_table(cyclic(3), "z3.cay")
    Path("act.json").write_text(json.dumps([list(range(6))] * 3))
    files = [] if "--params" in argv[:1] else ["--left", "d6.cay", "--right", "z3.cay"]
    code, manifest, captured = run(capsys, "group", "build", "--family", family,
                                   *files, *argv, "--out", "o.cay")
    assert code == 2 and manifest is None
    assert one_error_line(captured) == {"error": "ValueError",
                                        "message": f"family {family} takes no --{flag}"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["act.json", "d6.cay", "z3.cay"]


def test_an_output_in_a_missing_directory_writes_nothing(tmp_path, capsys, monkeypatch):
    """Refused before the command runs, so the other output is not written either."""
    monkeypatch.chdir(tmp_path)
    code, manifest, captured = run(capsys, "color", "multipartite", "--l", "1", "--m", "3",
                                   "--n", "1", "--out-graph", "ok.graph",
                                   "--out-coloring", "nodir/c.col")
    assert code == 2 and manifest is None
    assert one_error_line(captured) == {
        "error": "ValueError",
        "message": "output nodir/c.col is in a directory that does not exist"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["threshold", "--k", "2", "--n", "500"], "n"),
    (["threshold", "--k", "2", "--group", "d6.cay"], "group"),
    (["coarse", "--n", "108", "--k", "9", "--group", "d6.cay"], "group"),
    (["coarse", "--n", "108", "--k", "2"], "k"),
    (["--group", "d6.cay", "--n", "6"], "n"),
    (["group", "--group", "d6.cay", "--k", "3", "--n", "6"], "n"),
])
def test_bounds_refuses_a_flag_its_mode_does_not_read(tmp_path, capsys, monkeypatch, argv, flag):
    """coarse reads only --n, threshold only --k, the group mode only
    --group and --k; any other flag, even at a default value, is refused
    with one JSON line, so a manifest never drops a flag it was given."""
    monkeypatch.chdir(tmp_path)
    write_cayley_table(dihedral(3), "d6.cay")
    mode = "group" if argv[0].startswith("--") else argv[0]
    code, manifest, captured = run(capsys, "bounds", *argv)
    assert code == 2 and manifest is None
    assert one_error_line(captured) == {"error": "ValueError",
                                        "message": f"bounds {mode} takes no --{flag}"}


def test_bounds_k_defaults_to_two_where_it_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_cayley_table(dihedral(3), "d6.cay")
    code, manifest, _ = run(capsys, "bounds", "--group", "d6.cay")
    assert code == 0 and manifest["parameters"] == {"group": "d6.cay", "k": 2}
    assert (manifest["outcome"]["p_num"], manifest["outcome"]["p_den"]) == ("19", "8")
    code, manifest, _ = run(capsys, "bounds", "threshold")
    assert code == 0 and manifest["parameters"] == {"k": 2}
    assert manifest["outcome"]["threshold"] == 126


def test_ncgraph_refuses_a_build_that_disagrees_with_its_group(tmp_path, capsys, monkeypatch):
    """A fault in the build is caught where the graph is made: with one
    copied row altered, `ncgraph` exits 4 on one BoundViolated line and
    writes no graph. In D8 the last vertex, r^3*s, is r*s times the central
    r^2, so its row is a copy; the fault drops its edge to r, vertex 0."""
    monkeypatch.chdir(tmp_path)
    write_cayley_table(dihedral(4), "d8.cay")
    real = ncgraph.Graph
    monkeypatch.setattr(ncgraph, "Graph",
                        lambda n, labels, adj: real(n, labels, adj[:-1] + (adj[-1] ^ 1,)))
    code, manifest, captured = run(capsys, "ncgraph", "--group", "d8.cay", "--out", "d8.graph")
    assert code == 4 and manifest is None
    assert one_error_line(captured) == {"error": "BoundViolated",
                                        "message": "tau mismatch at (5,0): graph edge 0, group 1"}
    assert [p.name for p in tmp_path.iterdir()] == ["d8.cay"]


def test_threshold_k_over_the_budget_exits_three(capsys):
    code, manifest, captured = run(capsys, "bounds", "threshold", "--k", "101")
    assert code == 3 and manifest is None
    assert one_error_line(captured)["error"] == "SearchBudgetExceeded"
    code, manifest, _ = run(capsys, "bounds", "threshold", "--k", "3")
    assert code == 0 and manifest["outcome"]["threshold"] == 180


def test_exhausted_budget_exits_three(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "c6.graph"
    graph.write_text("graph 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 3)
    code, manifest, captured = run(capsys, "iso", "--graph", str(graph),
                                   "--graph2", str(graph))
    assert code == 3 and manifest is None
    assert one_error_line(captured)["error"] == "SearchBudgetExceeded"


def test_verify_refuses_three_or_more_colors_in_use(tmp_path, capsys):
    g = complete_graph(8)
    rng = random.Random(8)
    graph, col = tmp_path / "k8.graph", tmp_path / "k8.col"
    write_graph_file(g, graph)
    write_coloring_file(EdgeColoring(g, 4, [rng.randint(1, 4) for _ in g.edges]), col)
    code, manifest, captured = run(capsys, "verify", "--graph", str(graph),
                                   "--coloring", str(col), "--k", "2")
    assert code == 2 and manifest is None
    error = one_error_line(captured)
    assert error == {"error": "ValueError",
                     "message": "verification takes at most 2 colors in use, not 4"}


def test_internal_failure_exits_four(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "k3.graph"
    graph.write_text("graph 3 3\n0 1\n0 2\n1 2\n")  # no 2-coloring of K3 is rainbow-2
    monkeypatch.setattr(rainbow, "_short_pair", lambda g, col, k: None)  # a broken decider
    code, manifest, captured = run(capsys, "search", "--graph", str(graph), "--k", "2",
                                   "--attempts", "74", "--seed", "0")
    assert code == 4 and manifest is None
    error = one_error_line(captured)
    assert error["error"] == "AssertionError" and "accepted a failing coloring" in error["message"]


def test_reproduce_exits_four_on_a_tau_below_the_floor(capsys, monkeypatch):
    """A least tau under |G|/6 contradicts a theorem: an internal failure."""
    inject_min_tau(monkeypatch, lambda order: order // 6 - 1)
    code, manifest, captured = run(capsys, "reproduce")
    assert code == 4 and manifest is None
    error = one_error_line(captured)
    assert error["error"] == "BoundViolated" and "6*tau" in error["message"]


def test_reproduce_exits_four_on_a_tau_below_a_quarter(capsys, monkeypatch):
    """tau >= |G|/4 is the hypothesis of lemma_bound: a least tau of
    ceil(|G|/4) passes tau-floor, one less exits 4. On D6, the first suite
    group, one less is still |G|/6, so only the quarter guard trips."""
    inject_min_tau(monkeypatch, lambda order: -(-order // 4))
    assert reproduce.check_tau_floor(reproduce.suite_graphs()).passed
    inject_min_tau(monkeypatch, lambda order: -(-order // 4) - 1)
    code, manifest, captured = run(capsys, "reproduce")
    assert code == 4 and manifest is None
    assert one_error_line(captured) == {"error": "BoundViolated", "message": "D6: 4*tau = 4 < 6"}


def test_reproduce_exits_four_on_a_value_above_the_lemma_bound(capsys, monkeypatch):
    """Every computed failure bound must lie at or under lemma_bound. Every
    value reproduce computes comes through reproduce.failure_bound:
    passed through, the calls are the suite's at k = 2, then D34..D56 and
    Q36..Q56, then D6 at k = 3, and the stdout is the pinned one; one
    value set 1/2^t above the lemma for D40 (t = ceil(40/4)) exits 4."""
    real = reproduce.failure_bound
    calls = []

    def spy(group, k=2):
        calls.append((group.name, k))
        return real(group, k)

    monkeypatch.setattr(reproduce, "failure_bound", spy)
    assert main(["reproduce"]) == 0
    assert capsys.readouterr().out == FULL_STDOUT
    suite = [g.name for g in reproduce.standard_suite()]
    sweep = [f"D{2 * n}" for n in range(17, 29)] + [f"Q{4 * m}" for m in range(9, 15)]
    assert calls == [(name, 2) for name in suite + sweep] + [("D6", 3)]

    def faulty(group, k=2):
        if group.name == "D40":
            return lemma_bound(40, 2) + Fraction(1, 2 ** 10)
        return real(group, k)

    monkeypatch.setattr(reproduce, "failure_bound", faulty)
    code, manifest, captured = run(capsys, "reproduce")
    assert code == 4 and manifest is None
    error = one_error_line(captured)
    assert error["error"] == "BoundViolated"
    assert error["message"].startswith("D40: failure_bound ")


def test_reproduce_exits_four_on_a_value_above_the_mid_bound(capsys, monkeypatch):
    """Every computed failure bound must lie at or under the paper's
    mid_bound(|G|, |Z|). With the cap cut to an eighth, D6's 19/8 lies
    above it (the cap is 6.8 times the value there), so reproduce exits 4."""
    real = reproduce.mid_bound

    def smaller(n, z):
        bound = real(n, z)
        return DyadicBound(bound.prefactor / 8, bound.sixth_log2)

    monkeypatch.setattr(reproduce, "mid_bound", smaller)
    code, manifest, captured = run(capsys, "reproduce")
    assert code == 4 and manifest is None
    assert one_error_line(captured) == {"error": "BoundViolated",
                                        "message": "D6: failure_bound 19/8 > mid_bound(6, 1)"}


def test_search_over_the_work_limit_exits_three_before_any_draw(tmp_path, capsys, monkeypatch):
    """D14 at k = 3 costs 63 edges + 78 pairs per attempt: 10^5 attempts fit
    the limit, 10^6 are refused with one JSON line and nothing drawn."""
    graph = tmp_path / "d14.graph"
    write_graph_file(noncommuting_graph(dihedral(7)).graph, graph)
    draws = []
    monkeypatch.setattr(rainbow, "random_two_coloring", lambda g, s: draws.append(s))
    code, manifest, captured = run(capsys, "search", "--graph", str(graph), "--k", "3",
                                   "--attempts", str(10 ** 6), "--seed", "1")
    assert code == 3 and manifest is None and draws == []
    assert one_error_line(captured)["error"] == "SearchBudgetExceeded"
    assert 10 ** 5 * (63 + 78) <= rainbow.SEARCH_WORK_LIMIT < 10 ** 6 * (63 + 78)


def test_search_certifies_its_winner_before_writing_it(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "d18.graph"
    col = tmp_path / "d18.col"
    write_graph_file(noncommuting_graph(dihedral(9)).graph, graph)
    validated = counting_validator(monkeypatch)
    code, manifest, _ = run(capsys, "search", "--graph", str(graph), "--k", "3",
                            "--attempts", "5000", "--seed", "0", "--out", str(col))
    assert code == 0 and manifest["outcome"]["winning_seed"] == 420
    assert validated == [3] and col.exists()


@pytest.mark.parametrize("zg", ["-1", "99"])
def test_central_build_refuses_an_out_of_range_element(tmp_path, capsys, zg):
    d8 = tmp_path / "d8.cay"
    run(capsys, "group", "build", "--family", "dihedral", "--params", "4", "--out", str(d8))
    out = tmp_path / "g.cay"
    code, manifest, captured = run(capsys, "group", "build", "--family", "central",
                                   "--left", str(d8), "--right", str(d8),
                                   "--zg", zg, "--zh", "2", "--out", str(out))
    assert code == 2 and manifest is None and not out.exists()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NotCentral"


def test_semidirect_build(tmp_path, capsys):
    z3 = tmp_path / "z3.cay"
    z2 = tmp_path / "z2.cay"
    action = tmp_path / "action.json"
    run(capsys, "group", "build", "--family", "cyclic", "--params", "3", "--out", str(z3))
    run(capsys, "group", "build", "--family", "cyclic", "--params", "2", "--out", str(z2))
    action.write_text(json.dumps([[0, 1, 2], [0, 2, 1]]))
    out = tmp_path / "s3.cay"
    code, manifest, _ = run(capsys, "group", "build", "--family", "semidirect",
                            "--left", str(z3), "--right", str(z2),
                            "--action", str(action), "--out", str(out))
    assert code == 0 and manifest["outcome"]["order"] == 6
    assert manifest["outcome"]["center_size"] == 1


@pytest.mark.parametrize("action,message", [
    ([[0, 1, 2], [0, 2, 1.0]], "action[1] contains 1.0, not an int"),
    ([[0, 1, 2], [0, 2, "1"]], "action[1] contains '1', not an int"),
    ([[0, 1, 2], [0, 2, [1]]], "action[1] contains [1], not an int"),
    ([[0, 1, 2], [0, 2, True]], "action[1] contains True, not an int"),
    (5, "action must be a list of 2 permutations, not int"),
])
def test_semidirect_refuses_a_malformed_action(tmp_path, capsys, action, message):
    z3, z2, path = tmp_path / "z3.cay", tmp_path / "z2.cay", tmp_path / "action.json"
    run(capsys, "group", "build", "--family", "cyclic", "--params", "3", "--out", str(z3))
    run(capsys, "group", "build", "--family", "cyclic", "--params", "2", "--out", str(z2))
    path.write_text(json.dumps(action))
    out = tmp_path / "s3.cay"
    code, manifest, captured = run(capsys, "group", "build", "--family", "semidirect",
                                   "--left", str(z3), "--right", str(z2),
                                   "--action", str(path), "--out", str(out))
    assert code == 2 and manifest is None and not out.exists()
    assert one_error_line(captured) == {"error": "ValueError", "message": message}


FULL_STDOUT = "".join(line + "\n" for line in [
    "PASS  tau-floor               35 groups, min 6*tau/|G| = 3/2 at D8",
    "PASS  multipartite-structure  13 graphs match",
    "PASS  fiber-expansion         4 natural maps verified",
    "PASS  coloring-grid           24 grid points certified",
    "PASS  triangle-exclusion      all 8 two-colorings fail, a 3-coloring passes",
    "PASS  exception-scan          22 flagged, dihedral/dicyclic clean through order 56,"
    " every group from order 57 by tau >= |G|/4",
    "PASS  johnson-fiber           verified, both order-32 graphs isomorphic",
    "PASS  constructive-search     rc2 = 2 for all 35 graphs (13 searched, 22 structural)",
    "PASS  inequality-chain        coarse fails at 108 and holds for every n >= 114"
    " (115^18 < 2*114^18), mid <= coarse for every 1 <= z <= n",
    "PASS  rainbow3-threshold      kappa = 7, rc3 = 2 for D14, thresholds"
    " [126, 180, 237, 296, 357]",
    "PASS  oracle-equivalence      200 colored graphs agree",
    '{"command": "reproduce", "inputs": {}, "outcome": {"criteria": 11, "failed": [],'
    ' "passed": true}, "outputs": {}, "parameters": {"quick": false}}',
])
# The quick run prints the full run's criterion lines but checks fewer colored graphs.
QUICK_PASS_LINES = [line.replace("200 colored graphs", "40 colored graphs")
                    for line in FULL_STDOUT.splitlines()[:-1]]


def test_reproduce_full_stdout_is_pinned(capsys):
    """The full run's stdout, byte for byte: every PASS line and the manifest."""
    assert main(["reproduce"]) == 0
    assert capsys.readouterr().out == FULL_STDOUT


def test_reproduce_quick(capsys):
    code = main(["reproduce", "--quick"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines == QUICK_PASS_LINES


def test_rejected_structural_coloring_fails_only_its_criterion(capsys, monkeypatch):
    """A pulled-back coloring with one color flipped fails certify_rc2: the
    criterion names the group, and every other criterion still reports."""
    transfer = reproduce.transfer_coloring

    def one_color_flipped(coloring, mapping, graph):
        colors = list(transfer(coloring, mapping, graph).edge_colors)
        colors[0] = 3 - colors[0]
        return EdgeColoring(graph, 2, colors)

    monkeypatch.setattr(reproduce, "transfer_coloring", one_color_flipped)
    code = main(["reproduce", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    lines = [ln for ln in captured.out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    names = [ln.split()[1] for ln in lines]
    assert names == [ln.split()[1] for ln in QUICK_PASS_LINES]
    failed = [ln for ln in lines if ln.startswith("FAIL")]
    assert [ln.split()[1] for ln in failed] == ["constructive-search"]
    assert "structural coloring rejected for D6:" in failed[0]


def test_verify_refuses_a_coloring_with_a_non_edge_pair(tmp_path, capsys):
    graph = tmp_path / "p3.graph"
    col = tmp_path / "p3.col"
    graph.write_text("graph 3 2\n0 1\n1 2\n")
    for line in ("0 2 1", "-1 0 1", "0 99 1"):
        col.write_text(f"coloring 2\n0 1 1\n1 2 2\n{line}\n")
        code, manifest, captured = run(capsys, "verify", "--graph", str(graph),
                                       "--coloring", str(col), "--k", "1")
        assert code == 2 and manifest is None
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "ValueError" and "is not a graph edge" in error["message"]


def test_exhausted_budget_fails_only_its_criteria(capsys, monkeypatch):
    """An isomorphism budget of 50 nodes is spent by every are_isomorphic
    call: the two criteria that make one fail on their own lines, naming
    the exception, and every other criterion still reports."""
    monkeypatch.setattr(graphs, "ISO_NODE_BUDGET", 50)
    code = main(["reproduce", "--quick"])
    captured = capsys.readouterr()
    assert code == 1
    lines = [ln for ln in captured.out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert [ln.split()[1] for ln in lines] == [ln.split()[1] for ln in QUICK_PASS_LINES]
    failed = {ln.split()[1]: ln for ln in lines if ln.startswith("FAIL")}
    assert sorted(failed) == ["constructive-search", "johnson-fiber"]
    for line in failed.values():
        assert line.split(None, 2)[2] == "SearchBudgetExceeded: exceeded 50 nodes"
    assert [ln for ln in lines if ln.startswith("PASS")] == [
        ln for ln in QUICK_PASS_LINES if ln.split()[1] not in failed]
    manifest = json.loads(captured.out.strip().splitlines()[-1])
    assert manifest["outcome"]["failed"] == ["johnson-fiber", "constructive-search"]
    assert captured.err == ""


@pytest.fixture
def workdir(tmp_path):
    """The input files every pinned command reads, written by the library."""
    d18 = dihedral(9)
    graph = noncommuting_graph(d18).graph
    write_cayley_table(d18, tmp_path / "d18.cay")
    write_cayley_table(cyclic(3), tmp_path / "z3.cay")
    write_cayley_table(dihedral(3), tmp_path / "d6.cay")
    write_graph_file(graph, tmp_path / "d18.graph")
    write_coloring_file(rainbow.search_two_coloring(graph, 2, 100, 1), tmp_path / "d18.col")
    (tmp_path / "k3.graph").write_text("graph 3 3\nlabels v0 v1 v2\n0 1\n0 2\n1 2\n")
    (tmp_path / "k3.col").write_text("coloring 2\n0 1 1\n0 2 1\n1 2 1\n")
    (tmp_path / "k3b.graph").write_text("graph 3 3\n0 2\n1 2\n0 1\n")
    (tmp_path / "p3.graph").write_text("graph 3 2\n0 1\n1 2\n")
    (tmp_path / "groups").mkdir()
    write_cayley_table(dihedral(3), tmp_path / "groups" / "a.cay")
    write_cayley_table(dihedral(9), tmp_path / "groups" / "b.cay")
    return tmp_path


def files_under(root):
    return {path for path in root.rglob("*") if path.is_file()}


D18_BUILD = {"name": "D18", "order": 18, "center_size": 1}
PINNED_MANIFESTS = {
    "group build --params": (
        "group build --family dihedral --params 9 --out {tmp}/out.cay", 0,
        {"command": "group build",
         "parameters": {"family": "dihedral", "params": "9", "zg": None, "zh": None},
         "inputs": [], "outputs": ["{tmp}/out.cay"], "outcome": D18_BUILD}),
    "group build --left/--right": (
        "group build --family direct --left {tmp}/d6.cay --right {tmp}/z3.cay"
        " --out {tmp}/out.cay", 0,
        {"command": "group build",
         "parameters": {"family": "direct", "params": None, "zg": None, "zh": None},
         "inputs": ["{tmp}/d6.cay", "{tmp}/z3.cay"], "outputs": ["{tmp}/out.cay"],
         "outcome": {"name": "d6xz3", "order": 18, "center_size": 3}}),
    "ncgraph": (
        "ncgraph --group {tmp}/d18.cay --out {tmp}/out.graph", 0,
        {"command": "ncgraph", "parameters": {"group": "{tmp}/d18.cay"},
         "inputs": ["{tmp}/d18.cay"], "outputs": ["{tmp}/out.graph"],
         "outcome": {"vertices": 17, "edges": 108}}),
    "search found": (
        "search --graph {tmp}/d18.graph --k 2 --attempts 100 --seed 1 --out {tmp}/out.col", 0,
        {"command": "search",
         "parameters": {"graph": "{tmp}/d18.graph", "k": 2, "attempts": 100, "seed": 1},
         "inputs": ["{tmp}/d18.graph"], "outputs": ["{tmp}/out.col"],
         "outcome": {"found": True, "winning_seed": 2, "attempt": 1}}),
    "search not found": (
        "search --graph {tmp}/d18.graph --k 2 --attempts 0 --seed 1 --out {tmp}/out.col", 1,
        {"command": "search",
         "parameters": {"graph": "{tmp}/d18.graph", "k": 2, "attempts": 0, "seed": 1},
         "inputs": ["{tmp}/d18.graph"], "outputs": [], "outcome": {"found": False}}),
    "verify passes": (
        "verify --graph {tmp}/d18.graph --coloring {tmp}/d18.col --k 2"
        " --cert {tmp}/out.cert.json", 0,
        {"command": "verify",
         "parameters": {"graph": "{tmp}/d18.graph", "coloring": "{tmp}/d18.col", "k": 2},
         "inputs": ["{tmp}/d18.col", "{tmp}/d18.graph"], "outputs": ["{tmp}/out.cert.json"],
         "outcome": {"rainbow_k_connected": True, "k": 2}}),
    "verify fails": (
        "verify --graph {tmp}/k3.graph --coloring {tmp}/k3.col --k 2"
        " --cert {tmp}/out.cert.json", 1,
        {"command": "verify",
         "parameters": {"graph": "{tmp}/k3.graph", "coloring": "{tmp}/k3.col", "k": 2},
         "inputs": ["{tmp}/k3.col", "{tmp}/k3.graph"], "outputs": [],
         "outcome": {"rainbow_k_connected": False, "witness_pair": [0, 1],
                     "disjoint_rainbow_paths_found": 1}}),
    "color multipartite": (
        "color multipartite --l 2 --m 4 --n 3 --out-graph {tmp}/out.graph"
        " --out-coloring {tmp}/out.col", 0,
        {"command": "color multipartite", "parameters": {"l": 2, "m": 4, "n": 3},
         "inputs": [], "outputs": ["{tmp}/out.col", "{tmp}/out.graph"],
         "outcome": {"vertices": 14, "edges": 72}}),
    "color j62": (
        "color j62 --out-graph {tmp}/out.graph --out-coloring {tmp}/out.col", 0,
        {"command": "color j62", "parameters": {},
         "inputs": [], "outputs": ["{tmp}/out.col", "{tmp}/out.graph"],
         "outcome": {"vertices": 30, "edges": 240}}),
    "bounds group": (
        "bounds --group {tmp}/d18.cay --k 2", 0,
        {"command": "bounds", "parameters": {"group": "{tmp}/d18.cay", "k": 2},
         "inputs": ["{tmp}/d18.cay"], "outputs": [],
         "outcome": {"id": "d18", "order": 18, "p_num": "6793", "p_den": "8192",
                     "flagged": False}}),
    "bounds coarse": (
        "bounds coarse --n 108", 0,
        {"command": "bounds coarse", "parameters": {"n": 108},
         "inputs": [], "outputs": [], "outcome": {"holds": False}}),
    "bounds coarse --group": (
        "bounds coarse --n 108 --group {tmp}/d18.cay", 2,
        {"error": "ValueError", "message": "bounds coarse takes no --group"}),
    "bounds threshold": (
        "bounds threshold --k 3", 0,
        {"command": "bounds threshold", "parameters": {"k": 3},
         "inputs": [], "outputs": [], "outcome": {"threshold": 180}}),
    "scan": (
        "scan --groups {tmp}/groups --out {tmp}/out.json", 0,
        {"command": "scan", "parameters": {"groups": "{tmp}/groups", "k": 2},
         "inputs": ["{tmp}/groups/a.cay", "{tmp}/groups/b.cay"], "outputs": ["{tmp}/out.json"],
         "outcome": {"scanned": 2, "flagged": ["a"]}}),
    "iso isomorphic": (
        "iso --graph {tmp}/k3.graph --graph2 {tmp}/k3b.graph", 0,
        {"command": "iso", "parameters": {"graph": "{tmp}/k3.graph", "graph2": "{tmp}/k3b.graph"},
         "inputs": ["{tmp}/k3.graph", "{tmp}/k3b.graph"], "outputs": [],
         "outcome": {"isomorphic": True, "mapping": [0, 1, 2]}}),
    "iso not isomorphic": (
        "iso --graph {tmp}/k3.graph --graph2 {tmp}/p3.graph", 1,
        {"command": "iso", "parameters": {"graph": "{tmp}/k3.graph", "graph2": "{tmp}/p3.graph"},
         "inputs": ["{tmp}/k3.graph", "{tmp}/p3.graph"], "outputs": [],
         "outcome": {"isomorphic": False}}),
    "reproduce --quick": (
        "reproduce --quick", 0,
        {"command": "reproduce", "parameters": {"quick": True}, "inputs": [], "outputs": [],
         "outcome": {"criteria": 11, "passed": True, "failed": []}}),
}


@pytest.mark.parametrize("case", PINNED_MANIFESTS)
def test_every_manifest_is_pinned(workdir, capsys, case):
    """The whole manifest of one run of each command and mode: the digest
    beside each file is that file's SHA-256, and the files the run leaves
    behind are exactly the outputs its manifest lists. A refused run (exit
    2) prints its one error line instead, and writes nothing."""
    argv, want_code, want = PINNED_MANIFESTS[case]
    before = files_under(workdir)
    code, manifest, captured = run(capsys, *argv.format(tmp=workdir).split())
    assert code == want_code
    if code == 2:
        assert manifest is None and one_error_line(captured) == want
        assert files_under(workdir) == before
        return
    for role in ("inputs", "outputs"):
        for path, digest in manifest[role].items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        manifest[role] = sorted(manifest[role])
    assert files_under(workdir) - before == {Path(p) for p in manifest["outputs"]}
    assert json.loads(json.dumps(manifest).replace(str(workdir), "{tmp}")) == want
