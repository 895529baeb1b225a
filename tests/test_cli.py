import json

import pytest

from ncrainbow import cli, rainbow
from ncrainbow.cli import main
from ncrainbow.colorings import read_coloring_file
from ncrainbow.graphs import are_isomorphic, read_graph_file
from ncrainbow.groups import dihedral, load_cayley_table


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


def test_threshold_k_over_the_budget_exits_three(capsys):
    code, manifest, captured = run(capsys, "bounds", "threshold", "--k", "101")
    assert code == 3 and manifest is None
    assert one_error_line(captured)["error"] == "SearchBudgetExceeded"
    code, manifest, _ = run(capsys, "bounds", "threshold", "--k", "3")
    assert code == 0 and manifest["outcome"]["threshold"] == 180


def test_exhausted_budget_exits_three(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "c6.graph"
    graph.write_text("graph 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    monkeypatch.setattr(cli, "are_isomorphic",
                        lambda g1, g2: are_isomorphic(g1, g2, node_budget=3))
    code, manifest, captured = run(capsys, "iso", "--graph", str(graph),
                                   "--graph2", str(graph))
    assert code == 3 and manifest is None
    assert one_error_line(captured)["error"] == "SearchBudgetExceeded"


def test_internal_failure_exits_four(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "k3.graph"
    graph.write_text("graph 3 3\n0 1\n0 2\n1 2\n")  # no 2-coloring of K3 is rainbow-2
    monkeypatch.setattr(rainbow, "_attempt_passes", lambda plan, s: True)  # a broken kernel
    code, manifest, captured = run(capsys, "search", "--graph", str(graph), "--k", "2",
                                   "--attempts", "10", "--seed", "0")
    assert code == 4 and manifest is None
    error = one_error_line(captured)
    assert error["error"] == "AssertionError" and "accepted a failing coloring" in error["message"]


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


QUICK_PASS_LINES = [
    "PASS  tau-floor               35 groups, min 6*tau/|G| = 3/2 at D8",
    "PASS  multipartite-structure  13 graphs match",
    "PASS  fiber-expansion         4 natural maps verified",
    "PASS  coloring-grid           24 grid points certified",
    "PASS  triangle-exclusion      all 8 two-colorings fail, a 3-coloring passes",
    "PASS  exception-scan          22 flagged, dihedral/dicyclic clean through order 64",
    "PASS  johnson-fiber           verified, both order-32 graphs isomorphic",
    "PASS  constructive-search     rc2 = 2 for all 35 graphs (13 searched, 22 structural)",
    "PASS  inequality-chain        coarse exact on 114..400, mid <= coarse through n = 150",
    "PASS  rainbow3-threshold      kappa = 7, rc3 = 2 for D14, thresholds"
    " [126, 180, 237, 296, 357]",
    "PASS  oracle-equivalence      40 colored graphs agree",
]


def test_reproduce_quick(capsys):
    code = main(["reproduce", "--quick"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert lines == QUICK_PASS_LINES


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
